package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// pass accumulates one pass (untraced or traced) over a workload: a
// few summary figures per repetition, the virtual results (which must
// agree bit for bit across repetitions), and the failed checks. Raw
// samples live only for the repetition that takes them, so the heap
// the benchmark itself holds does not grow with the repetition count.
type pass struct {
	tr       *tracer
	heapBase uint64

	reps   int
	setupS []float64
	wallS  float64 // summed timed phases
	events int64   // input events processed in the timed phases
	// chunkMS and createMS are the current repetition's samples; end
	// folds them into its quantiles and empties them.
	chunkMS  []float64
	createMS []float64
	// repRate is each repetition's events per timed second; repP50 and
	// repP99 its chunk-latency quantiles, repCreateP50 and repCreateP90
	// its create-latency ones. The end-to-end host figures are their
	// medians, which a burst of host noise moves less than a pooled
	// figure.
	repRate, repP50, repP99    []float64
	repCreateP50, repCreateP90 []float64
	// handlerUS and handlerN sum the ServeHTTP time of the chunk POSTs
	// (stream, untraced): the traced pass splits it into decode and
	// ingest.
	handlerUS float64
	handlerN  int

	// virtual holds the first repetition's virtual-clock results, which
	// every later repetition must match; layer holds the last
	// repetition's per-layer counters (work counts and ratios read from
	// the program's own accounting).
	virtual map[string]float64
	layer   map[string]float64

	attempted int
	errors    []string

	heapPeak   uint64
	allocBytes uint64
	gcCPU      float64
	totalCPU   float64

	// Counter readings at the start of the current timed phase.
	t0      time.Time
	ev0     int64
	a0      uint64
	gc0     float64
	cpu0    float64
	samples []metrics.Sample
}

const (
	mHeapLive = iota
	mAllocs
	mGCCPU
	mTotalCPU
)

func newPass(tr *tracer, heapBase uint64) *pass {
	return &pass{
		tr: tr, heapBase: heapBase, heapPeak: heapBase, layer: map[string]float64{},
		samples: []metrics.Sample{
			{Name: "/gc/heap/live:bytes"},
			{Name: "/gc/heap/allocs:bytes"},
			{Name: "/cpu/classes/gc/total:cpu-seconds"},
			{Name: "/cpu/classes/total:cpu-seconds"},
		},
	}
}

// setup times one repetition's set-up.
func (p *pass) setup(fn func() error) error {
	t := time.Now()
	err := fn()
	p.setupS = append(p.setupS, time.Since(t).Seconds())
	return err
}

// begin and end bracket a timed phase; the runtime counters cover
// exactly the timed phases.
func (p *pass) begin() {
	metrics.Read(p.samples)
	p.a0 = p.samples[mAllocs].Value.Uint64()
	p.gc0 = p.samples[mGCCPU].Value.Float64()
	p.cpu0 = p.samples[mTotalCPU].Value.Float64()
	p.ev0 = p.events
	p.t0 = time.Now()
}

func (p *pass) end() {
	d := time.Since(p.t0).Seconds()
	p.wallS += d
	p.repRate = append(p.repRate, float64(p.events-p.ev0)/d)
	p.repP50 = append(p.repP50, quantile(p.chunkMS, 0.50))
	p.repP99 = append(p.repP99, quantile(p.chunkMS, 0.99))
	p.chunkMS = p.chunkMS[:0]
	if len(p.createMS) > 0 {
		p.repCreateP50 = append(p.repCreateP50, quantile(p.createMS, 0.50))
		p.repCreateP90 = append(p.repCreateP90, quantile(p.createMS, 0.90))
		p.createMS = p.createMS[:0]
	}
	metrics.Read(p.samples)
	p.allocBytes += p.samples[mAllocs].Value.Uint64() - p.a0
	p.gcCPU += p.samples[mGCCPU].Value.Float64() - p.gc0
	p.totalCPU += p.samples[mTotalCPU].Value.Float64() - p.cpu0
	p.observeHeap()
}

// observeHeap folds the live heap the last GC marked into the peak.
// Called after every operation, it tracks the largest heap any GC
// cycle found live during the run.
func (p *pass) observeHeap() {
	metrics.Read(p.samples[:1])
	if v := p.samples[mHeapLive].Value.Uint64(); v > p.heapPeak {
		p.heapPeak = v
	}
}

// foldVirtual keeps the first repetition's virtual results and checks
// every later repetition against them: the inputs are identical and
// the servers run on the virtual clock.
func (p *pass) foldVirtual(v map[string]float64) {
	if p.virtual == nil {
		p.virtual = v
		return
	}
	diff := virtualDiff(p.virtual, v)
	p.check(len(diff) == 0, "virtual results differ across repetitions of one seed (rep %d): %s",
		p.reps+1, strings.Join(diff, "; "))
}

// virtualDiff lists the virtual results of got that differ from ref.
func virtualDiff(ref, got map[string]float64) []string {
	var diff []string
	for _, k := range sortedKeys(ref) {
		if got[k] != ref[k] {
			diff = append(diff, fmt.Sprintf("%s %v vs %v", k, ref[k], got[k]))
		}
	}
	return diff
}

// check records one attempted operation or correctness check, and a
// failure message when ok is false.
func (p *pass) check(ok bool, format string, args ...any) {
	p.attempted++
	if !ok {
		msg := fmt.Sprintf(format, args...)
		if p.tr != nil {
			msg = "traced: " + msg
		}
		p.errors = append(p.errors, msg)
	}
}

// settleHeap collects garbage and returns the live heap: the bytes the
// pre-generated inputs (and the runtime) hold before a pass starts.
func settleHeap() uint64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// quantile returns the nearest-rank q-quantile of xs (sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

func median(xs []float64) float64 {
	c := append([]float64(nil), xs...)
	return quantile(c, 0.5)
}

func geomean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// prom is a parsed Prometheus text exposition: metric name to samples.
type prom map[string][]promSample

type promSample struct {
	labels map[string]string
	value  float64
}

// parseProm reads the text format the servers' /metrics renders.
func parseProm(text string) (prom, error) {
	out := prom{}
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("metrics line %q has no value", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		name, labels := line[:sp], map[string]string{}
		if i := strings.IndexByte(name, '{'); i >= 0 {
			for _, kv := range strings.Split(strings.TrimSuffix(name[i+1:], "}"), ",") {
				if k, val, ok := strings.Cut(kv, "="); ok {
					labels[k] = strings.Trim(val, `"`)
				}
			}
			name = name[:i]
		}
		out[name] = append(out[name], promSample{labels, v})
	}
	return out, sc.Err()
}

// sum adds every sample of a metric whose labels include match.
func (m prom) sum(name string, match ...string) float64 {
	var s float64
	for _, smp := range m[name] {
		if smp.has(match...) {
			s += smp.value
		}
	}
	return s
}

// max returns the largest sample of a metric whose labels include match.
func (m prom) max(name string, match ...string) float64 {
	var best float64
	for _, smp := range m[name] {
		if smp.has(match...) && smp.value > best {
			best = smp.value
		}
	}
	return best
}

func (s promSample) has(kv ...string) bool {
	for i := 0; i+1 < len(kv); i += 2 {
		if s.labels[kv[i]] != kv[i+1] {
			return false
		}
	}
	return true
}

// fingerprint identifies the host and the code a result was measured on.
type fingerprint struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
}

func hostFingerprint() fingerprint {
	return fingerprint{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		Commit:     gitCommit(),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit reads HEAD from the checkout's .git directory, if any.
func gitCommit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(".git/packed-refs"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
				return sha
			}
		}
	}
	return "unknown"
}
