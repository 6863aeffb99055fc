// Command perfbench is the repository benchmark: it drives the public
// entry points of internal/serve, internal/cluster and
// internal/pipeline with one of three named workloads, checks that the
// outputs are correct, and prints every metric with its unit, clock
// and better-direction. The last line of standard output is the
// machine-readable result:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end set; with --trace 1 a
// second, traced pass records spans around the benchmark's calls into
// each layer and the metrics are the per-layer set (see README.md).
//
// Usage (from the module root of a checkout, via run.sh):
//
//	bash perfbench/run.sh --workload stream --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

// options is the parsed command line.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	tiny     bool // smoke-test input sizes
}

// workload is one named load shape. prepare synthesises its inputs
// (outside every timed window) and reports how many sensor-seconds it
// synthesised; rep runs one repetition — a timed set-up followed by a
// timed phase over identical inputs — and folds its measurements into
// the pass, whose tracer (nil when untraced) selects the load shape.
type workload struct {
	name    string
	why     string
	prepare func(o options) (in any, sensorS float64, err error)
	rep     func(in any, p *pass) error
}

var workloads = []workload{
	{
		name:    "stream",
		why:     "data plane: 8 level-2 sessions (2x DOTIE, HALSIE, SpikeFlowNet, HidalgoDepth) on one Xavier, 25 ms EVAR chunks via the handler, Pump per round; decode and fused E2SF dominate",
		prepare: prepareStream,
		rep:     repStream,
	},
	{
		name:    "churn",
		why:     "control plane: xavier+orin journaled fleet, level 3 with the NMP mapper; each iteration creates a session, streams 250 ms and closes the oldest, rerunning the NMP search",
		prepare: prepareChurn,
		rep:     repChurn,
	},
	{
		name:    "offline",
		why:     "paper-reproduction path: pipeline.Run for the 7 zoo networks at levels 0-3 on 1 s half-scale streams; the unfused E2SF converter dominates and no serving layer runs",
		prepare: prepareOffline,
		rep:     repOffline,
	},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes one benchmark invocation and returns the exit status:
// 0 on success, 1 when the benchmark failed or a correctness check
// failed, 2 on bad flags.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload: stream, churn or offline")
	fs.Int64Var(&o.seed, "seed", 1, "input seed (the same seed gives the same inputs)")
	fs.Float64Var(&o.seconds, "seconds", 10, "timed seconds per pass")
	traceFlag := fs.Int("trace", 0, "1 = add a traced pass and report per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = *traceFlag == 1
	var w *workload
	for i := range workloads {
		if workloads[i].name == o.workload {
			w = &workloads[i]
		}
	}
	if w == nil || o.seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload stream|churn|offline, --seconds > 0, --trace 0|1\n")
		return 2
	}
	return execute(w, o, stdout, stderr)
}

// execute runs one invocation with validated options and prints the
// report and result lines.
func execute(w *workload, o options, stdout, stderr io.Writer) int {
	fp := hostFingerprint()
	res, err := runWorkload(w, o)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	report := map[string]any{
		"workload": w.name, "why": w.why, "seed": o.seed, "host": fp,
		"reps": res.untraced.reps, "events": res.untraced.events, "timed_s": res.untraced.wallS,
		"metrics": res.report,
	}
	if res.closure != nil {
		report["closure"] = res.closure
	}
	for _, msg := range res.errors {
		fmt.Fprintln(stderr, "perfbench: check failed:", msg)
	}
	line, err := json.Marshal(report)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "report %s\n", line)
	out := map[string]any{
		"correct":   len(res.errors) == 0,
		"attempted": res.attempted,
		"failed":    len(res.errors),
		"metrics":   res.final,
	}
	line, err = json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if len(res.errors) > 0 {
		return 1
	}
	return 0
}

// outcome is everything one invocation measured.
type outcome struct {
	untraced, traced *pass
	attempted        int
	errors           []string
	// report holds every metric the invocation computed, annotated;
	// final holds the contract metrics of the last output line.
	report  metricSet
	final   map[string]finalValue
	closure map[string]any
}

// metric is one annotated value of the report line.
type metric struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Clock  string  `json:"clock"`
	Better string  `json:"better"`
}

type finalValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runWorkload synthesises the inputs, runs the untraced pass and, with
// --trace 1, the traced pass over the same inputs, then checks and
// derives the metrics.
func runWorkload(w *workload, o options) (*outcome, error) {
	t := time.Now()
	in, sensorS, err := w.prepare(o)
	if err != nil {
		return nil, fmt.Errorf("preparing %s inputs: %w", w.name, err)
	}
	genS := time.Since(t).Seconds()

	// A traced run splits its seconds between the untraced reference
	// pass (closure and overhead baselines) and the traced pass.
	seconds := o.seconds
	if o.trace {
		seconds /= 2
	}
	out := &outcome{}
	out.untraced, err = runPass(w, in, seconds, nil, settleHeap())
	if err != nil {
		return nil, err
	}
	if o.trace {
		tr := newTracer()
		out.traced, err = runPass(w, in, seconds, tr, settleHeap())
		if err != nil {
			return nil, err
		}
		if err := tr.dump(fmt.Sprintf(".bench_build/spans-%s-%d.json", o.workload, o.seed)); err != nil {
			return nil, err
		}
	}
	for _, p := range []*pass{out.untraced, out.traced} {
		if p == nil {
			continue
		}
		out.attempted += p.attempted
		out.errors = append(out.errors, p.errors...)
	}
	if out.traced != nil {
		// The traced pass runs the same inputs on the same virtual
		// clock, so its virtual results match the untraced ones.
		out.attempted++
		if diff := virtualDiff(out.untraced.virtual, out.traced.virtual); len(diff) > 0 {
			out.errors = append(out.errors, "virtual results differ between the untraced and traced passes: "+strings.Join(diff, "; "))
		}
	}
	out.report = endToEnd(out.untraced)
	out.report.set(reportOnlyDefs, "error_rate", float64(len(out.errors))/float64(max(out.attempted, 1)))
	if o.trace {
		layers, closure := perLayer(out.untraced, out.traced, genS/sensorS)
		for k, v := range layers {
			out.report[k] = v
		}
		out.closure = closure
		out.final = pick(out.report, perLayerNames)
	} else {
		out.final = pick(out.report, endToEndNames)
	}
	return out, nil
}

// runPass repeats the workload until the summed timed phases reach the
// requested seconds (at least two repetitions, so virtual results are
// compared across repetitions of one seed).
func runPass(w *workload, in any, seconds float64, tr *tracer, heapBase uint64) (*pass, error) {
	p := newPass(tr, heapBase)
	for p.reps < 2 || p.wallS < seconds {
		if err := w.rep(in, p); err != nil {
			return nil, fmt.Errorf("%s repetition %d: %w", w.name, p.reps+1, err)
		}
		p.reps++
	}
	return p, nil
}

func pick(all map[string]metric, names []string) map[string]finalValue {
	out := make(map[string]finalValue, len(names))
	for _, n := range names {
		m, ok := all[n]
		if !ok {
			panic("perfbench: metric " + n + " was never computed")
		}
		out[n] = finalValue{m.Value, m.Unit}
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
