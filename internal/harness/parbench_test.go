package harness

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"testing"

	"evedge/internal/nn"
	"evedge/internal/par"
	"evedge/internal/pipeline"
	"evedge/internal/scene"
	"evedge/internal/sparse"
)

// BENCH_par.json: the core-scaling artifact for the pooled sparse
// kernels and the rulebook cache. Wall-clock numbers are measured on
// whatever box runs this (host_cpus records how many cores it really
// had); speedups at core counts the host does not have are explicit
// work-span projections, never presented as measurements.

// parTile is one (cpus) column of a kernel's scaling row.
type parTile struct {
	CPUs   int `json:"cpus"`
	Shards int `json:"shards"`
	// MeasuredNsPerOp is the pooled kernel's wall time on THIS host —
	// on a host with fewer cores than CPUs it measures dispatch
	// overhead on top of serialized shard execution, not speedup.
	MeasuredNsPerOp float64 `json:"measured_wall_ns_per_op"`
	// ProjectedNsPerOp = max(work/cpus, span) + dispatch overhead,
	// where work is the measured serial kernel time, span the largest
	// shard's share of it, and the overhead is the measured cost of an
	// empty dispatch on a pool of this width.
	ProjectedNsPerOp float64 `json:"projected_ns_per_op"`
	ProjectedSpeedup float64 `json:"projected_speedup"`
}

// parKernelRow is one kernel's serial baseline plus its scaling tiles.
type parKernelRow struct {
	Kernel        string    `json:"kernel"`
	Shape         string    `json:"shape"`
	Units         int       `json:"units"` // rows the kernel's body is split over
	SerialNsPerOp float64   `json:"serial_ns_per_op"`
	Tiles         []parTile `json:"tiles"`
}

// parRulebookRow is one workload's rulebook-cache traffic.
type parRulebookRow struct {
	Workload       string  `json:"workload"`
	Frames         uint64  `json:"frames"`
	Hits           uint64  `json:"hits"`
	Misses         uint64  `json:"misses"`
	HitRate        float64 `json:"hit_rate"`
	SitesCarried   uint64  `json:"sites_carried"`
	SitesNew       uint64  `json:"sites_new"`
	SavedScanElems uint64  `json:"saved_scan_elems"`
}

type parBenchDoc struct {
	HostCPUs        int              `json:"host_cpus"`
	ProjectionModel string           `json:"projection_model"`
	Kernels         []parKernelRow   `json:"kernels"`
	Rulebook        []parRulebookRow `json:"rulebook"`
}

// noopTask measures the pure cost of a pool dispatch.
type noopTask struct{}

func (noopTask) RunShard(int, int, *par.Scratch) {}

func benchNs(f func(b *testing.B)) float64 {
	r := testing.Benchmark(f)
	return float64(r.T.Nanoseconds()) / float64(r.N)
}

// parBenchInput builds the dense-tensor workload shared by the conv
// kernels: ~density of 128x128 sites active across 2 channels.
func parBenchInput() (*sparse.Tensor, *sparse.Filter) {
	rng := rand.New(rand.NewSource(42))
	in := sparse.NewTensor(2, 128, 128)
	for y := 0; y < in.H; y++ {
		for x := 0; x < in.W; x++ {
			if rng.Float64() < 0.05 {
				for c := 0; c < in.C; c++ {
					in.Set(c, y, x, rng.Float32())
				}
			}
		}
	}
	f := sparse.NewFilter(8, 2, 3, 1, 1)
	for i := range f.Weights {
		f.Weights[i] = rng.Float32() - 0.5
	}
	return in, f
}

// projectTile computes the work-span projection for c cores: shards
// split units with the same even contiguous partition the kernels use, the
// largest shard bounds the span, and the measured empty-dispatch cost
// is added on top.
func projectTile(serialNs float64, units, cpus, shards int, overheadNs float64) float64 {
	maxShard := 0
	for s := 0; s < shards; s++ {
		lo, hi := s*units/shards, (s+1)*units/shards
		if hi-lo > maxShard {
			maxShard = hi - lo
		}
	}
	span := serialNs * float64(maxShard) / float64(units)
	ideal := serialNs / float64(cpus)
	if span > ideal {
		ideal = span
	}
	return ideal + overheadNs
}

var parBenchCPUs = []int{1, 2, 4, 8}

// kernelScaling measures one kernel on a nil pool and on pools of
// each width in parBenchCPUs, then fills in the projections.
func kernelScaling(t *testing.T, name, shape string, units int, run func(pool *par.Pool) error) parKernelRow {
	t.Helper()
	bench := func(pool *par.Pool) func(b *testing.B) {
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := run(pool); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	row := parKernelRow{Kernel: name, Shape: shape, Units: units}
	row.SerialNsPerOp = benchNs(bench(nil))
	for _, c := range parBenchCPUs {
		pool := par.New(c)
		// The kernels split their rows into 2 x width ranges.
		shards := min(2*c, units)
		overhead := 0.0
		if c > 1 {
			overhead = benchNs(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					pool.Run(shards, noopTask{})
				}
			})
		}
		tile := parTile{
			CPUs:             c,
			Shards:           shards,
			MeasuredNsPerOp:  benchNs(bench(pool)),
			ProjectedNsPerOp: projectTile(row.SerialNsPerOp, units, c, shards, overhead),
		}
		tile.ProjectedSpeedup = row.SerialNsPerOp / tile.ProjectedNsPerOp
		row.Tiles = append(row.Tiles, tile)
		pool.Close()
	}
	return row
}

// sceneRulebook observes a preset scene's E2SF frames (the offline
// pipeline's conversion for network) through a rulebook cache.
func sceneRulebook(t *testing.T, network string) parRulebookRow {
	t.Helper()
	net := nn.MustByName(network)
	seq, err := scene.NewSequence(net.Input.Preset, scene.Half, 17)
	if err != nil {
		t.Fatalf("NewSequence: %v", err)
	}
	const dur = 400_000
	stream, err := seq.Generate(dur)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	frames, _, err := pipeline.ConvertStream(net, stream, dur)
	if err != nil {
		t.Fatalf("ConvertStream: %v", err)
	}
	cache := sparse.NewRulebookCache(3, 0)
	var saved uint64
	for _, f := range frames {
		as, _ := cache.Observe(f)
		saved += uint64(f.H*f.W - as.Sites())
	}
	st := cache.Stats()
	return parRulebookRow{
		Workload: "scene/" + network, Frames: st.Frames, Hits: st.Hits, Misses: st.Misses,
		HitRate: st.HitRate(), SitesCarried: st.SitesCarried, SitesNew: st.SitesNew,
		SavedScanElems: saved,
	}
}

// TestParBenchJSON emits BENCH_par.json (skipped unless BENCH_PAR_JSON
// is set — `make bench-json` is the entry point) and asserts its two
// contracts: >= 2x projected kernel speedup at 4 cores, and a >= 50%
// rulebook hit rate on steady coherent scene traffic.
func TestParBenchJSON(t *testing.T) {
	path := os.Getenv("BENCH_PAR_JSON")
	if path == "" {
		t.Skip("set BENCH_PAR_JSON=<path> to emit the core-scaling benchmark artifact")
	}
	doc := parBenchDoc{
		HostCPUs: runtime.NumCPU(),
		ProjectionModel: "projected_ns = max(serial_ns/cpus, serial_ns*max_shard_fraction) + measured_empty_dispatch_ns; " +
			"measured_wall_ns is real wall time on this host and shows speedup only when host_cpus >= cpus",
	}

	// --- Kernel scaling ---
	in, f := parBenchInput()
	oh, ow := f.OutShape(in.H, in.W)
	outSub := sparse.NewTensor(f.OutC, in.H, in.W)
	outConv := sparse.NewTensor(f.OutC, oh, ow)
	doc.Kernels = append(doc.Kernels,
		kernelScaling(t, "submanifold_conv2d", "8x2x128x128 k=3 d=5%", in.H,
			func(pool *par.Pool) error { return sparse.SubmanifoldConv2D(outSub, in, f, pool) }),
		kernelScaling(t, "sparse_conv2d", "8x2x128x128 k=3 d=5%", oh,
			func(pool *par.Pool) error { return sparse.SparseConv2D(outConv, in, f, pool) }),
		kernelScaling(t, "conv2d", "8x2x128x128 k=3", f.OutC*oh,
			func(pool *par.Pool) error { return sparse.Conv2D(outConv, in, f, pool) }),
	)

	rng := rand.New(rand.NewSource(9))
	var entries []sparse.COOEntry
	const rows, cols, dcols = 512, 256, 16
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if rng.Float64() < 0.05 {
				entries = append(entries, sparse.COOEntry{Row: int32(r), Col: int32(c), Val: rng.Float32()})
			}
		}
	}
	csr, err := sparse.NewCSR(rows, cols, entries)
	if err != nil {
		t.Fatalf("NewCSR: %v", err)
	}
	dmat := sparse.NewMat(cols, dcols)
	for i := range dmat.Data {
		dmat.Data[i] = rng.Float32()
	}
	outMat := sparse.NewMat(rows, dcols)
	doc.Kernels = append(doc.Kernels,
		kernelScaling(t, "csr_spmm", "512x256 d=5% x 256x16", rows,
			func(pool *par.Pool) error { return csr.SpMM(outMat, dmat, pool) }),
	)

	for _, k := range doc.Kernels {
		for _, tile := range k.Tiles {
			if tile.CPUs == 4 && tile.ProjectedSpeedup < 2 {
				t.Errorf("%s: projected speedup at 4 cores %.2fx < 2x (serial %.0fns, projected %.0fns)",
					k.Kernel, tile.ProjectedSpeedup, k.SerialNsPerOp, tile.ProjectedNsPerOp)
			}
		}
	}

	// --- Rulebook cache on E2SF scene frames ---
	for _, network := range []string{nn.DOTIE, nn.SpikeFlowNet} {
		doc.Rulebook = append(doc.Rulebook, sceneRulebook(t, network))
	}
	// Steady coherent scene traffic (DOTIE tracks a spinning target at
	// 1ms bins) must ride the delta path at least half the time.
	if doc.Rulebook[0].HitRate < 0.5 {
		t.Errorf("steady scene rulebook hit rate %.2f < 0.5: %+v", doc.Rulebook[0].HitRate, doc.Rulebook[0])
	}

	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	fmt.Printf("bench-par: host_cpus=%d, %s serial %.0fns, projected 4-core speedup %.2fx, steady scene hit rate %.2f -> %s\n",
		doc.HostCPUs, doc.Kernels[0].Kernel, doc.Kernels[0].SerialNsPerOp,
		doc.Kernels[0].Tiles[2].ProjectedSpeedup, doc.Rulebook[0].HitRate, path)
}
