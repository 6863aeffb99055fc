package serve

import (
	"encoding/json"
	"math/rand"
	"os"
	"testing"

	"evedge/internal/e2sf"
	"evedge/internal/events"
	"evedge/internal/mem"
	"evedge/internal/nn"
	"evedge/internal/par"
	"evedge/internal/scene"
	"evedge/internal/sparse"
)

// allocHarness is the steady-state serving loop the zero-alloc gate
// measures: one DSFA-level session on a ManualDrain server, fed the
// same pre-generated event chunk over and over with its timestamps
// shifted forward in place each cycle. After warm-up every buffer in
// the chain — fused E2SF grids, pooled frames, invocation structs,
// sched request scratch, dispatch merge scratch — has reached its
// steady capacity, so one more cycle should allocate nothing.
type allocHarness struct {
	srv   *Server
	id    string
	chunk *events.Stream
	// span is the chunk's duration; each cycle advances every event
	// timestamp by span so stream time stays monotonic.
	span int64
}

func newAllocHarness(tb testing.TB) *allocHarness {
	tb.Helper()
	cfg := DefaultConfig()
	cfg.ManualDrain = true
	srv, err := New(cfg)
	if err != nil {
		tb.Fatalf("New: %v", err)
	}
	sess, err := srv.CreateSession(SessionConfig{Network: nn.SpikeFlowNet, Level: 2})
	if err != nil {
		tb.Fatalf("CreateSession: %v", err)
	}
	net := nn.MustByName(nn.SpikeFlowNet)
	seq, err := scene.NewSequence(net.Input.Preset, scene.Half, 11)
	if err != nil {
		tb.Fatalf("NewSequence: %v", err)
	}
	const span = 20_000
	chunk, err := seq.Generate(span)
	if err != nil {
		tb.Fatalf("Generate: %v", err)
	}
	if chunk.Len() == 0 {
		tb.Fatal("empty template chunk")
	}
	return &allocHarness{srv: srv, id: sess.ID, chunk: chunk, span: span}
}

// cycle is one steady-state serving iteration: advance the template
// chunk one span and run it through ingest → convert → schedule →
// dispatch → complete → release.
func (h *allocHarness) cycle(tb testing.TB) {
	for i := range h.chunk.Events {
		h.chunk.Events[i].TS += h.span
	}
	if _, err := h.srv.Ingest(h.id, h.chunk); err != nil {
		tb.Fatalf("Ingest: %v", err)
	}
	h.srv.Pump()
}

// TestAllocRegression is the CI gate for hot-path allocation creep:
// after warm-up, a full ingest→execute→dispatch→release cycle must
// not allocate at all. Anything nonzero means a pooled buffer leaked
// back to the garbage collector — find it with
// `go test -run '^$' -bench BenchmarkServeCycle -benchmem ./internal/serve`
// and a memory profile before loosening this bound.
func TestAllocRegression(t *testing.T) {
	h := newAllocHarness(t)
	defer h.srv.Close()
	for i := 0; i < 12; i++ {
		h.cycle(t)
	}
	avg := testing.AllocsPerRun(50, func() { h.cycle(t) })
	if raceEnabled {
		// The race detector's instrumentation allocates on its own;
		// under -race this test still drives the full pooled cycle (so
		// the detector sees every arena handoff) but the zero bound is
		// only meaningful in a plain build.
		t.Logf("race build: measured %.2f allocs/op (bound not enforced)", avg)
		return
	}
	if avg != 0 {
		t.Fatalf("steady-state serve cycle allocates: got %.2f allocs/op, want 0", avg)
	}
}

// BenchmarkServeCycle is the -benchmem view of the same loop, for
// debugging when TestAllocRegression trips.
func BenchmarkServeCycle(b *testing.B) {
	h := newAllocHarness(b)
	defer h.srv.Close()
	for i := 0; i < 12; i++ {
		h.cycle(b)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.cycle(b)
	}
}

// allocStage is one row of BENCH_alloc.json.
type allocStage struct {
	Stage       string  `json:"stage"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

func benchStage(name string, f func(b *testing.B)) allocStage {
	r := testing.Benchmark(f)
	return allocStage{
		Stage:       name,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
}

// allocDenseInput mirrors the sparse package's benchmark input: a
// tensor with ~density fraction of active sites.
func allocDenseInput(c, h, w int, density float64) *sparse.Tensor {
	rng := rand.New(rand.NewSource(42))
	in := sparse.NewTensor(c, h, w)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if rng.Float64() < density {
				for ch := 0; ch < c; ch++ {
					in.Set(ch, y, x, rng.Float32())
				}
			}
		}
	}
	return in
}

func allocFilter(outC, inC, k int) *sparse.Filter {
	rng := rand.New(rand.NewSource(7))
	f := sparse.NewFilter(outC, inC, k, 1, k/2)
	for i := range f.Weights {
		f.Weights[i] = rng.Float32() - 0.5
	}
	return f
}

// collectAllocStages measures every hot-path stage, each kernel on a
// nil pool and on a worker pool. Shared by the artifact emitter
// (TestAllocBenchJSON) and the regression gate (TestAllocSmoke).
func collectAllocStages(t *testing.T) []allocStage {
	// E2SF conversion: the fused one-pass kernel drawing its frames
	// from a pool, over a synthetic chunk.
	const span = 100_000
	seq, err := scene.NewSequence(scene.IndoorFlying2, scene.Half, 3)
	if err != nil {
		t.Fatalf("NewSequence: %v", err)
	}
	stream, err := seq.Generate(span)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	cfg := e2sf.Config{Width: stream.Width, Height: stream.Height, NumBins: 5}
	stages := []allocStage{
		benchStage("e2sf_convert_fused_pooled", func(b *testing.B) {
			pool := mem.NewFramePool()
			fz, err := e2sf.NewFused(cfg, pool)
			if err != nil {
				b.Fatal(err)
			}
			var frames []*sparse.Frame
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				frames, err = fz.ConvertGroupedAppend(frames[:0], stream, 0, span, 1)
				if err != nil {
					b.Fatal(err)
				}
				for _, f := range frames {
					pool.Put(f)
				}
			}
		}),
	}

	// Sparse kernels with a nil pool (the serial body over all rows)
	// and on a warm worker pool: after the first dispatch the pool's
	// free-listed dispatch records and sync.Pool'd task structs are at
	// steady capacity, so pooled runs must allocate exactly as much as
	// serial ones — nothing.
	in := allocDenseInput(2, 64, 64, 0.05)
	f := allocFilter(8, 2, 3)
	oh, ow := f.OutShape(in.H, in.W)
	as := sparse.NewActiveSet(in.H, in.W, f.K)
	as.BuildFromTensor(in, f.K)
	pool := par.New(4)
	t.Cleanup(pool.Close)
	stages = append(stages,
		kernelStage("sparse_conv2d_into", nil, sparse.NewTensor(f.OutC, oh, ow),
			func(out *sparse.Tensor, p *par.Pool) error { return sparse.SparseConv2D(out, in, f, p) }),
		kernelStage("submanifold_conv2d_into", nil, sparse.NewTensor(f.OutC, in.H, in.W),
			func(out *sparse.Tensor, p *par.Pool) error { return sparse.SubmanifoldConv2D(out, in, f, p) }),
		kernelStage("sparse_conv2d_tiled", pool, sparse.NewTensor(f.OutC, oh, ow),
			func(out *sparse.Tensor, p *par.Pool) error { return sparse.SparseConv2D(out, in, f, p) }),
		kernelStage("submanifold_conv2d_tiled", pool, sparse.NewTensor(f.OutC, in.H, in.W),
			func(out *sparse.Tensor, p *par.Pool) error { return sparse.SubmanifoldConv2D(out, in, f, p) }),
		kernelStage("submanifold_sites", nil, sparse.NewTensor(f.OutC, in.H, in.W),
			func(out *sparse.Tensor, p *par.Pool) error { return sparse.SubmanifoldConv2DSites(out, in, f, as, p) }),
		benchStage("rulebook_observe", func(b *testing.B) {
			// Two drifted frames alternating: every Observe after warm-up
			// takes the delta path with buffers at steady capacity.
			fa, fb := sparse.NewFrame(64, 64, 0, 1), sparse.NewFrame(64, 64, 0, 1)
			rng := rand.New(rand.NewSource(4))
			for i := 0; i < 200; i++ {
				y, x := int32(rng.Intn(64)), int32(rng.Intn(63))
				fa.Set(y, x, 1, 0)
				fb.Set(y, x+1, 0, 1)
			}
			c := sparse.NewRulebookCache(3, 0)
			c.Observe(fa)
			c.Observe(fb)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%2 == 0 {
					c.Observe(fa)
				} else {
					c.Observe(fb)
				}
			}
		}),
	)

	// CSR SpMM over a synthetic 5% dense 512x256 matrix.
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
	stages = append(stages,
		kernelStage("csr_spmm_into", nil, sparse.NewMat(rows, dcols),
			func(out *sparse.Mat, p *par.Pool) error { return csr.SpMM(out, dmat, p) }),
		kernelStage("csr_spmm_tiled", pool, sparse.NewMat(rows, dcols),
			func(out *sparse.Mat, p *par.Pool) error { return csr.SpMM(out, dmat, p) }),
	)

	// The end-to-end serving cycle — the number TestAllocRegression
	// pins to zero.
	stages = append(stages, benchStage("serve_ingest_pump", func(b *testing.B) {
		h := newAllocHarness(b)
		defer h.srv.Close()
		for i := 0; i < 12; i++ {
			h.cycle(b)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.cycle(b)
		}
	}))

	return stages
}

// kernelStage measures one kernel call writing into out on pool, after
// a warm-up call.
func kernelStage[T any](name string, pool *par.Pool, out T, run func(out T, pool *par.Pool) error) allocStage {
	return benchStage(name, func(b *testing.B) {
		if err := run(out, pool); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := run(out, pool); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// allocDoc is the BENCH_alloc.json schema.
type allocDoc struct {
	Stages []allocStage `json:"stages"`
}

// TestAllocBenchJSON emits BENCH_alloc.json: allocs/op, bytes/op and
// ns/op for each hot-path stage. Run via `make bench-json`.
func TestAllocBenchJSON(t *testing.T) {
	path := os.Getenv("BENCH_ALLOC_JSON")
	if path == "" {
		t.Skip("set BENCH_ALLOC_JSON=<path> to emit the alloc benchmark artifact")
	}
	doc := allocDoc{Stages: collectAllocStages(t)}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatalf("write %s: %v", path, err)
	}
	t.Logf("wrote %s (%d stages)", path, len(doc.Stages))
}

// TestAllocSmoke is the bench-smoke regression gate: re-measure every
// stage and fail if any stage's allocs/op regressed more than 10%
// against the committed BENCH_alloc.json baseline (zero-baseline
// stages must stay at zero — 10% of nothing is nothing). Run it
// BEFORE bench-json in CI, while the baseline file is still the
// committed one. Run via `make bench-smoke`.
func TestAllocSmoke(t *testing.T) {
	path := os.Getenv("BENCH_ALLOC_BASELINE")
	if path == "" {
		t.Skip("set BENCH_ALLOC_BASELINE=<committed BENCH_alloc.json> to run the alloc regression gate")
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read baseline: %v", err)
	}
	var base allocDoc
	if err := json.Unmarshal(raw, &base); err != nil {
		t.Fatalf("parse baseline: %v", err)
	}
	baseline := make(map[string]allocStage, len(base.Stages))
	for _, s := range base.Stages {
		baseline[s.Stage] = s
	}
	for _, got := range collectAllocStages(t) {
		want, ok := baseline[got.Stage]
		if !ok {
			t.Logf("%s: no baseline (new stage), measured %d allocs/op", got.Stage, got.AllocsPerOp)
			continue
		}
		// Integer ceiling of 1.1x: a 0-alloc baseline admits 0, a
		// 124-alloc baseline admits 136.
		limit := want.AllocsPerOp + want.AllocsPerOp/10
		if got.AllocsPerOp > limit {
			t.Errorf("%s: allocs/op regressed %d -> %d (limit %d, +10%%)",
				got.Stage, want.AllocsPerOp, got.AllocsPerOp, limit)
			continue
		}
		t.Logf("%s: %d allocs/op (baseline %d, limit %d)", got.Stage, got.AllocsPerOp, want.AllocsPerOp, limit)
	}
}
