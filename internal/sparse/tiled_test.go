package sparse

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"evedge/internal/par"
)

// bitsEqual asserts exact bit equality (including zero signs and NaN
// payloads) between two same-length float32 slices.
func bitsEqual(t *testing.T, tag string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d != %d", tag, len(got), len(want))
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: element %d = %x (%g), serial %x (%g)",
				tag, i, math.Float32bits(got[i]), got[i], math.Float32bits(want[i]), want[i])
		}
	}
}

// kernelCase is one randomized call of every kernel: the tasks hold
// dirty outputs, and want holds the matching nil-pool results.
type kernelCase struct {
	tasks []rowTask
	want  [][]float32
}

// outData returns the output buffer a task writes.
func (t *rowTask) outData() []float32 {
	if t.body == bodySpMM {
		return t.mout.Data
	}
	return t.out.Data
}

// randKernelCase draws shapes, densities and filters (negative weights
// and biases make cancellation, hence accumulation-order sensitivity,
// likely) and runs every kernel through its nil-pool entry point.
func randKernelCase(t *testing.T, r *rand.Rand) kernelCase {
	t.Helper()
	inC, outC := 1+r.Intn(4), 1+r.Intn(5)
	h, w := 5+r.Intn(28), 5+r.Intn(28)
	in := NewTensor(inC, h, w)
	in.FillRandomSparse(r, []float64{0.01, 0.1, 0.5, 1.0}[r.Intn(4)])
	var c kernelCase
	add := func(task rowTask, run func() error) {
		if err := run(); err != nil {
			t.Fatal(err)
		}
		c.want = append(c.want, append([]float32(nil), task.outData()...))
		dirty := task.outData()
		for i := range dirty {
			dirty[i] = r.Float32() // every body must overwrite its rows fully
		}
		c.tasks = append(c.tasks, task)
	}

	// Dense direct + gather-scatter conv share a filter; stride and pad
	// vary.
	k := 1 + r.Intn(4)
	f := randFilter(r, outC, inC, k, 1+r.Intn(2), r.Intn(k))
	if oh, ow := f.OutShape(h, w); oh > 0 && ow > 0 {
		out := NewTensor(outC, oh, ow)
		add(rowTask{body: bodyConv, rows: outC * oh, out: out, in: in, f: f},
			func() error { return Conv2D(out, in, f, nil) })
		out2 := NewTensor(outC, oh, ow)
		add(rowTask{body: bodySparseConv, rows: oh, out: out2, in: in, f: f},
			func() error { return SparseConv2D(out2, in, f, nil) })
	}

	// Submanifold scan and rulebook kernels: stride 1, odd K, pad K/2.
	ks := []int{1, 3, 5}[r.Intn(3)]
	fs := randFilter(r, outC, inC, ks, 1, ks/2)
	outS := NewTensor(outC, h, w)
	add(rowTask{body: bodySubmanifold, rows: h, out: outS, in: in, f: fs},
		func() error { return SubmanifoldConv2D(outS, in, fs, nil) })
	as := NewActiveSet(h, w, ks)
	as.BuildFromTensor(in, ks)
	outA := NewTensor(outC, h, w)
	add(rowTask{body: bodySites, rows: h, out: outA, in: in, f: fs, as: as},
		func() error { return SubmanifoldConv2DSites(outA, in, fs, as, nil) })

	// SpMM over a random CSR.
	rows, cols, dcols := 2+r.Intn(40), 2+r.Intn(20), 1+r.Intn(16)
	var entries []COOEntry
	for i := 0; i < rows*cols/3; i++ {
		entries = append(entries, COOEntry{
			Row: int32(r.Intn(rows)), Col: int32(r.Intn(cols)), Val: r.Float32()*2 - 1,
		})
	}
	m, err := NewCSR(rows, cols, entries)
	if err != nil {
		t.Fatal(err)
	}
	d := NewMat(cols, dcols)
	for i := range d.Data {
		d.Data[i] = r.Float32()*2 - 1
	}
	outM := NewMat(rows, dcols)
	add(rowTask{body: bodySpMM, rows: rows, m: m, d: d, mout: outM},
		func() error { return m.SpMM(outM, d, nil) })
	return c
}

// runPooled calls a task's exported entry point on pool.
func runPooled(t *testing.T, task rowTask, pool *par.Pool) {
	t.Helper()
	var err error
	switch task.body {
	case bodyConv:
		err = Conv2D(task.out, task.in, task.f, pool)
	case bodySparseConv:
		err = SparseConv2D(task.out, task.in, task.f, pool)
	case bodySubmanifold:
		err = SubmanifoldConv2D(task.out, task.in, task.f, pool)
	case bodySites:
		err = SubmanifoldConv2DSites(task.out, task.in, task.f, task.as, pool)
	case bodySpMM:
		err = task.m.SpMM(task.mout, task.d, pool)
	}
	if err != nil {
		t.Fatal(err)
	}
}

var bodyNames = [...]string{"Conv2D", "SparseConv2D", "SubmanifoldConv2D", "SubmanifoldConv2DSites", "SpMM"}

// TestTiledKernelsBitIdentical is the pool-width property test: over
// randomized shapes, densities and filters, every kernel run on a pool
// of width 2 through 8 must produce bit for bit its nil-pool output.
func TestTiledKernelsBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	var pools []*par.Pool
	for w := 2; w <= 8; w++ {
		pools = append(pools, par.New(w))
	}
	defer func() {
		for _, p := range pools {
			p.Close()
		}
	}()
	for trial := 0; trial < 25; trial++ {
		c := randKernelCase(t, r)
		for _, pool := range pools {
			for i, task := range c.tasks {
				runPooled(t, task, pool)
				bitsEqual(t, bodyNames[task.body], task.outData(), c.want[i])
				dirty := task.outData()
				for j := range dirty {
					dirty[j] = r.Float32()
				}
			}
		}
	}
}

// TestRowBodiesArbitraryPartitions runs each row-range body directly
// over 3, 5 and 7 uneven ranges covering all rows, in a shuffled
// order; the result must match one full-range run bit for bit, so no
// body depends on how (or in what order) the rows are split.
func TestRowBodiesArbitraryPartitions(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	for trial := 0; trial < 25; trial++ {
		c := randKernelCase(t, r)
		for i, task := range c.tasks {
			for _, parts := range []int{3, 5, 7} {
				// parts-1 random cut points (duplicates allowed: empty
				// ranges must be harmless too).
				cuts := []int{0, task.rows}
				for j := 1; j < parts; j++ {
					cuts = append(cuts, r.Intn(task.rows+1))
				}
				sort.Ints(cuts)
				for _, j := range r.Perm(parts) {
					task.run(cuts[j], cuts[j+1])
				}
				bitsEqual(t, bodyNames[task.body], task.outData(), c.want[i])
				dirty := task.outData()
				for j := range dirty {
					dirty[j] = r.Float32()
				}
			}
		}
	}
}

// TestTiledSerialFallbacks: a nil pool, a width-1 pool, or deconv must
// take the serial path and still be correct.
func TestTiledSerialFallbacks(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	in := NewTensor(2, 9, 9)
	in.FillRandomSparse(r, 0.3)
	f := randFilter(r, 3, 2, 3, 1, 1)

	want, err := Im2colConv2D(in, f)
	if err != nil {
		t.Fatal(err)
	}
	got := NewTensor(3, 9, 9)
	if err := Conv2D(got, in, f, nil); err != nil {
		t.Fatal(err)
	}
	if d := MaxAbsDiff(got, want); d > 1e-4 {
		t.Fatalf("nil pool differs from im2col by %g", d)
	}

	one := par.New(1)
	defer one.Close()
	got2 := NewTensor(3, 9, 9)
	if err := Conv2D(got2, in, f, one); err != nil {
		t.Fatal(err)
	}
	bitsEqual(t, "width-1 pool", got2.Data, got.Data)

	// Deconv routes to the serial scatter on any pool.
	pool := par.New(4)
	defer pool.Close()
	fd := randFilter(r, 2, 2, 4, 2, 1)
	fd.Deconv = true
	wantD, err := newConv(Conv2D, in, fd)
	if err != nil {
		t.Fatal(err)
	}
	oh, ow := fd.OutShape(9, 9)
	gotD := NewTensor(2, oh, ow)
	if err := Conv2D(gotD, in, fd, pool); err != nil {
		t.Fatal(err)
	}
	bitsEqual(t, "deconv fallback", gotD.Data, wantD.Data)
	gotD2 := NewTensor(2, oh, ow)
	if err := SparseConv2D(gotD2, in, fd, pool); err != nil {
		t.Fatal(err)
	}
	bitsEqual(t, "sparse deconv fallback", gotD2.Data, wantD.Data)
}

// TestTiledShapeErrors: shape validation holds on the pooled path.
func TestTiledShapeErrors(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	pool := par.New(2)
	defer pool.Close()
	in := NewTensor(2, 8, 8)
	in.FillRandomSparse(r, 0.2)
	f := randFilter(r, 3, 2, 3, 1, 1)
	bad := NewTensor(3, 7, 8)
	if err := Conv2D(bad, in, f, pool); err == nil {
		t.Fatal("Conv2D accepted a mis-shaped output")
	}
	if err := SparseConv2D(bad, in, f, pool); err == nil {
		t.Fatal("SparseConv2D accepted a mis-shaped output")
	}
	if err := SubmanifoldConv2D(bad, in, f, pool); err == nil {
		t.Fatal("SubmanifoldConv2D accepted a mis-shaped output")
	}
	fbad := randFilter(r, 3, 2, 2, 1, 1) // even K: not submanifold-eligible
	good := NewTensor(3, 8, 8)
	if err := SubmanifoldConv2D(good, in, fbad, pool); err == nil {
		t.Fatal("SubmanifoldConv2D accepted an even kernel")
	}
	wrongC := NewTensor(3, 8, 8)
	fc := randFilter(r, 3, 4, 3, 1, 1)
	if err := Conv2D(wrongC, in, fc, pool); err == nil {
		t.Fatal("Conv2D accepted mismatched input channels")
	}

	m, err := NewCSR(4, 4, []COOEntry{{Row: 1, Col: 2, Val: 1}})
	if err != nil {
		t.Fatal(err)
	}
	dBad := NewMat(3, 2)
	outBad := NewMat(4, 2)
	if err := m.SpMM(outBad, dBad, pool); err == nil {
		t.Fatal("SpMM accepted a shape mismatch")
	}
	dOK := NewMat(4, 2)
	if err := m.SpMM(NewMat(3, 2), dOK, pool); err == nil {
		t.Fatal("SpMM accepted a mis-shaped output")
	}
}

// TestDeconvIntoParity: deconvolution into a dirty pooled-style output
// must match a fresh zeroed output bit for bit, with and without bias.
func TestDeconvIntoParity(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		inC := 1 + r.Intn(3)
		outC := 1 + r.Intn(4)
		h := 4 + r.Intn(12)
		w := 4 + r.Intn(12)
		in := NewTensor(inC, h, w)
		in.FillRandomSparse(r, []float64{0.05, 0.3, 1.0}[r.Intn(3)])
		k := 2 + r.Intn(3)
		stride := 1 + r.Intn(2)
		f := randFilter(r, outC, inC, k, stride, r.Intn(k))
		f.Deconv = true
		if trial%2 == 0 {
			f.Bias = nil // exercise the Zero() init path too
		}
		oh, ow := f.OutShape(h, w)
		if oh <= 0 || ow <= 0 {
			continue
		}
		want, err := newConv(Conv2D, in, f) // fresh zeroed output
		if err != nil {
			t.Fatal(err)
		}
		got := NewTensor(outC, oh, ow)
		got.FillRandom(r) // dirty, as a pooled tensor would be
		if err := Conv2D(got, in, f, nil); err != nil {
			t.Fatal(err)
		}
		bitsEqual(t, "deconv2D", got.Data, want.Data)
	}
}
