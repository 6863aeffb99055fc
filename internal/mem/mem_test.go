package mem

import (
	"testing"

	"evedge/internal/sparse"
)

func TestFramePoolReuse(t *testing.T) {
	p := NewFramePool()
	f := p.Get(4, 6, 10, 20)
	if f.H != 4 || f.W != 6 || f.T0 != 10 || f.T1 != 20 {
		t.Fatalf("Get geometry = %dx%d [%d,%d)", f.H, f.W, f.T0, f.T1)
	}
	f.Set(1, 2, 3, 4)
	p.Put(f)
	g := p.Get(8, 8, 30, 40)
	if g != f {
		t.Fatalf("expected recycled frame pointer")
	}
	if g.H != 8 || g.W != 8 || g.T0 != 30 || g.T1 != 40 || g.NNZ() != 0 {
		t.Fatalf("recycled frame not reset: %dx%d nnz=%d", g.H, g.W, g.NNZ())
	}
	st := p.Stats()
	if st.Gets != 2 || st.Puts != 1 || st.News != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Live() != 1 {
		t.Fatalf("live = %d", st.Live())
	}
}

func TestFramePoolDoubleReleasePanics(t *testing.T) {
	p := NewFramePool()
	f := p.Get(2, 2, 0, 1)
	p.Put(f)
	defer func() {
		if recover() == nil {
			t.Fatalf("double Put did not panic")
		}
	}()
	p.Put(f)
}

func TestFramePoolNilPutPanics(t *testing.T) {
	p := NewFramePool()
	defer func() {
		if recover() == nil {
			t.Fatalf("nil Put did not panic")
		}
	}()
	p.Put(nil)
}

func TestTensorPoolShapeKeyed(t *testing.T) {
	p := NewTensorPool()
	a := p.Get(2, 3, 4)
	b := p.Get(1, 5, 5)
	p.Put(a)
	p.Put(b)
	// Same shape hits the free list; different shape allocates fresh.
	if got := p.Get(2, 3, 4); got != a {
		t.Fatalf("same-shape Get did not recycle")
	}
	if got := p.Get(2, 9, 9); got == b {
		t.Fatalf("different-shape Get recycled wrong tensor")
	}
	z := p.GetZeroed(1, 5, 5)
	if z != b {
		t.Fatalf("GetZeroed did not recycle")
	}
	for _, v := range z.Data {
		if v != 0 {
			t.Fatalf("GetZeroed returned dirty tensor")
		}
	}
}

func TestTensorPoolDoubleReleasePanics(t *testing.T) {
	p := NewTensorPool()
	a := p.Get(1, 2, 2)
	p.Put(a)
	defer func() {
		if recover() == nil {
			t.Fatalf("double Put did not panic")
		}
	}()
	p.Put(a)
}

func TestMatPoolReuse(t *testing.T) {
	p := NewMatPool()
	m := p.Get(3, 4)
	p.Put(m)
	if got := p.Get(3, 4); got != m {
		t.Fatalf("same-shape Get did not recycle")
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("double Put did not panic")
		}
	}()
	p.Put(m)
	p.Put(m)
}

func TestCSRPoolResetsGeometry(t *testing.T) {
	p := NewCSRPool()
	m := p.Get(3, 5)
	if m.Rows != 3 || m.Cols != 5 || len(m.RowPtr) != 4 {
		t.Fatalf("fresh CSR geometry = %dx%d rowptr=%d", m.Rows, m.Cols, len(m.RowPtr))
	}
	m.ColIdx = append(m.ColIdx, 1)
	m.Vals = append(m.Vals, 2)
	m.RowPtr[1] = 1
	p.Put(m)
	g := p.Get(2, 2)
	if g != m {
		t.Fatalf("expected recycled CSR pointer")
	}
	if g.Rows != 2 || g.Cols != 2 || len(g.RowPtr) != 3 || g.NNZ() != 0 {
		t.Fatalf("recycled CSR not reset: %dx%d rowptr=%d nnz=%d", g.Rows, g.Cols, len(g.RowPtr), g.NNZ())
	}
	for i, v := range g.RowPtr {
		if v != 0 {
			t.Fatalf("RowPtr[%d] = %d after Reset", i, v)
		}
	}
}

func TestGenericPoolResetHook(t *testing.T) {
	type inv struct {
		frames []*sparse.Frame
		ready  float64
	}
	p := NewPool(func(x *inv) {
		x.frames = x.frames[:0]
		x.ready = 0
	})
	a := p.Get()
	a.frames = append(a.frames, sparse.NewFrame(1, 1, 0, 1))
	a.ready = 9
	p.Put(a)
	b := p.Get()
	if b != a {
		t.Fatalf("expected recycled object")
	}
	if len(b.frames) != 0 || b.ready != 0 {
		t.Fatalf("reset hook did not run: %+v", b)
	}
	if cap(b.frames) == 0 {
		t.Fatalf("reset hook lost slice capacity")
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("double Put did not panic")
		}
	}()
	p.Put(b)
	p.Put(b)
}

// TestSteadyStateZeroAlloc is the core contract: once warm, a
// Get/use/Put cycle against every pool type performs no heap
// allocation.
func TestSteadyStateZeroAlloc(t *testing.T) {
	a := NewArena()
	type req struct{ session string }
	gp := NewPool(func(r *req) { r.session = "" })

	// Warm every free list (and the tripwire maps) once.
	warm := func() {
		f := a.Frames.Get(16, 16, 0, 100)
		tn := a.Tensors.Get(2, 16, 16)
		m := a.Mats.Get(4, 4)
		c := a.CSRs.Get(4, 4)
		r := gp.Get()
		gp.Put(r)
		a.CSRs.Put(c)
		a.Mats.Put(m)
		a.Tensors.Put(tn)
		a.Frames.Put(f)
	}
	warm()

	if n := testing.AllocsPerRun(200, warm); n != 0 {
		t.Fatalf("steady-state pool cycle allocates %.1f allocs/op, want 0", n)
	}
}

func TestArenaStatsTotal(t *testing.T) {
	a := NewArena()
	f := a.Frames.Get(2, 2, 0, 1)
	tn := a.Tensors.Get(1, 2, 2)
	a.Frames.Put(f)
	a.Tensors.Put(tn)
	st := a.Stats()
	if st.Total.Gets != 2 || st.Total.Puts != 2 || st.Total.News != 2 {
		t.Fatalf("total = %+v", st.Total)
	}
	if st.Tensors.Gets != 1 {
		t.Fatalf("tensor stats = %+v", st.Tensors)
	}
}
