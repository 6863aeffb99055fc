// Package mem is the serving hot path's memory-discipline layer:
// free-list pools for the objects the steady-state frame path churns
// through — sparse frames, dense tensors, matrices, CSR buffers, and
// (via the generic Pool) pipeline invocation and scheduler request
// structs. Borrowed objects keep their backing arrays across reuse, so
// after a short warm-up the ingest→E2SF→DSFA→dispatch cycle runs at
// zero allocations per frame (see serve's alloc-regression test).
//
// Every pool carries a double-release tripwire: Put panics loudly when
// handed an object that is already free. Use-after-release bugs in a
// pooled system otherwise surface as silent cross-session data
// corruption — a panic at the second Put is the cheap, debuggable
// failure mode.
//
// Pools are mutex-guarded and safe for concurrent use. The tripwire
// set is a map, but steady-state Put/Get pairs only insert and delete
// without growing it, which Go's map implementation does without
// allocating.
package mem

import (
	"sync"

	"evedge/internal/sparse"
)

// PoolStats counts one pool's traffic. News is the number of Gets that
// missed the free list and allocated; a steady-state hot path should
// hold News flat while Gets climbs.
type PoolStats struct {
	Gets uint64 `json:"gets"`
	Puts uint64 `json:"puts"`
	News uint64 `json:"news"`
}

// Live returns the number of objects currently borrowed.
func (s PoolStats) Live() uint64 { return s.Gets - s.Puts }

// add merges another snapshot (Arena totals).
func (s *PoolStats) add(o PoolStats) {
	s.Gets += o.Gets
	s.Puts += o.Puts
	s.News += o.News
}

// FramePool free-lists sparse frames. Get returns a frame with the
// requested geometry and time bounds whose channel slices are empty
// but keep the capacity of their previous use.
type FramePool struct {
	mu    sync.Mutex
	free  []*sparse.Frame
	inSet map[*sparse.Frame]struct{}
	stats PoolStats
}

// NewFramePool returns an empty pool.
func NewFramePool() *FramePool {
	return &FramePool{inSet: map[*sparse.Frame]struct{}{}}
}

// Get borrows a frame with the given geometry and time bounds.
func (p *FramePool) Get(h, w int, t0, t1 int64) *sparse.Frame {
	p.mu.Lock()
	p.stats.Gets++
	if n := len(p.free); n > 0 {
		f := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		delete(p.inSet, f)
		p.mu.Unlock()
		f.Reset(h, w, t0, t1)
		return f
	}
	p.stats.News++
	p.mu.Unlock()
	return sparse.NewFrame(h, w, t0, t1)
}

// Put returns a frame to the pool. Putting the same frame twice
// without an intervening Get panics: the caller kept a stale
// reference, and letting two owners share a recycled frame would
// corrupt data silently.
func (p *FramePool) Put(f *sparse.Frame) {
	if f == nil {
		panic("mem: Put of nil frame")
	}
	p.mu.Lock()
	if _, dup := p.inSet[f]; dup {
		p.mu.Unlock()
		panic("mem: double release of sparse.Frame")
	}
	p.stats.Puts++
	p.inSet[f] = struct{}{}
	p.free = append(p.free, f)
	p.mu.Unlock()
}

// Stats snapshots the counters.
func (p *FramePool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// tensorShape keys the tensor free lists; pooled kernels reuse a small
// number of fixed shapes (one per layer), so per-shape lists stay warm.
type tensorShape struct{ c, h, w int }

// TensorPool free-lists dense tensors by exact shape. Returned
// tensors' contents are UNSPECIFIED — the Into-style kernels
// initialize every element (bias fill or zero) before accumulating,
// so Get skips the redundant memclr.
type TensorPool struct {
	mu    sync.Mutex
	free  map[tensorShape][]*sparse.Tensor
	inSet map[*sparse.Tensor]struct{}
	stats PoolStats
}

// NewTensorPool returns an empty pool.
func NewTensorPool() *TensorPool {
	return &TensorPool{
		free:  map[tensorShape][]*sparse.Tensor{},
		inSet: map[*sparse.Tensor]struct{}{},
	}
}

// Get borrows a c x h x w tensor with unspecified contents.
func (p *TensorPool) Get(c, h, w int) *sparse.Tensor {
	key := tensorShape{c, h, w}
	p.mu.Lock()
	p.stats.Gets++
	if lst := p.free[key]; len(lst) > 0 {
		t := lst[len(lst)-1]
		lst[len(lst)-1] = nil
		p.free[key] = lst[:len(lst)-1]
		delete(p.inSet, t)
		p.mu.Unlock()
		return t
	}
	p.stats.News++
	p.mu.Unlock()
	return sparse.NewTensor(c, h, w)
}

// GetZeroed borrows a zeroed c x h x w tensor.
func (p *TensorPool) GetZeroed(c, h, w int) *sparse.Tensor {
	t := p.Get(c, h, w)
	t.Zero()
	return t
}

// Put returns a tensor to its shape's free list; double release panics.
func (p *TensorPool) Put(t *sparse.Tensor) {
	if t == nil {
		panic("mem: Put of nil tensor")
	}
	key := tensorShape{t.C, t.H, t.W}
	p.mu.Lock()
	if _, dup := p.inSet[t]; dup {
		p.mu.Unlock()
		panic("mem: double release of sparse.Tensor")
	}
	p.stats.Puts++
	p.inSet[t] = struct{}{}
	p.free[key] = append(p.free[key], t)
	p.mu.Unlock()
}

// Stats snapshots the counters.
func (p *TensorPool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// matShape keys the matrix free lists.
type matShape struct{ rows, cols int }

// MatPool free-lists dense matrices by exact shape. Like TensorPool,
// returned contents are unspecified; CSR.SpMM overwrites fully.
type MatPool struct {
	mu    sync.Mutex
	free  map[matShape][]*sparse.Mat
	inSet map[*sparse.Mat]struct{}
	stats PoolStats
}

// NewMatPool returns an empty pool.
func NewMatPool() *MatPool {
	return &MatPool{
		free:  map[matShape][]*sparse.Mat{},
		inSet: map[*sparse.Mat]struct{}{},
	}
}

// Get borrows a rows x cols matrix with unspecified contents.
func (p *MatPool) Get(rows, cols int) *sparse.Mat {
	key := matShape{rows, cols}
	p.mu.Lock()
	p.stats.Gets++
	if lst := p.free[key]; len(lst) > 0 {
		m := lst[len(lst)-1]
		lst[len(lst)-1] = nil
		p.free[key] = lst[:len(lst)-1]
		delete(p.inSet, m)
		p.mu.Unlock()
		return m
	}
	p.stats.News++
	p.mu.Unlock()
	return sparse.NewMat(rows, cols)
}

// Put returns a matrix; double release panics.
func (p *MatPool) Put(m *sparse.Mat) {
	if m == nil {
		panic("mem: Put of nil mat")
	}
	key := matShape{m.Rows, m.Cols}
	p.mu.Lock()
	if _, dup := p.inSet[m]; dup {
		p.mu.Unlock()
		panic("mem: double release of sparse.Mat")
	}
	p.stats.Puts++
	p.inSet[m] = struct{}{}
	p.free[key] = append(p.free[key], m)
	p.mu.Unlock()
}

// Stats snapshots the counters.
func (p *MatPool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// CSRPool free-lists CSR buffers. Get returns a matrix sized
// rows x cols with RowPtr length rows+1 (zeroed) and empty
// ColIdx/Vals keeping prior capacity.
type CSRPool struct {
	mu    sync.Mutex
	free  []*sparse.CSR
	inSet map[*sparse.CSR]struct{}
	stats PoolStats
}

// NewCSRPool returns an empty pool.
func NewCSRPool() *CSRPool {
	return &CSRPool{inSet: map[*sparse.CSR]struct{}{}}
}

// Get borrows an empty rows x cols CSR buffer.
func (p *CSRPool) Get(rows, cols int) *sparse.CSR {
	p.mu.Lock()
	p.stats.Gets++
	if n := len(p.free); n > 0 {
		m := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		delete(p.inSet, m)
		p.mu.Unlock()
		m.Reset(rows, cols)
		return m
	}
	p.stats.News++
	p.mu.Unlock()
	m := &sparse.CSR{}
	m.Reset(rows, cols)
	return m
}

// Put returns a CSR buffer; double release panics.
func (p *CSRPool) Put(m *sparse.CSR) {
	if m == nil {
		panic("mem: Put of nil CSR")
	}
	p.mu.Lock()
	if _, dup := p.inSet[m]; dup {
		p.mu.Unlock()
		panic("mem: double release of sparse.CSR")
	}
	p.stats.Puts++
	p.inSet[m] = struct{}{}
	p.free = append(p.free, m)
	p.mu.Unlock()
}

// Stats snapshots the counters.
func (p *CSRPool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// Pool is a generic free list for consumer-defined structs (pipeline
// invocations, scheduler requests, dispatch payloads). The reset hook
// runs on every Get — including the allocating first one — so borrowed
// objects always start from a known state while keeping whatever slice
// capacity their fields accumulated.
type Pool[T any] struct {
	mu    sync.Mutex
	free  []*T
	inSet map[*T]struct{}
	reset func(*T)
	stats PoolStats
}

// NewPool returns a pool whose objects are reset by the given hook
// (nil for none).
func NewPool[T any](reset func(*T)) *Pool[T] {
	return &Pool[T]{inSet: map[*T]struct{}{}, reset: reset}
}

// Get borrows an object, reset.
func (p *Pool[T]) Get() *T {
	p.mu.Lock()
	p.stats.Gets++
	var x *T
	if n := len(p.free); n > 0 {
		x = p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		delete(p.inSet, x)
		p.mu.Unlock()
	} else {
		p.stats.News++
		p.mu.Unlock()
		x = new(T)
	}
	if p.reset != nil {
		p.reset(x)
	}
	return x
}

// Put returns an object; double release panics.
func (p *Pool[T]) Put(x *T) {
	if x == nil {
		panic("mem: Put of nil object")
	}
	p.mu.Lock()
	if _, dup := p.inSet[x]; dup {
		p.mu.Unlock()
		panic("mem: double release of pooled object")
	}
	p.stats.Puts++
	p.inSet[x] = struct{}{}
	p.free = append(p.free, x)
	p.mu.Unlock()
}

// Stats snapshots the counters.
func (p *Pool[T]) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// Arena bundles the pools one serving node shares across all sessions:
// frames flow ingest→DSFA→dispatch→release regardless of which session
// produced them, so one free list per type maximizes reuse.
type Arena struct {
	Frames  *FramePool
	Tensors *TensorPool
	Mats    *MatPool
	CSRs    *CSRPool
}

// NewArena returns an arena with empty pools.
func NewArena() *Arena {
	return &Arena{
		Frames:  NewFramePool(),
		Tensors: NewTensorPool(),
		Mats:    NewMatPool(),
		CSRs:    NewCSRPool(),
	}
}

// ArenaStats is the per-pool counter snapshot plus the total.
type ArenaStats struct {
	Frames  PoolStats `json:"frames"`
	Tensors PoolStats `json:"tensors"`
	Mats    PoolStats `json:"mats"`
	CSRs    PoolStats `json:"csrs"`
	Total   PoolStats `json:"total"`
}

// Stats snapshots every pool.
func (a *Arena) Stats() ArenaStats {
	st := ArenaStats{
		Frames:  a.Frames.Stats(),
		Tensors: a.Tensors.Stats(),
		Mats:    a.Mats.Stats(),
		CSRs:    a.CSRs.Stats(),
	}
	st.Total.add(st.Frames)
	st.Total.add(st.Tensors)
	st.Total.add(st.Mats)
	st.Total.add(st.CSRs)
	return st
}
