package sparse

import (
	"sync"

	"evedge/internal/par"
)

// body names the row-range body a rowTask runs.
type body uint8

const (
	bodyConv body = iota
	bodySparseConv
	bodySubmanifold
	bodySites
	bodySpMM
)

// rowTask is one kernel call partitioned over rows [0, rows): output
// rows for the convolutions (flattened (oc, oy) rows for dense Conv2D),
// CSR rows for SpMM. Only the fields its body reads are set. Task
// structs are free-listed so a warm pool dispatches with zero heap
// allocations.
type rowTask struct {
	body    body
	rows    int
	out, in *Tensor
	f       *Filter
	as      *ActiveSet
	m       *CSR
	d, mout *Mat
}

var rowTasks = sync.Pool{New: func() any { return new(rowTask) }}

// run executes the task's body over rows [lo, hi).
func (t *rowTask) run(lo, hi int) {
	switch t.body {
	case bodyConv:
		conv2DRows(t.out, t.in, t.f, lo, hi)
	case bodySparseConv:
		sparseConvRows(t.out, t.in, t.f, lo, hi)
	case bodySubmanifold:
		submanifoldRows(t.out, t.in, t.f, lo, hi)
	case bodySites:
		siteRows(t.out, t.in, t.f, t.as, lo, hi)
	case bodySpMM:
		spmmRows(t.mout, t.m, t.d, lo, hi)
	}
}

// RunShard runs the shard's slice of an even contiguous partition of
// [0, rows).
func (t *rowTask) RunShard(shard, shards int, _ *par.Scratch) {
	t.run(shard*t.rows/shards, (shard+1)*t.rows/shards)
}

// runRows runs t's body once over all rows when pool is nil or of
// width 1, and otherwise over 2 x width disjoint ranges (fine enough to
// balance uneven rows, capped at one row per range) on the pool.
func runRows(pool *par.Pool, t rowTask) {
	shards := min(2*pool.Size(), t.rows)
	if pool.Size() <= 1 || shards <= 1 {
		t.run(0, t.rows)
		return
	}
	pt := rowTasks.Get().(*rowTask)
	*pt = t
	pool.Run(shards, pt)
	*pt = rowTask{}
	rowTasks.Put(pt)
}
