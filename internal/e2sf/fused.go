package e2sf

import (
	"fmt"
	"math"

	"evedge/internal/events"
	"evedge/internal/mem"
	"evedge/internal/sparse"
)

// Fused is the one-pass E2SF kernel, used by the offline pipeline
// (pipeline.ConvertStream) and the serving hot path alike. Rather than
// materializing a map per bin and intermediate per-bin frames that are
// immediately merged and thrown away, it traverses the event chunk
// once, accumulating polarities into a dense scratch grid that is
// epoch-stamped so it never needs clearing between frames, and emits
// each output frame with a single key sort. Frames come from the
// optional FramePool, so a warm kernel converts a chunk with zero heap
// allocations; without a pool each frame is allocated at its exact
// size.
//
// Outputs are bit-identical to per-bin conversion followed by a merge
// of each group (the test oracle): per-pixel values are integer event
// counts (exact in float32 far beyond any realistic per-frame count),
// entries are emitted in key order, and frame time bounds use the
// same float64 bin arithmetic.
//
// A Fused kernel is NOT safe for concurrent use — it is per-stream
// state, like the serving session's ingestConverter that owns one.
type Fused struct {
	cfg  Config
	pool *mem.FramePool

	// Dense per-pixel scratch: pos/neg are only valid where stamp
	// matches the current epoch, so starting a new frame is one counter
	// increment instead of an O(H*W) clear.
	pos, neg []float32
	stamp    []uint32
	epoch    uint32
	touched  []int32
}

// NewFused validates the config and returns a fused kernel drawing
// output frames from pool (nil to allocate fresh frames).
func NewFused(cfg Config, pool *mem.FramePool) (*Fused, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if int64(cfg.Width)*int64(cfg.Height) > math.MaxInt32 {
		return nil, fmt.Errorf("e2sf: fused kernel geometry %dx%d overflows int32 keys", cfg.Width, cfg.Height)
	}
	return &Fused{cfg: cfg, pool: pool}, nil
}

func (k *Fused) ensureScratch() {
	if k.pos == nil {
		n := k.cfg.Width * k.cfg.Height
		k.pos = make([]float32, n)
		k.neg = make([]float32, n)
		k.stamp = make([]uint32, n)
	}
	k.epoch++
	if k.epoch == 0 { // uint32 wraparound: stale stamps could collide
		for i := range k.stamp {
			k.stamp[i] = 0
		}
		k.epoch = 1
	}
	k.touched = k.touched[:0]
}

// add accumulates one event into the current frame's scratch.
func (k *Fused) add(e events.Event) {
	key := int32(e.Y)*int32(k.cfg.Width) + int32(e.X)
	if k.stamp[key] != k.epoch {
		k.stamp[key] = k.epoch
		k.pos[key] = 0
		k.neg[key] = 0
		k.touched = append(k.touched, key)
	}
	if e.Pol == events.On {
		k.pos[key]++
	} else {
		k.neg[key]++
	}
}

// frame borrows a pooled output frame or, without a pool, allocates
// one whose channels are exactly n entries long (callers such as
// pipeline.Run keep every frame of a stream live at once).
func (k *Fused) frame(t0, t1 int64, n int) *sparse.Frame {
	if k.pool != nil {
		return k.pool.Get(k.cfg.Height, k.cfg.Width, t0, t1)
	}
	f := sparse.NewFrame(k.cfg.Height, k.cfg.Width, t0, t1)
	if n > 0 {
		f.Ys = make([]int32, 0, n)
		f.Xs = make([]int32, 0, n)
		f.Pos = make([]float32, 0, n)
		f.Neg = make([]float32, 0, n)
	}
	return f
}

// emitFrame sorts the touched keys, gathers the scratch into a frame
// spanning [t0, t1), and resets the scratch for the next frame.
func (k *Fused) emitFrame(t0, t1 int64) *sparse.Frame {
	sortInt32s(k.touched)
	f := k.frame(t0, t1, len(k.touched))
	w := int32(k.cfg.Width)
	for _, key := range k.touched {
		f.Ys = append(f.Ys, key/w)
		f.Xs = append(f.Xs, key%w)
		f.Pos = append(f.Pos, k.pos[key])
		f.Neg = append(f.Neg, k.neg[key])
	}
	k.epoch++
	if k.epoch == 0 {
		for i := range k.stamp {
			k.stamp[i] = 0
		}
		k.epoch = 1
	}
	k.touched = k.touched[:0]
	return f
}

// ConvertGroupedAppend bins the events of s in [tStart, tEnd) into
// NumBins bins per Eq. 1 and appends one frame per group of groupK
// consecutive bins to dst (the last group may cover fewer bins; empty
// groups still yield empty frames, preserving temporal alignment).
// Appending lets a caller reuse its output slice across chunks. The
// stream must be sorted.
func (k *Fused) ConvertGroupedAppend(dst []*sparse.Frame, s *events.Stream, tStart, tEnd int64, groupK int) ([]*sparse.Frame, error) {
	if tEnd <= tStart {
		return dst, fmt.Errorf("e2sf: empty interval [%d, %d)", tStart, tEnd)
	}
	if groupK <= 0 {
		return dst, fmt.Errorf("e2sf: group size must be positive, got %d", groupK)
	}
	if s.Width != k.cfg.Width || s.Height != k.cfg.Height {
		return dst, fmt.Errorf("e2sf: stream geometry %dx%d != converter %dx%d",
			s.Width, s.Height, k.cfg.Width, k.cfg.Height)
	}
	nB := k.cfg.NumBins
	biS := float64(tEnd-tStart) / float64(nB)
	nG := (nB + groupK - 1) / groupK
	k.ensureScratch()
	g := 0
	emit := func() {
		a := g * groupK
		b := a + groupK
		if b > nB {
			b = nB
		}
		// Group bounds are the first member bin's start and the last
		// member bin's end under the Eq. 1 float64 bin arithmetic.
		t0 := tStart + int64(float64(a)*biS)
		t1 := tStart + int64(float64(b)*biS)
		dst = append(dst, k.emitFrame(t0, t1))
	}
	for _, e := range s.Window(tStart, tEnd) {
		bi := int(float64(e.TS-tStart) / biS)
		if bi >= nB { // tk == tEnd-epsilon rounding; clamp to last bin
			bi = nB - 1
		}
		for eg := bi / groupK; g < eg; g++ {
			emit()
		}
		k.add(e)
	}
	for ; g < nG; g++ {
		emit()
	}
	return dst, nil
}

// ConvertByCountAppend implements the count-based framing of prior
// works ([7] SpikeFlowNet, [8] Fusion-FlowNet: "construct event frames
// by statically counting the number of events"), appending to dst: a
// frame every countPerFrame events in [tStart, tEnd) with T1 just past
// the closing event, plus a trailing partial frame ending at tEnd. The
// frame rate tracks scene activity — the behaviour that creates frame
// backlog during bursts and motivates DSFA.
func (k *Fused) ConvertByCountAppend(dst []*sparse.Frame, s *events.Stream, tStart, tEnd int64, countPerFrame int) ([]*sparse.Frame, error) {
	if tEnd <= tStart {
		return dst, fmt.Errorf("e2sf: empty interval [%d, %d)", tStart, tEnd)
	}
	if countPerFrame <= 0 {
		return dst, fmt.Errorf("e2sf: countPerFrame must be positive, got %d", countPerFrame)
	}
	if s.Width != k.cfg.Width || s.Height != k.cfg.Height {
		return dst, fmt.Errorf("e2sf: stream geometry %dx%d != converter %dx%d",
			s.Width, s.Height, k.cfg.Width, k.cfg.Height)
	}
	k.ensureScratch()
	frameStart := tStart
	n := 0
	emit := func(t1 int64) {
		dst = append(dst, k.emitFrame(frameStart, t1))
		frameStart = t1
		n = 0
	}
	for _, e := range s.Window(tStart, tEnd) {
		k.add(e)
		n++
		if n >= countPerFrame {
			emit(e.TS + 1)
		}
	}
	if n > 0 {
		emit(tEnd)
	}
	return dst, nil
}

func sortInt32s(a []int32) {
	if len(a) < 2 {
		return
	}
	quicksortInt32(a, 0, len(a)-1)
}

func quicksortInt32(a []int32, lo, hi int) {
	for lo < hi {
		p := a[(lo+hi)/2]
		i, j := lo, hi
		for i <= j {
			for a[i] < p {
				i++
			}
			for a[j] > p {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		// Recurse into the smaller side, loop on the larger.
		if j-lo < hi-i {
			quicksortInt32(a, lo, j)
			lo = i
		} else {
			quicksortInt32(a, i, hi)
			hi = j
		}
	}
}
