package e2sf

// The unfused converter lives here, in a _test.go file with exported
// names, so this package's tests and the external e2sf_test parity
// test (which runs pipeline.ConvertStream) share one oracle without it
// shipping in the production build.

import (
	"fmt"

	"evedge/internal/events"
	"evedge/internal/sparse"
)

// Stats reports what an oracle conversion did.
type Stats struct {
	EventsIn    int     // events consumed
	Frames      int     // sparse frames emitted
	TotalNNZ    int     // active pixels across all frames
	MeanDensity float64 // mean fraction of active pixels per frame
}

// Converter maps event streams to sparse frames the straightforward
// way: one FrameBuilder map per bin, then GroupBins merges the bins.
// It is the test oracle Fused must reproduce bit for bit.
type Converter struct {
	cfg Config
}

// New validates the config and returns a Converter.
func New(cfg Config) (*Converter, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Converter{cfg: cfg}, nil
}

// Config returns the converter's configuration.
func (c *Converter) Config() Config { return c.cfg }

// Convert bins the events of s that fall in [tStart, tEnd) per Eq. 1
// and returns one sparse frame per bin (empty bins yield empty
// frames, preserving temporal alignment). The stream must be sorted.
func (c *Converter) Convert(s *events.Stream, tStart, tEnd int64) ([]*sparse.Frame, Stats, error) {
	var st Stats
	if tEnd <= tStart {
		return nil, st, fmt.Errorf("e2sf: empty interval [%d, %d)", tStart, tEnd)
	}
	if s.Width != c.cfg.Width || s.Height != c.cfg.Height {
		return nil, st, fmt.Errorf("e2sf: stream geometry %dx%d != converter %dx%d",
			s.Width, s.Height, c.cfg.Width, c.cfg.Height)
	}
	nB := c.cfg.NumBins
	// Eq. 1: bin duration. Integer microseconds; use float64 for the
	// division to avoid bias when the window is not a multiple of nB.
	biS := float64(tEnd-tStart) / float64(nB)
	builders := make([]*sparse.FrameBuilder, nB)
	for k := 0; k < nB; k++ {
		t0 := tStart + int64(float64(k)*biS)
		t1 := tStart + int64(float64(k+1)*biS)
		builders[k] = sparse.NewFrameBuilder(c.cfg.Height, c.cfg.Width, t0, t1)
	}
	window := s.Slice(tStart, tEnd)
	for _, e := range window.Events {
		k := int(float64(e.TS-tStart) / biS)
		if k >= nB { // tk == tEnd-epsilon rounding; clamp to last bin
			k = nB - 1
		}
		builders[k].AddEvent(int32(e.Y), int32(e.X), e.Pol == events.On)
		st.EventsIn++
	}
	frames := make([]*sparse.Frame, nB)
	for k, b := range builders {
		frames[k] = b.Build()
		st.TotalNNZ += frames[k].NNZ()
		st.MeanDensity += frames[k].Density()
	}
	st.Frames = nB
	st.MeanDensity /= float64(nB)
	return frames, st, nil
}

// ConvertByCount implements the count-based framing of prior works
// ([7] SpikeFlowNet, [8] Fusion-FlowNet: "construct event frames by
// statically counting the number of events"): a new sparse frame is
// emitted every countPerFrame events, so the frame rate tracks scene
// activity — the behaviour that creates frame backlog during bursts
// and motivates DSFA. A trailing partial frame is emitted if the
// window ends mid-count.
func (c *Converter) ConvertByCount(s *events.Stream, tStart, tEnd int64, countPerFrame int) ([]*sparse.Frame, Stats, error) {
	var st Stats
	if tEnd <= tStart {
		return nil, st, fmt.Errorf("e2sf: empty interval [%d, %d)", tStart, tEnd)
	}
	if countPerFrame <= 0 {
		return nil, st, fmt.Errorf("e2sf: countPerFrame must be positive, got %d", countPerFrame)
	}
	if s.Width != c.cfg.Width || s.Height != c.cfg.Height {
		return nil, st, fmt.Errorf("e2sf: stream geometry %dx%d != converter %dx%d",
			s.Width, s.Height, c.cfg.Width, c.cfg.Height)
	}
	window := s.Slice(tStart, tEnd)
	var out []*sparse.Frame
	frameStart := tStart
	b := sparse.NewFrameBuilder(c.cfg.Height, c.cfg.Width, frameStart, frameStart)
	n := 0
	emit := func(t1 int64) {
		f := b.Build()
		f.T0, f.T1 = frameStart, t1
		out = append(out, f)
		st.TotalNNZ += f.NNZ()
		st.MeanDensity += f.Density()
		frameStart = t1
		n = 0
	}
	for _, e := range window.Events {
		b.AddEvent(int32(e.Y), int32(e.X), e.Pol == events.On)
		st.EventsIn++
		n++
		if n >= countPerFrame {
			emit(e.TS + 1)
		}
	}
	if n > 0 {
		emit(tEnd)
	}
	st.Frames = len(out)
	if st.Frames > 0 {
		st.MeanDensity /= float64(st.Frames)
	}
	return out, st, nil
}

// GroupBins concatenates consecutive sparse frames into groups of k —
// the paper's "presented sequentially over B/k timesteps" input mode
// for SNNs. Each group is merged with cAdd semantics so event counts
// are conserved. The final group may be smaller if len(frames) is not
// a multiple of k.
func GroupBins(frames []*sparse.Frame, k int) ([]*sparse.Frame, error) {
	if k <= 0 {
		return nil, fmt.Errorf("e2sf: group size must be positive, got %d", k)
	}
	var out []*sparse.Frame
	for i := 0; i < len(frames); i += k {
		j := i + k
		if j > len(frames) {
			j = len(frames)
		}
		out = append(out, sparse.MergeAdd(frames[i:j]...))
	}
	return out, nil
}
