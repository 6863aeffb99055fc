package e2sf

import (
	"testing"

	"evedge/internal/events"
	"evedge/internal/sparse"
)

// Edge-case coverage for GroupBins and ConvertByCount that the fused
// kernel must also satisfy: empty streams, group sizes exceeding the
// frame count, and zero-event (or zero-count) chunks.

func TestGroupBinsEmptyInput(t *testing.T) {
	out, err := GroupBins(nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatalf("GroupBins(nil) emitted %d frames", len(out))
	}
	out, err = GroupBins([]*sparse.Frame{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatalf("GroupBins(empty) emitted %d frames", len(out))
	}
}

func TestGroupBinsKLargerThanFrames(t *testing.T) {
	frames := []*sparse.Frame{
		sparse.NewFrame(4, 4, 0, 10),
		sparse.NewFrame(4, 4, 10, 20),
	}
	frames[0].Set(1, 1, 2, 0)
	frames[1].Set(1, 1, 1, 3)
	out, err := GroupBins(frames, 5) // k > len(frames): one partial group
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("GroupBins k>len emitted %d frames, want 1", len(out))
	}
	if out[0].T0 != 0 || out[0].T1 != 20 {
		t.Fatalf("partial group bounds [%d,%d), want [0,20)", out[0].T0, out[0].T1)
	}
	if p, n := out[0].Get(1, 1); p != 3 || n != 3 {
		t.Fatalf("partial group merge = (%v,%v), want (3,3)", p, n)
	}

	// Fused equivalent: groupK larger than NumBins yields one frame
	// spanning the whole window.
	cfg := Config{Width: 4, Height: 4, NumBins: 2}
	fused, err := NewFused(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := mkStream(4, 4,
		events.Event{TS: 1, X: 1, Y: 1, Pol: events.On},
		events.Event{TS: 15, X: 1, Y: 1, Pol: events.Off},
	)
	got, err := fused.ConvertGroupedAppend(nil, s, 0, 20, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].T0 != 0 || got[0].T1 != 20 {
		t.Fatalf("fused k>nB: %d frames, bounds [%d,%d)", len(got), got[0].T0, got[0].T1)
	}
}

func TestGroupBinsInvalidK(t *testing.T) {
	if _, err := GroupBins(nil, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := GroupBins(nil, -1); err == nil {
		t.Fatal("negative k accepted")
	}
}

func TestConvertByCountEmptyStream(t *testing.T) {
	cfg := Config{Width: 8, Height: 8, NumBins: 2}
	conv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fused, err := NewFused(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := events.NewStream(8, 8)
	out, st, err := conv.ConvertByCount(s, 0, 100, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 || st.Frames != 0 || st.EventsIn != 0 {
		t.Fatalf("unfused empty stream: frames=%d stats=%+v", len(out), st)
	}
	fout, err := fused.ConvertByCountAppend(nil, s, 0, 100, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(fout) != 0 {
		t.Fatalf("fused empty stream: frames=%d", len(fout))
	}
}

func TestConvertEmptyStreamEmitsEmptyBins(t *testing.T) {
	// Time framing with no events still emits one (empty) frame per bin
	// to preserve temporal alignment — and the fused path per group.
	cfg := Config{Width: 8, Height: 8, NumBins: 4}
	conv, _ := New(cfg)
	fused, _ := NewFused(cfg, nil)
	s := events.NewStream(8, 8)
	frames, _, err := conv.Convert(s, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 4 {
		t.Fatalf("Convert empty stream emitted %d frames, want 4", len(frames))
	}
	got, err := fused.ConvertGroupedAppend(nil, s, 0, 100, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("fused empty stream emitted %d groups, want 2", len(got))
	}
	for i, f := range got {
		if f.NNZ() != 0 {
			t.Fatalf("group %d not empty", i)
		}
	}
	if got[0].T0 != 0 || got[0].T1 != 50 || got[1].T0 != 50 || got[1].T1 != 100 {
		t.Fatalf("empty group bounds: [%d,%d) [%d,%d)", got[0].T0, got[0].T1, got[1].T0, got[1].T1)
	}
}

func TestConvertByCountZeroCountChunk(t *testing.T) {
	// A window whose slice contains no events (all events fall outside
	// [tStart, tEnd)) must emit nothing and not disturb converter state.
	cfg := Config{Width: 8, Height: 8, NumBins: 2}
	conv, _ := New(cfg)
	fused, _ := NewFused(cfg, nil)
	s := mkStream(8, 8,
		events.Event{TS: 500, X: 1, Y: 1, Pol: events.On},
	)
	out, st, err := conv.ConvertByCount(s, 0, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 || st.EventsIn != 0 {
		t.Fatalf("unfused zero-count chunk: frames=%d events=%d", len(out), st.EventsIn)
	}
	fout, err := fused.ConvertByCountAppend(nil, s, 0, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(fout) != 0 {
		t.Fatalf("fused zero-count chunk: frames=%d", len(fout))
	}
	// The event outside the first window is still convertible after.
	fout, err = fused.ConvertByCountAppend(nil, s, 400, 600, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(fout) != 1 || fout[0].NNZ() != 1 {
		t.Fatalf("follow-up window: frames=%d", len(fout))
	}
	if fout[0].T0 != 400 || fout[0].T1 != 501 {
		t.Fatalf("follow-up frame bounds [%d,%d), want [400,501)", fout[0].T0, fout[0].T1)
	}
}

func TestConvertByCountTrailingPartial(t *testing.T) {
	// countPerFrame larger than the event count: one trailing partial
	// frame ending at tEnd, identical in both paths.
	cfg := Config{Width: 8, Height: 8, NumBins: 2}
	conv, _ := New(cfg)
	fused, _ := NewFused(cfg, nil)
	s := mkStream(8, 8,
		events.Event{TS: 10, X: 2, Y: 3, Pol: events.On},
		events.Event{TS: 20, X: 2, Y: 3, Pol: events.Off},
	)
	want, _, err := conv.ConvertByCount(s, 0, 100, 50)
	if err != nil {
		t.Fatal(err)
	}
	got, err := fused.ConvertByCountAppend(nil, s, 0, 100, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 1 || len(got) != 1 {
		t.Fatalf("partial frame counts: unfused=%d fused=%d, want 1", len(want), len(got))
	}
	if want[0].T1 != 100 || got[0].T1 != 100 {
		t.Fatalf("partial frame T1: unfused=%d fused=%d, want 100", want[0].T1, got[0].T1)
	}
	framesEqual(t, "trailing-partial", got[0], want[0])
}
