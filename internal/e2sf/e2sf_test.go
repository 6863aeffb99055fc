package e2sf

import (
	"math/rand"
	"testing"
	"testing/quick"

	"evedge/internal/events"
	"evedge/internal/scene"
)

func mkStream(w, h int, evs ...events.Event) *events.Stream {
	s := events.NewStream(w, h)
	s.Events = append(s.Events, evs...)
	return s
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Width: 0, Height: 10, NumBins: 1}); err == nil {
		t.Fatal("zero width accepted")
	}
	if _, err := New(Config{Width: 10, Height: 10, NumBins: 0}); err == nil {
		t.Fatal("zero bins accepted")
	}
	c, err := New(Config{Width: 10, Height: 10, NumBins: 4})
	if err != nil {
		t.Fatal(err)
	}
	if c.Config().NumBins != 4 {
		t.Fatal("config not retained")
	}
}

func TestConvertBinAssignment(t *testing.T) {
	// Window [0, 100) with 4 bins of 25us each.
	s := mkStream(4, 4,
		events.Event{X: 0, Y: 0, TS: 0, Pol: events.On},    // bin 0
		events.Event{X: 1, Y: 0, TS: 24, Pol: events.Off},  // bin 0
		events.Event{X: 2, Y: 0, TS: 25, Pol: events.On},   // bin 1
		events.Event{X: 3, Y: 0, TS: 74, Pol: events.On},   // bin 2
		events.Event{X: 0, Y: 1, TS: 75, Pol: events.Off},  // bin 3
		events.Event{X: 1, Y: 1, TS: 99, Pol: events.On},   // bin 3
		events.Event{X: 2, Y: 1, TS: 100, Pol: events.On},  // outside
		events.Event{X: 3, Y: 1, TS: 2000, Pol: events.On}, // outside
	)
	c, err := New(Config{Width: 4, Height: 4, NumBins: 4})
	if err != nil {
		t.Fatal(err)
	}
	frames, st, err := c.Convert(s, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 4 {
		t.Fatalf("frames=%d", len(frames))
	}
	if st.EventsIn != 6 {
		t.Fatalf("eventsIn=%d", st.EventsIn)
	}
	wantNNZ := []int{2, 1, 1, 2}
	for i, f := range frames {
		if f.NNZ() != wantNNZ[i] {
			t.Fatalf("bin %d nnz=%d want %d", i, f.NNZ(), wantNNZ[i])
		}
		if err := f.Validate(); err != nil {
			t.Fatalf("bin %d: %v", i, err)
		}
	}
	// Bin time bounds follow Eq. 1.
	if frames[1].T0 != 25 || frames[1].T1 != 50 {
		t.Fatalf("bin 1 bounds [%d,%d)", frames[1].T0, frames[1].T1)
	}
	// Polarity separation.
	p, n := frames[0].Get(0, 1)
	if p != 0 || n != 1 {
		t.Fatalf("bin 0 (0,1)=(%f,%f)", p, n)
	}
}

func TestConvertPolarityAccumulation(t *testing.T) {
	s := mkStream(2, 2,
		events.Event{X: 0, Y: 0, TS: 1, Pol: events.On},
		events.Event{X: 0, Y: 0, TS: 2, Pol: events.On},
		events.Event{X: 0, Y: 0, TS: 3, Pol: events.Off},
	)
	c, _ := New(Config{Width: 2, Height: 2, NumBins: 1})
	frames, _, err := c.Convert(s, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	p, n := frames[0].Get(0, 0)
	if p != 2 || n != 1 {
		t.Fatalf("accumulation (%f,%f)", p, n)
	}
}

func TestConvertErrors(t *testing.T) {
	c, _ := New(Config{Width: 4, Height: 4, NumBins: 2})
	s := mkStream(4, 4)
	if _, _, err := c.Convert(s, 10, 10); err == nil {
		t.Fatal("empty window accepted")
	}
	if _, _, err := c.Convert(mkStream(8, 8), 0, 10); err == nil {
		t.Fatal("geometry mismatch accepted")
	}
}

func TestLastBinClamp(t *testing.T) {
	// An event exactly at the final microsecond before tEnd lands in
	// the last bin even with floating point rounding.
	s := mkStream(2, 2, events.Event{X: 0, Y: 0, TS: 99, Pol: events.On})
	c, _ := New(Config{Width: 2, Height: 2, NumBins: 3})
	frames, _, err := c.Convert(s, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if frames[2].NNZ() != 1 {
		t.Fatal("event at window edge lost")
	}
}

// Property: E2SF conserves events — the sum of accumulated polarity
// counts across frames equals the number of in-window events.
func TestConservationProperty(t *testing.T) {
	f := func(seed int64, nbRaw uint8) bool {
		nB := int(nbRaw)%16 + 1
		s := scene.GenerateUniform(32, 24, 50_000, 100_000, seed)
		c, err := New(Config{Width: 32, Height: 24, NumBins: nB})
		if err != nil {
			return false
		}
		frames, st, err := c.Convert(s, 0, 100_000)
		if err != nil {
			return false
		}
		var total float64
		for _, fr := range frames {
			if fr.Validate() != nil {
				return false
			}
			total += fr.EventCount()
		}
		return int(total) == st.EventsIn && st.EventsIn == s.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: every event's bin index satisfies Eq. 1 bounds.
func TestBinBoundsProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nB := 1 + r.Intn(12)
		tEnd := int64(1000 + r.Intn(100_000))
		s := scene.GenerateUniform(16, 16, 20_000, tEnd, seed)
		c, err := New(Config{Width: 16, Height: 16, NumBins: nB})
		if err != nil {
			return false
		}
		frames, _, err := c.Convert(s, 0, tEnd)
		if err != nil {
			return false
		}
		if len(frames) != nB {
			return false
		}
		for k, fr := range frames {
			if fr.T0 > fr.T1 {
				return false
			}
			if k > 0 && frames[k-1].T1 != fr.T0 {
				return false // bins must tile the window
			}
		}
		return frames[0].T0 == 0 && frames[nB-1].T1 >= tEnd-1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestGroupBins(t *testing.T) {
	c, _ := New(Config{Width: 8, Height: 8, NumBins: 5})
	s := scene.GenerateUniform(8, 8, 100_000, 50_000, 3)
	frames, _, err := c.Convert(s, 0, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	groups, err := GroupBins(frames, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 3 { // 2+2+1
		t.Fatalf("groups=%d", len(groups))
	}
	var inCount, outCount float64
	for _, f := range frames {
		inCount += f.EventCount()
	}
	for _, g := range groups {
		outCount += g.EventCount()
	}
	if inCount != outCount {
		t.Fatalf("grouping loses events: %f != %f", inCount, outCount)
	}
	if _, err := GroupBins(frames, 0); err == nil {
		t.Fatal("zero group size accepted")
	}
}

func TestDensityTracksBinCount(t *testing.T) {
	// More bins -> fewer events per bin -> lower per-frame density.
	s := scene.GenerateUniform(32, 32, 200_000, 100_000, 5)
	density := func(nB int) float64 {
		c, _ := New(Config{Width: 32, Height: 32, NumBins: nB})
		_, st, err := c.Convert(s, 0, 100_000)
		if err != nil {
			t.Fatal(err)
		}
		return st.MeanDensity
	}
	if d1, d10 := density(1), density(10); d10 >= d1 {
		t.Fatalf("density should fall with bins: nB=1 %f, nB=10 %f", d1, d10)
	}
}
