package e2sf_test

import (
	"sort"
	"testing"

	"evedge/internal/e2sf"
	"evedge/internal/events"
	"evedge/internal/nn"
	"evedge/internal/pipeline"
	"evedge/internal/scene"
	"evedge/internal/sparse"
)

// oracleStream is what pipeline.ConvertStream must produce, built from
// the unfused oracle: per-window Convert then GroupBins for time
// framing, ConvertByCount for count framing.
func oracleStream(t *testing.T, net *nn.Network, s *events.Stream, durUS int64) []*sparse.Frame {
	t.Helper()
	conv, err := e2sf.New(e2sf.Config{Width: s.Width, Height: s.Height, NumBins: net.Input.NumBins})
	if err != nil {
		t.Fatal(err)
	}
	if net.Input.Framing == nn.FrameByCount {
		// The pipeline's calibration: N events per frame at the median
		// 50 ms event rate times the framing period.
		const win = 50_000
		var counts []int
		for t0 := int64(0); t0 < durUS; t0 += win {
			counts = append(counts, s.Slice(t0, t0+win).Len())
		}
		sort.Ints(counts)
		count := max(int(float64(counts[len(counts)/2])/win*float64(net.Input.FramePeriodUS)), 1)
		out, _, err := conv.ConvertByCount(s, 0, durUS, count)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	var out []*sparse.Frame
	for t0 := int64(0); t0+net.Input.WindowUS <= durUS; t0 += net.Input.WindowUS {
		bins, _, err := conv.Convert(s, t0, t0+net.Input.WindowUS)
		if err != nil {
			t.Fatal(err)
		}
		grouped, err := e2sf.GroupBins(bins, net.Input.GroupK)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, grouped...)
	}
	return out
}

// TestConvertStreamMatchesOracle pins the offline pipeline's converter
// (the fused kernel) to the unfused oracle for every zoo network —
// count and time framing alike — at two scene seeds.
func TestConvertStreamMatchesOracle(t *testing.T) {
	const durUS = 300_000
	framings := map[nn.FramingMode]int{}
	for _, net := range nn.All() {
		framings[net.Input.Framing]++
		for _, seed := range []int64{1, 2} {
			seq, err := scene.NewSequence(net.Input.Preset, scene.Half, seed)
			if err != nil {
				t.Fatal(err)
			}
			s, err := seq.Generate(durUS)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := pipeline.ConvertStream(net, s, durUS)
			if err != nil {
				t.Fatalf("%s seed %d: %v", net.Name, seed, err)
			}
			want := oracleStream(t, net, s, durUS)
			if len(got) != len(want) || len(got) == 0 {
				t.Fatalf("%s seed %d: %d frames, oracle %d", net.Name, seed, len(got), len(want))
			}
			for i := range want {
				g, w := got[i], want[i]
				if g.T0 != w.T0 || g.T1 != w.T1 || g.NNZ() != w.NNZ() {
					t.Fatalf("%s seed %d frame %d: [%d,%d) nnz %d, oracle [%d,%d) nnz %d",
						net.Name, seed, i, g.T0, g.T1, g.NNZ(), w.T0, w.T1, w.NNZ())
				}
				for j := range w.Ys {
					if g.Ys[j] != w.Ys[j] || g.Xs[j] != w.Xs[j] || g.Pos[j] != w.Pos[j] || g.Neg[j] != w.Neg[j] {
						t.Fatalf("%s seed %d frame %d entry %d differs from the oracle", net.Name, seed, i, j)
					}
				}
			}
		}
	}
	if len(framings) != 2 {
		t.Fatalf("zoo covers %d framing modes, want count and time", len(framings))
	}
}
