package nn

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"evedge/internal/par"
	"evedge/internal/sparse"
)

func TestPrecision(t *testing.T) {
	if FP32.Bytes() != 4 || FP16.Bytes() != 2 || INT8.Bytes() != 1 {
		t.Fatal("precision bytes wrong")
	}
	if FP32.String() != "FP32" || FP16.String() != "FP16" || INT8.String() != "INT8" {
		t.Fatal("precision strings wrong")
	}
	if len(AllPrecisions()) != 3 {
		t.Fatal("precision list wrong")
	}
	if !strings.Contains(Precision(9).String(), "9") {
		t.Fatal("unknown precision string")
	}
}

func TestZooTable1LayerCounts(t *testing.T) {
	// The exact layer counts and SNN/ANN splits of the paper's Table 1.
	cases := []struct {
		name             string
		layers, snn, ann int
		typeDesc         string
	}{
		{SpikeFlowNet, 12, 4, 8, "SNN-ANN"},
		{FusionFlowNet, 29, 10, 19, "SNN-ANN"},
		{AdaptiveSpikeNet, 8, 8, 0, "SNN"},
		{HALSIE, 16, 3, 13, "SNN-ANN"},
		{HidalgoDepth, 15, 0, 15, "ANN"},
		{DOTIE, 1, 1, 0, "SNN"},
	}
	for _, c := range cases {
		n := MustByName(c.name)
		if len(n.Layers) != c.layers {
			t.Errorf("%s: %d layers, want %d", c.name, len(n.Layers), c.layers)
		}
		snn, ann := n.CountByDomain()
		if snn != c.snn || ann != c.ann {
			t.Errorf("%s: split %d SNN / %d ANN, want %d/%d", c.name, snn, ann, c.snn, c.ann)
		}
		if n.TypeDesc != c.typeDesc {
			t.Errorf("%s: type %q want %q", c.name, n.TypeDesc, c.typeDesc)
		}
	}
}

func TestZooValidatesAndHasWork(t *testing.T) {
	for _, n := range All() {
		if err := n.Validate(); err != nil {
			t.Fatalf("%s: %v", n.Name, err)
		}
		if n.TotalMACs() <= 0 {
			t.Fatalf("%s: no MACs", n.Name)
		}
		if n.TotalParamBytes(FP32) <= 0 {
			t.Fatalf("%s: no params", n.Name)
		}
		if n.BaselineAccuracy == 0 {
			t.Fatalf("%s: no baseline accuracy", n.Name)
		}
	}
}

func TestByNameErrors(t *testing.T) {
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown network accepted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustByName did not panic")
		}
	}()
	MustByName("nope")
}

func TestLayerMACs(t *testing.T) {
	l := &Layer{
		Kind: Conv, InC: 2, InH: 8, InW: 8, OutC: 4, OutH: 8, OutW: 8,
		K: 3, Stride: 1, Pad: 1, Timesteps: 2,
	}
	want := int64(4*8*8*2*3*3) * 2
	if got := l.MACs(); got != want {
		t.Fatalf("MACs=%d want %d", got, want)
	}
	// Sparse MACs scale with density.
	full := l.SparseMACs(1.0)
	tenth := l.SparseMACs(0.1)
	if tenth >= full || tenth == 0 {
		t.Fatalf("sparse MACs not scaling: %d vs %d", tenth, full)
	}
	// Density clamping.
	if l.SparseMACs(-1) != 0 {
		t.Fatal("negative density not clamped")
	}
	if l.SparseMACs(2) != l.SparseMACs(1) {
		t.Fatal("overdense not clamped")
	}
}

func TestLayerBytes(t *testing.T) {
	l := &Layer{Kind: Conv, InC: 2, InH: 4, InW: 4, OutC: 3, OutH: 4, OutW: 4, K: 3, Stride: 1, Pad: 1, Timesteps: 1}
	if l.ParamCount() != int64(3*2*3*3+3) {
		t.Fatalf("params=%d", l.ParamCount())
	}
	if l.ParamBytes(INT8) != l.ParamCount() {
		t.Fatal("INT8 bytes != count")
	}
	if l.OutBytes(FP16) != int64(3*4*4*2) {
		t.Fatalf("out bytes=%d", l.OutBytes(FP16))
	}
	if l.InBytes(FP32) != int64(2*4*4*4) {
		t.Fatalf("in bytes=%d", l.InBytes(FP32))
	}
}

func TestNetworkValidateCatchesBadDAG(t *testing.T) {
	n := MustByName(SpikeFlowNet)
	n.Preds[3] = []int{7} // points forward
	if err := n.Validate(); err == nil {
		t.Fatal("forward pred accepted")
	}
	n2 := MustByName(SpikeFlowNet)
	n2.Preds[3] = []int{-1}
	if err := n2.Validate(); err == nil {
		t.Fatal("negative pred accepted")
	}
	n3 := MustByName(SpikeFlowNet)
	n3.Layers[0].Timesteps = 0
	if err := n3.Validate(); err == nil {
		t.Fatal("zero timesteps accepted")
	}
}

func TestSuccs(t *testing.T) {
	n := MustByName(SpikeFlowNet)
	succs := n.Succs()
	// dec3 (index 8) feeds dec4 (9) and flow_mid (10).
	if len(succs[8]) != 2 {
		t.Fatalf("dec3 succs=%v", succs[8])
	}
	// flow (11) is terminal.
	if len(succs[11]) != 0 {
		t.Fatalf("flow succs=%v", succs[11])
	}
}

func TestSNNsDominateGainProfile(t *testing.T) {
	// SNN layers must carry timesteps > 1 and sparse activations; that
	// is the precondition for the paper's "SNNs gain most" result.
	for _, name := range []string{AdaptiveSpikeNet, SpikeFlowNet} {
		n := MustByName(name)
		for _, l := range n.Layers {
			if l.Domain == SNN {
				if l.Timesteps < 2 && name != DOTIE {
					t.Errorf("%s/%s: SNN layer with %d timesteps", name, l.Name, l.Timesteps)
				}
				if l.ActDensity > 0.2 && l.Name != "flow" {
					t.Errorf("%s/%s: SNN activation density %f too high", name, l.Name, l.ActDensity)
				}
			}
		}
	}
}

func runtimeInputs(rt *Runtime, seed int64, density float64) map[int]*sparse.Tensor {
	r := rand.New(rand.NewSource(seed))
	ins := make(map[int]*sparse.Tensor)
	for _, id := range rt.InputLayerIDs() {
		c, h, w := rt.InputShape(id)
		x := sparse.NewTensor(c, h, w)
		x.FillRandomSparse(r, density)
		ins[id] = x
	}
	return ins
}

func TestRuntimeForwardAllNetworks(t *testing.T) {
	for _, n := range All() {
		rt, err := NewRuntime(n, DenseExec, 1, 8) // 32x32
		if err != nil {
			t.Fatalf("%s: %v", n.Name, err)
		}
		outs, err := rt.Predict(runtimeInputs(rt, 2, 0.1))
		if err != nil {
			t.Fatalf("%s: %v", n.Name, err)
		}
		if len(outs) == 0 {
			t.Fatalf("%s: no outputs", n.Name)
		}
		for id, o := range outs {
			if o.Numel() == 0 {
				t.Fatalf("%s: output %d empty", n.Name, id)
			}
		}
	}
}

func TestRuntimeSparseMatchesDense(t *testing.T) {
	n := MustByName(SpikeFlowNet)
	dense, err := NewRuntime(n, DenseExec, 7, 8)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := NewRuntime(n, SparseExec, 7, 8)
	if err != nil {
		t.Fatal(err)
	}
	ins := runtimeInputs(dense, 3, 0.05)
	a, err := dense.Forward(ins)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sp.Forward(ins)
	if err != nil {
		t.Fatal(err)
	}
	for id := range a {
		if d := sparse.MaxAbsDiff(a[id], b[id]); d > 1e-3 {
			t.Fatalf("layer %d (%s): sparse differs from dense by %g", id, n.Layers[id].Name, d)
		}
	}
}

// TestRuntimeParallelBitIdentical: enabling a worker pool must not
// change a single output bit — full forward passes, both exec modes,
// across every zoo network.
func TestRuntimeParallelBitIdentical(t *testing.T) {
	pool := par.New(4)
	defer pool.Close()
	for _, n := range All() {
		for _, mode := range []ExecMode{DenseExec, SparseExec} {
			serial, err := NewRuntime(n, mode, 31, 8)
			if err != nil {
				t.Fatalf("%s: %v", n.Name, err)
			}
			parr, err := NewRuntime(n, mode, 31, 8) // same seed, same weights
			if err != nil {
				t.Fatalf("%s: %v", n.Name, err)
			}
			parr.SetParallel(pool)
			ins := runtimeInputs(serial, 13, 0.1)
			a, err := serial.Forward(ins)
			if err != nil {
				t.Fatalf("%s serial: %v", n.Name, err)
			}
			b, err := parr.Forward(ins)
			if err != nil {
				t.Fatalf("%s parallel: %v", n.Name, err)
			}
			for id := range a {
				if len(a[id].Data) != len(b[id].Data) {
					t.Fatalf("%s layer %d: shape mismatch", n.Name, id)
				}
				for i := range a[id].Data {
					if math.Float32bits(a[id].Data[i]) != math.Float32bits(b[id].Data[i]) {
						t.Fatalf("%s mode %v layer %d elem %d: parallel %g != serial %g",
							n.Name, mode, id, i, b[id].Data[i], a[id].Data[i])
					}
				}
			}
		}
	}
}

func TestRuntimeLIFProducesSparseBoundedRates(t *testing.T) {
	n := MustByName(AdaptiveSpikeNet)
	rt, err := NewRuntime(n, DenseExec, 9, 8)
	if err != nil {
		t.Fatal(err)
	}
	outs, err := rt.Forward(runtimeInputs(rt, 5, 0.1))
	if err != nil {
		t.Fatal(err)
	}
	// Spike rates are in [0, 1].
	for id, o := range outs {
		for _, v := range o.Data {
			if v < 0 || v > 1.0001 {
				t.Fatalf("layer %d rate %f outside [0,1]", id, v)
			}
		}
	}
	// The first encoder's output should be sparse (not everything fires).
	if d := outs[0].Density(); d > 0.9 {
		t.Fatalf("enc1 spike density %f suspiciously dense", d)
	}
}

func TestRuntimeErrors(t *testing.T) {
	n := MustByName(SpikeFlowNet)
	if _, err := NewRuntime(n, DenseExec, 1, 0); err == nil {
		t.Fatal("zero spatialDiv accepted")
	}
	rt, err := NewRuntime(n, DenseExec, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Missing input.
	if _, err := rt.Forward(map[int]*sparse.Tensor{}); err == nil {
		t.Fatal("missing input accepted")
	}
	// Wrong input shape.
	bad := sparse.NewTensor(5, 3, 3)
	if _, err := rt.Forward(map[int]*sparse.Tensor{0: bad}); err == nil {
		t.Fatal("bad input shape accepted")
	}
}

func TestRuntimeDeterminism(t *testing.T) {
	n := MustByName(DOTIE)
	run := func() *sparse.Tensor {
		rt, err := NewRuntime(n, DenseExec, 4, 8)
		if err != nil {
			t.Fatal(err)
		}
		outs, err := rt.Predict(runtimeInputs(rt, 6, 0.1))
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range outs {
			return o
		}
		return nil
	}
	a, b := run(), run()
	if sparse.MaxAbsDiff(a, b) != 0 {
		t.Fatal("runtime not deterministic under fixed seed")
	}
}

func TestTaskAndMetricStrings(t *testing.T) {
	if OpticalFlow.String() == "" || SemanticSegmentation.String() == "" ||
		DepthEstimation.String() == "" || ObjectTracking.String() == "" {
		t.Fatal("task strings empty")
	}
	if !MetricAEE.LowerBetter || MetricMIOU.LowerBetter {
		t.Fatal("metric direction wrong")
	}
	l := MustByName(DOTIE).Layers[0]
	if l.String() == "" || l.Kind.String() == "" || l.Domain.String() == "" {
		t.Fatal("layer strings empty")
	}
}
