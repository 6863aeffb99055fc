package nn

import (
	"fmt"
	"math/rand"

	"evedge/internal/par"
	"evedge/internal/sparse"
)

// ExecMode selects the arithmetic path of the numeric runtime.
type ExecMode int

// Execution modes.
const (
	// DenseExec runs plain dense convolutions — the all-GPU baseline's
	// arithmetic.
	DenseExec ExecMode = iota
	// SparseExec runs gather-scatter sparse convolutions whose work is
	// proportional to active sites — the E2SF-enabled path.
	SparseExec
)

// Runtime instantiates a Network with concrete (randomly initialized)
// weights and executes it numerically. It exists for functional tests
// and examples: the experiment harness uses the analytic profiles, not
// this runtime, exactly as the paper's search consumes profiled layer
// times rather than re-running inference.
type Runtime struct {
	Net     *Network
	Mode    ExecMode
	VThresh float32 // LIF firing threshold
	Leak    float32 // LIF leak factor per timestep (0 = IF)

	filters map[int]*sparse.Filter
	// spatialDiv scales down the spatial extent so tests stay fast;
	// channel counts are preserved.
	spatialDiv int

	// pool, when set via SetParallel, splits every convolution's rows
	// across workers. The kernels are bit-identical for every pool
	// width, so outputs do not depend on whether or how wide
	// parallelism is enabled.
	pool *par.Pool
}

// NewRuntime builds a runtime with weights drawn from seed. spatialDiv
// >= 1 divides the spatial resolution (1 = native 256x256).
func NewRuntime(net *Network, mode ExecMode, seed int64, spatialDiv int) (*Runtime, error) {
	if err := net.Validate(); err != nil {
		return nil, err
	}
	if spatialDiv < 1 {
		return nil, fmt.Errorf("nn: spatialDiv must be >= 1, got %d", spatialDiv)
	}
	r := rand.New(rand.NewSource(seed))
	rt := &Runtime{
		Net: net, Mode: mode, VThresh: 0.5, Leak: 0.9,
		filters:    make(map[int]*sparse.Filter),
		spatialDiv: spatialDiv,
	}
	for _, l := range net.Layers {
		switch l.Kind {
		case Conv, Deconv:
			f := sparse.NewFilter(l.OutC, l.InC, l.K, l.Stride, l.Pad)
			f.Deconv = l.Kind == Deconv
			// Kaiming-ish init keeps activations in range layer to layer.
			scale := float32(1.0) / float32(l.InC*l.K*l.K)
			for i := range f.Weights {
				f.Weights[i] = (r.Float32()*2 - 1) * scale * 3
			}
			f.Bias = make([]float32, l.OutC)
			rt.filters[l.ID] = f
		}
	}
	return rt, nil
}

// InputShape returns the (C, H, W) the runtime expects for the given
// input layer.
func (rt *Runtime) InputShape(layerID int) (c, h, w int) {
	l := rt.Net.Layers[layerID]
	return l.InC, l.InH / rt.spatialDiv, l.InW / rt.spatialDiv
}

// InputLayerIDs returns the IDs of layers with no predecessors, in
// order.
func (rt *Runtime) InputLayerIDs() []int {
	var out []int
	for i, ps := range rt.Net.Preds {
		if len(ps) == 0 {
			out = append(out, i)
		}
	}
	return out
}

// OutputLayerIDs returns the IDs of layers with no successors.
func (rt *Runtime) OutputLayerIDs() []int {
	succs := rt.Net.Succs()
	var out []int
	for i := range rt.Net.Layers {
		if len(succs[i]) == 0 {
			out = append(out, i)
		}
	}
	return out
}

// Forward executes the network on the given inputs (one tensor per
// input layer, keyed by layer ID) and returns every layer's output.
func (rt *Runtime) Forward(inputs map[int]*sparse.Tensor) (map[int]*sparse.Tensor, error) {
	outs := make(map[int]*sparse.Tensor, len(rt.Net.Layers))
	for i, l := range rt.Net.Layers {
		var in *sparse.Tensor
		if len(rt.Net.Preds[i]) == 0 {
			x, ok := inputs[i]
			if !ok {
				return nil, fmt.Errorf("nn: missing input for layer %d (%s)", i, l.Name)
			}
			wantC, wantH, wantW := rt.InputShape(i)
			if x.C != wantC || x.H != wantH || x.W != wantW {
				return nil, fmt.Errorf("nn: input for %s is %dx%dx%d, want %dx%dx%d",
					l.Name, x.C, x.H, x.W, wantC, wantH, wantW)
			}
			in = x
		} else if len(rt.Net.Preds[i]) == 1 {
			in = outs[rt.Net.Preds[i][0]]
		} else {
			var parts []*sparse.Tensor
			for _, p := range rt.Net.Preds[i] {
				parts = append(parts, outs[p])
			}
			cat, err := concatChannels(parts)
			if err != nil {
				return nil, fmt.Errorf("nn: layer %s: %w", l.Name, err)
			}
			in = cat
		}
		out, err := rt.execLayer(l, in)
		if err != nil {
			return nil, fmt.Errorf("nn: layer %s: %w", l.Name, err)
		}
		outs[i] = out
	}
	return outs, nil
}

// Predict runs Forward and returns only the terminal layer outputs.
func (rt *Runtime) Predict(inputs map[int]*sparse.Tensor) (map[int]*sparse.Tensor, error) {
	outs, err := rt.Forward(inputs)
	if err != nil {
		return nil, err
	}
	res := make(map[int]*sparse.Tensor)
	for _, id := range rt.OutputLayerIDs() {
		res[id] = outs[id]
	}
	return res, nil
}

func (rt *Runtime) execLayer(l *Layer, in *sparse.Tensor) (*sparse.Tensor, error) {
	switch l.Kind {
	case Conv, Deconv:
		if l.Domain == SNN {
			return rt.execLIF(l, in)
		}
		out, err := rt.conv(l, in)
		if err != nil {
			return nil, err
		}
		return out.ReLU(), nil
	case Residual:
		return in.Clone().ReLU(), nil
	case Pool:
		return sparse.MaxPool2D(in, l.K, l.Stride)
	case FC:
		return nil, fmt.Errorf("FC layers are not used by the zoo runtime")
	}
	return nil, fmt.Errorf("unknown layer kind %v", l.Kind)
}

// SetParallel wires a worker pool into the runtime's convolution
// kernels; a nil pool restores the serial path. Outputs are
// bit-identical either way.
func (rt *Runtime) SetParallel(pool *par.Pool) { rt.pool = pool }

func (rt *Runtime) conv(l *Layer, in *sparse.Tensor) (*sparse.Tensor, error) {
	f := rt.filters[l.ID]
	oh, ow := f.OutShape(in.H, in.W)
	if oh <= 0 || ow <= 0 {
		return nil, fmt.Errorf("conv output %dx%d is empty", oh, ow)
	}
	out := sparse.NewTensor(f.OutC, oh, ow)
	kernel := sparse.Conv2D
	if rt.Mode == SparseExec {
		kernel = sparse.SparseConv2D
	}
	if err := kernel(out, in, f, rt.pool); err != nil {
		return nil, err
	}
	return out, nil
}

// execLIF runs leaky integrate-and-fire dynamics over the layer's
// timesteps with the (rate-coded) input held constant, returning the
// mean spike rate per output element — a real thresholding
// nonlinearity that produces genuinely sparse activations.
func (rt *Runtime) execLIF(l *Layer, in *sparse.Tensor) (*sparse.Tensor, error) {
	drive, err := rt.conv(l, in)
	if err != nil {
		return nil, err
	}
	v := sparse.NewTensor(drive.C, drive.H, drive.W)
	rate := sparse.NewTensor(drive.C, drive.H, drive.W)
	T := l.Timesteps
	for t := 0; t < T; t++ {
		for i := range v.Data {
			v.Data[i] = v.Data[i]*rt.Leak + drive.Data[i]
			if v.Data[i] >= rt.VThresh {
				rate.Data[i]++
				v.Data[i] -= rt.VThresh
			}
		}
	}
	rate.Scale(1 / float32(T))
	return rate, nil
}

func concatChannels(parts []*sparse.Tensor) (*sparse.Tensor, error) {
	h, w := parts[0].H, parts[0].W
	c := 0
	for _, p := range parts {
		if p.H != h || p.W != w {
			return nil, fmt.Errorf("concat spatial mismatch %dx%d vs %dx%d", p.H, p.W, h, w)
		}
		c += p.C
	}
	out := sparse.NewTensor(c, h, w)
	off := 0
	for _, p := range parts {
		copy(out.Data[off:], p.Data)
		off += len(p.Data)
	}
	return out, nil
}
