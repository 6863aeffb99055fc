package sparse

import (
	"fmt"

	"evedge/internal/par"
)

// Filter is a 2D convolution kernel bank: OutC filters over InC input
// channels with a square K x K window. Weights are laid out
// [outc][inc][ky][kx]; Bias has one entry per output channel (may be
// nil).
type Filter struct {
	OutC, InC, K int
	Stride, Pad  int
	Weights      []float32
	Bias         []float32
	Deconv       bool // transposed convolution (upsampling) semantics
	DeconvOutPad int
}

// NewFilter allocates a zero-weight filter bank.
func NewFilter(outC, inC, k, stride, pad int) *Filter {
	if outC <= 0 || inC <= 0 || k <= 0 || stride <= 0 || pad < 0 {
		panic(fmt.Sprintf("sparse: invalid filter %d/%d k=%d s=%d p=%d", outC, inC, k, stride, pad))
	}
	return &Filter{
		OutC: outC, InC: inC, K: k, Stride: stride, Pad: pad,
		Weights: make([]float32, outC*inC*k*k),
	}
}

// W returns the weight for (outc, inc, ky, kx).
func (f *Filter) W(oc, ic, ky, kx int) float32 {
	return f.Weights[((oc*f.InC+ic)*f.K+ky)*f.K+kx]
}

// OutShape returns the output spatial size for an h x w input.
func (f *Filter) OutShape(h, w int) (oh, ow int) {
	if f.Deconv {
		return (h-1)*f.Stride - 2*f.Pad + f.K + f.DeconvOutPad,
			(w-1)*f.Stride - 2*f.Pad + f.K + f.DeconvOutPad
	}
	return (h+2*f.Pad-f.K)/f.Stride + 1, (w+2*f.Pad-f.K)/f.Stride + 1
}

// MACs returns the dense multiply-accumulate count for an h x w input:
// OutC * OH * OW * InC * K * K. This is the fixed cost the baseline
// pays regardless of how many events the frame holds.
func (f *Filter) MACs(h, w int) int64 {
	oh, ow := f.OutShape(h, w)
	return int64(f.OutC) * int64(oh) * int64(ow) * int64(f.InC) * int64(f.K) * int64(f.K)
}

// Every convolution kernel below has one exported entry point taking
// a worker pool and one unexported row-range body that writes (and
// first initializes) exactly the output rows it is handed. A nil pool
// or a pool of width 1 runs the body once over all rows; a wider pool
// runs it over disjoint row ranges (see runRows). Each output element
// is produced by exactly one range with the same accumulation order,
// so results are bit-identical for every pool width and schedule.

// checkConv validates the input channels and a caller-supplied output
// tensor against the filter's expected shape for in.
func checkConv(out, in *Tensor, f *Filter) error {
	if in.C != f.InC {
		return fmt.Errorf("sparse: conv input channels %d != filter %d", in.C, f.InC)
	}
	oh, ow := f.OutShape(in.H, in.W)
	if oh <= 0 || ow <= 0 {
		return fmt.Errorf("sparse: conv output %dx%d is empty", oh, ow)
	}
	if out.C != f.OutC || out.H != oh || out.W != ow {
		return fmt.Errorf("sparse: conv output tensor %dx%dx%d != expected %dx%dx%d",
			out.C, out.H, out.W, f.OutC, oh, ow)
	}
	return nil
}

// Conv2D computes the dense direct convolution of in with f into out,
// overwriting every element, so pooled tensors need no clearing.
// Deconvolution is a scatter with overlapping output windows and
// always runs serially.
func Conv2D(out, in *Tensor, f *Filter, pool *par.Pool) error {
	if err := checkConv(out, in, f); err != nil {
		return err
	}
	if f.Deconv {
		deconv2D(out, in, f)
		return nil
	}
	runRows(pool, rowTask{body: bodyConv, rows: f.OutC * out.H, out: out, in: in, f: f})
	return nil
}

// conv2DRows computes flattened (oc, oy) output rows [lo, hi) of the
// dense convolution; every element is independent.
func conv2DRows(out, in *Tensor, f *Filter, lo, hi int) {
	oh, ow := out.H, out.W
	for r := lo; r < hi; r++ {
		oc, oy := r/oh, r%oh
		var bias float32
		if f.Bias != nil {
			bias = f.Bias[oc]
		}
		for ox := 0; ox < ow; ox++ {
			sum := bias
			for ic := 0; ic < f.InC; ic++ {
				for ky := 0; ky < f.K; ky++ {
					iy := oy*f.Stride + ky - f.Pad
					if iy < 0 || iy >= in.H {
						continue
					}
					for kx := 0; kx < f.K; kx++ {
						ix := ox*f.Stride + kx - f.Pad
						if ix < 0 || ix >= in.W {
							continue
						}
						sum += f.W(oc, ic, ky, kx) * in.At(ic, iy, ix)
					}
				}
			}
			out.Set(oc, oy, ox, sum)
		}
	}
}

// deconv2D computes a transposed convolution into a validated out by
// scattering each input site through the kernel.
func deconv2D(out, in *Tensor, f *Filter) {
	oh, ow := out.H, out.W
	if f.Bias != nil {
		for oc := 0; oc < f.OutC; oc++ {
			for y := 0; y < oh; y++ {
				for x := 0; x < ow; x++ {
					out.Set(oc, y, x, f.Bias[oc])
				}
			}
		}
	} else {
		out.Zero()
	}
	for ic := 0; ic < f.InC; ic++ {
		for iy := 0; iy < in.H; iy++ {
			for ix := 0; ix < in.W; ix++ {
				v := in.At(ic, iy, ix)
				if v == 0 {
					continue
				}
				for oc := 0; oc < f.OutC; oc++ {
					for ky := 0; ky < f.K; ky++ {
						oy := iy*f.Stride + ky - f.Pad
						if oy < 0 || oy >= oh {
							continue
						}
						for kx := 0; kx < f.K; kx++ {
							ox := ix*f.Stride + kx - f.Pad
							if ox < 0 || ox >= ow {
								continue
							}
							out.Add(oc, oy, ox, f.W(oc, ic, ky, kx)*v)
						}
					}
				}
			}
		}
	}
}

// SparseConv2D computes the convolution touching only active input
// sites: each nonzero input value is scattered through the kernel into
// the affected output positions (gather-scatter / "rulebook" style).
// The arithmetic cost is proportional to nnz(in) * OutC * K * K rather
// than to the full output volume, which is the efficiency E2SF unlocks.
// The result is numerically identical to Conv2D minus the bias at
// positions with no contributing inputs (bias is applied everywhere,
// matching dense semantics). Deconvolution runs the serial scatter.
func SparseConv2D(out, in *Tensor, f *Filter, pool *par.Pool) error {
	if err := checkConv(out, in, f); err != nil {
		return err
	}
	if f.Deconv {
		deconv2D(out, in, f)
		return nil
	}
	runRows(pool, rowTask{body: bodySparseConv, rows: out.H, out: out, in: in, f: f})
	return nil
}

// sparseConvRows initializes output rows [lo, hi) (bias or zero) and
// scatters into them from the input rows that can reach them. Per
// output element the contributions arrive in (ic, iy, ix) ascending
// order whatever the range.
func sparseConvRows(out, in *Tensor, f *Filter, lo, hi int) {
	ow := out.W
	for oc := 0; oc < f.OutC; oc++ {
		var bias float32
		if f.Bias != nil {
			bias = f.Bias[oc]
		}
		row := out.Data[(oc*out.H+lo)*ow : (oc*out.H+hi)*ow]
		for i := range row {
			row[i] = bias
		}
	}
	// Input rows feeding oy in [lo, hi): iy = oy*S + ky - P for
	// ky in [0, K).
	iyLo := max(lo*f.Stride-f.Pad, 0)
	iyHi := min((hi-1)*f.Stride+f.K-f.Pad, in.H)
	for ic := 0; ic < in.C; ic++ {
		for iy := iyLo; iy < iyHi; iy++ {
			irow := in.Data[(ic*in.H+iy)*in.W : (ic*in.H+iy+1)*in.W]
			for ix, v := range irow {
				if v == 0 {
					continue
				}
				for ky := 0; ky < f.K; ky++ {
					num := iy + f.Pad - ky
					if num < 0 || num%f.Stride != 0 {
						continue
					}
					oy := num / f.Stride
					if oy < lo || oy >= hi {
						continue
					}
					for kx := 0; kx < f.K; kx++ {
						numx := ix + f.Pad - kx
						if numx < 0 || numx%f.Stride != 0 {
							continue
						}
						ox := numx / f.Stride
						if ox >= ow {
							continue
						}
						for oc := 0; oc < f.OutC; oc++ {
							out.Add(oc, oy, ox, f.W(oc, ic, ky, kx)*v)
						}
					}
				}
			}
		}
	}
}

// checkSubmanifold validates the submanifold geometry (stride 1, odd
// K, pad K/2) and a same-size output tensor.
func checkSubmanifold(out, in *Tensor, f *Filter) error {
	if in.C != f.InC {
		return fmt.Errorf("sparse: conv input channels %d != filter %d", in.C, f.InC)
	}
	if f.Stride != 1 || f.K%2 == 0 || f.Pad != f.K/2 {
		return fmt.Errorf("sparse: submanifold conv needs stride 1, odd K, pad K/2 (got s=%d k=%d p=%d)",
			f.Stride, f.K, f.Pad)
	}
	if out.C != f.OutC || out.H != in.H || out.W != in.W {
		return fmt.Errorf("sparse: conv output tensor %dx%dx%d != expected %dx%dx%d",
			out.C, out.H, out.W, f.OutC, in.H, in.W)
	}
	return nil
}

// SubmanifoldConv2D computes a submanifold sparse convolution into
// out: outputs are produced only at sites that are active in the
// input, preventing the active set from dilating layer after layer,
// and inactive sites are zeroed. Requires stride 1 and equal
// input/output spatial size (K odd, Pad == K/2). Active sites are
// found by a direct row-major scan, so the kernel allocates nothing.
func SubmanifoldConv2D(out, in *Tensor, f *Filter, pool *par.Pool) error {
	if err := checkSubmanifold(out, in, f); err != nil {
		return err
	}
	runRows(pool, rowTask{body: bodySubmanifold, rows: in.H, out: out, in: in, f: f})
	return nil
}

// submanifoldRows zeroes output rows [lo, hi) and runs the active-site
// scan over them with the per-(oc, ic) weight-row bases hoisted out of
// the site loop; the accumulation order per site is (oc, ic, ky, kx).
func submanifoldRows(out, in *Tensor, f *Filter, lo, hi int) {
	zeroRows(out, lo, hi)
	half := f.K / 2
	kk := f.K * f.K
	for oy := lo; oy < hi; oy++ {
	site:
		for ox := 0; ox < in.W; ox++ {
			active := false
			for c := 0; c < in.C; c++ {
				if in.At(c, oy, ox) != 0 {
					active = true
					break
				}
			}
			if !active {
				continue site
			}
			for oc := 0; oc < f.OutC; oc++ {
				var sum float32
				if f.Bias != nil {
					sum = f.Bias[oc]
				}
				wbase := f.Weights[oc*f.InC*kk:]
				for ic := 0; ic < f.InC; ic++ {
					wch := wbase[ic*kk:]
					for ky := 0; ky < f.K; ky++ {
						iy := oy + ky - half
						if iy < 0 || iy >= in.H {
							continue
						}
						wrow := wch[ky*f.K : ky*f.K+f.K]
						irow := in.Data[(ic*in.H+iy)*in.W:]
						for kx := 0; kx < f.K; kx++ {
							ix := ox + kx - half
							if ix < 0 || ix >= in.W {
								continue
							}
							sum += wrow[kx] * irow[ix]
						}
					}
				}
				out.Set(oc, oy, ox, sum)
			}
		}
	}
}

// zeroRows clears rows [lo, hi) of every channel of t.
func zeroRows(t *Tensor, lo, hi int) {
	for c := 0; c < t.C; c++ {
		row := t.Data[(c*t.H+lo)*t.W : (c*t.H+hi)*t.W]
		for i := range row {
			row[i] = 0
		}
	}
}

// SparseConvMACs estimates the multiply-accumulate count of the sparse
// path for a frame of the given active-site count: each active input
// site scatters through OutC * K * K weights per input channel.
func SparseConvMACs(activeSites int, f *Filter) int64 {
	return int64(activeSites) * int64(f.InC) * int64(f.OutC) * int64(f.K) * int64(f.K)
}

// MaxPool2D computes a max pooling with a k x k window and the given
// stride.
func MaxPool2D(in *Tensor, k, stride int) (*Tensor, error) {
	if k <= 0 || stride <= 0 {
		return nil, fmt.Errorf("sparse: invalid pool k=%d stride=%d", k, stride)
	}
	oh := (in.H-k)/stride + 1
	ow := (in.W-k)/stride + 1
	if oh <= 0 || ow <= 0 {
		return nil, fmt.Errorf("sparse: pool output %dx%d is empty", oh, ow)
	}
	out := NewTensor(in.C, oh, ow)
	for c := 0; c < in.C; c++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				best := in.At(c, oy*stride, ox*stride)
				for ky := 0; ky < k; ky++ {
					for kx := 0; kx < k; kx++ {
						if v := in.At(c, oy*stride+ky, ox*stride+kx); v > best {
							best = v
						}
					}
				}
				out.Set(c, oy, ox, best)
			}
		}
	}
	return out, nil
}

// AvgPool2D computes average pooling with a k x k window and stride.
func AvgPool2D(in *Tensor, k, stride int) (*Tensor, error) {
	if k <= 0 || stride <= 0 {
		return nil, fmt.Errorf("sparse: invalid pool k=%d stride=%d", k, stride)
	}
	oh := (in.H-k)/stride + 1
	ow := (in.W-k)/stride + 1
	if oh <= 0 || ow <= 0 {
		return nil, fmt.Errorf("sparse: pool output %dx%d is empty", oh, ow)
	}
	out := NewTensor(in.C, oh, ow)
	inv := 1 / float32(k*k)
	for c := 0; c < in.C; c++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				var sum float32
				for ky := 0; ky < k; ky++ {
					for kx := 0; kx < k; kx++ {
						sum += in.At(c, oy*stride+ky, ox*stride+kx)
					}
				}
				out.Set(c, oy, ox, sum*inv)
			}
		}
	}
	return out, nil
}
