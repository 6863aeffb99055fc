package sparse

import (
	"fmt"
	"math/rand"
	"testing"

	"evedge/internal/par"
)

// MatMul computes a x b with a plain blocked triple loop. Panics on
// shape mismatch. It is the dense reference for SpMM and im2col.
func MatMul(a, b *Mat) *Mat {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("sparse: matmul shape mismatch %dx%d x %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := NewMat(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		orow := out.Data[i*out.Cols : (i+1)*out.Cols]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Data[k*b.Cols : (k+1)*b.Cols]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out
}

// Im2colConv2D computes the same dense convolution via im2col + GEMM,
// the formulation GPU libraries use; it cross-checks Conv2D.
func Im2colConv2D(in *Tensor, f *Filter) (*Tensor, error) {
	if in.C != f.InC || f.Deconv {
		return nil, fmt.Errorf("sparse: im2col needs a %d-channel forward conv", f.InC)
	}
	oh, ow := f.OutShape(in.H, in.W)
	if oh <= 0 || ow <= 0 {
		return nil, fmt.Errorf("sparse: conv output %dx%d is empty", oh, ow)
	}
	kk := f.InC * f.K * f.K
	cols := NewMat(kk, oh*ow)
	for ic := 0; ic < f.InC; ic++ {
		for ky := 0; ky < f.K; ky++ {
			for kx := 0; kx < f.K; kx++ {
				row := (ic*f.K+ky)*f.K + kx
				for oy := 0; oy < oh; oy++ {
					iy := oy*f.Stride + ky - f.Pad
					for ox := 0; ox < ow; ox++ {
						ix := ox*f.Stride + kx - f.Pad
						var v float32
						if iy >= 0 && iy < in.H && ix >= 0 && ix < in.W {
							v = in.At(ic, iy, ix)
						}
						cols.Set(row, oy*ow+ox, v)
					}
				}
			}
		}
	}
	wmat := &Mat{Rows: f.OutC, Cols: kk, Data: f.Weights}
	prod := MatMul(wmat, cols)
	res := &Tensor{C: f.OutC, H: oh, W: ow, Data: prod.Data}
	if f.Bias != nil {
		for oc := 0; oc < f.OutC; oc++ {
			for i := oc * oh * ow; i < (oc+1)*oh*ow; i++ {
				res.Data[i] += f.Bias[oc]
			}
		}
	}
	return res, nil
}

// convKernel is the shared signature of the pooled convolution entry
// points.
type convKernel func(out, in *Tensor, f *Filter, pool *par.Pool) error

// newConv runs kernel serially into a fresh output tensor of f's shape
// for in (1x1 when that shape is empty, so the kernel reports the
// error).
func newConv(kernel convKernel, in *Tensor, f *Filter) (*Tensor, error) {
	oh, ow := f.OutShape(in.H, in.W)
	out := NewTensor(f.OutC, max(oh, 1), max(ow, 1))
	if err := kernel(out, in, f, nil); err != nil {
		return nil, err
	}
	return out, nil
}

// BenchmarkAblationSparseConvIm2col is the im2col arm of the root
// dense/im2col/sparse kernel ablation, on the same input.
func BenchmarkAblationSparseConvIm2col(b *testing.B) {
	in := NewTensor(2, 128, 128)
	in.FillRandomSparse(rand.New(rand.NewSource(3)), 0.05)
	f := NewFilter(16, 2, 3, 1, 1)
	for i := range f.Weights {
		f.Weights[i] = 0.01 * float32(i%7)
	}
	for i := 0; i < b.N; i++ {
		if _, err := Im2colConv2D(in, f); err != nil {
			b.Fatal(err)
		}
	}
}
