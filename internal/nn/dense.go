package nn

import (
	"fmt"
	"math"

	"stellaris/internal/rng"
	"stellaris/internal/tensor"
)

// Dense is a fully connected layer: out = in*Wᵀ + b, with W of shape
// OutDim x InDim stored row-major in a single Param.
type Dense struct {
	In, Out int
	W, B    *Param

	weightMat
	lastIn *tensor.Mat // cached for backward
	out    *tensor.Mat // reused forward output buffer
	dIn    *tensor.Mat // reused buffer
	dW     *tensor.Mat // reused gradient scratch
}

// DenseSize is the number of weights a Dense layer from in to out takes
// from its Slab: out*in for W, then out for b.
func DenseSize(in, out int) int { return out*in + out }

// NewDense creates a dense layer on s with Xavier-uniform weights, the
// initialization the paper's Tanh MLPs use, seeded from r.
func NewDense(s *Slab, in, out int, r *rng.RNG) *Dense {
	d := &Dense{In: in, Out: out}
	d.W, d.B = s.weightsAndBias(fmt.Sprintf("dense%dx%d", out, in), DenseSize(in, out), out)
	d.w = tensor.Mat{Rows: out, Cols: in, Data: d.W.Data}
	limit := math.Sqrt(6.0 / float64(in+out))
	for i := range d.W.Data {
		d.W.Data[i] = (2*r.Float64() - 1) * limit
	}
	return d
}

// NewDenseScaled creates a dense layer with orthogonal-ish scaled init:
// Xavier weights multiplied by gain. Policy output heads conventionally
// use a small gain (0.01) so initial action distributions stay near
// uniform, which stabilizes early PPO updates.
func NewDenseScaled(s *Slab, in, out int, gain float64, r *rng.RNG) *Dense {
	d := NewDense(s, in, out, r)
	tensor.Scale(gain, d.W.Data)
	return d
}

// Name implements Layer.
func (d *Dense) Name() string { return fmt.Sprintf("Dense(%d->%d)", d.In, d.Out) }

// OutDim implements Layer.
func (d *Dense) OutDim(in int) int {
	if in != d.In {
		panic(fmt.Sprintf("nn: %s fed width %d", d.Name(), in))
	}
	return d.Out
}

// Params implements Layer.
func (d *Dense) Params() []*Param { return []*Param{d.W, d.B} }

// Forward implements Layer.
func (d *Dense) Forward(in *tensor.Mat) *tensor.Mat {
	if in.Cols != d.In {
		panic(fmt.Sprintf("nn: %s fed %d cols", d.Name(), in.Cols))
	}
	d.lastIn = in
	out := ensureMat(&d.out, in.Rows, d.Out)
	d.product(out, in)
	tensor.AddBiasRows(out, d.B.Data)
	return out
}

func (d *Dense) pack(rows int) { d.packed = d.transpose(rows, 1) }

// Backward implements Layer.
func (d *Dense) Backward(dOut *tensor.Mat) *tensor.Mat {
	d.BackwardParams(dOut)
	dIn := ensureMat(&d.dIn, dOut.Rows, d.In)
	tensor.MatMul(dIn, dOut, &d.w) // dIn = dOut * W
	return dIn
}

// BackwardParams implements Layer: dW += dOutᵀ * in ; db += colsum(dOut).
func (d *Dense) BackwardParams(dOut *tensor.Mat) {
	if d.lastIn == nil {
		panic("nn: Dense.Backward before Forward")
	}
	dW := ensureMat(&d.dW, d.Out, d.In)
	tensor.MatMulATB(dW, dOut, d.lastIn) // overwrites dW
	tensor.Axpy(1, dW.Data, d.W.Grad)
	tensor.SumRows(d.B.Grad, dOut)
}
