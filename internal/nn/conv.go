package nn

import (
	"fmt"
	"math"

	"stellaris/internal/rng"
	"stellaris/internal/tensor"
)

// Conv2D is a valid (unpadded) strided 2-D convolution over channel-major
// flattened images. W has shape OutC x (InC*KH*KW), one filter per row.
// The batch's receptive fields are laid out by im2col as one
// (rows·positions) x PatchSize matrix, sample after sample, so the
// forward pass is a single product for the whole batch:
// res = cols * Wᵀ, then out[i][oc][p] = res[i·positions+p][oc] + b[oc].
type Conv2D struct {
	Shape tensor.ConvShape
	W, B  *Param

	weightMat // W as an OutC x PatchSize matrix

	cols     *tensor.Mat // im2col of the last Forward's batch
	lastRows int

	// Reused forward/backward buffers (see package doc on ownership).
	out, res         *tensor.Mat
	dIn, dRes, dCols *tensor.Mat
	dW               *tensor.Mat
}

// ConvSize is the number of weights a Conv2D layer of shape takes from
// its Slab: OutC filters of PatchSize for W, then OutC for b.
func ConvSize(shape tensor.ConvShape) int { return shape.OutC*shape.PatchSize() + shape.OutC }

// NewConv2D creates a convolution layer on s with He-uniform initialized
// filters (the conventional pairing with ReLU trunks), seeded from r.
func NewConv2D(s *Slab, shape tensor.ConvShape, r *rng.RNG) *Conv2D {
	if err := shape.Validate(); err != nil {
		panic(err)
	}
	c := &Conv2D{Shape: shape}
	c.W, c.B = s.weightsAndBias(fmt.Sprintf("conv%d", shape.OutC), ConvSize(shape), shape.OutC)
	c.w = tensor.Mat{Rows: shape.OutC, Cols: shape.PatchSize(), Data: c.W.Data}
	limit := math.Sqrt(6.0 / float64(shape.PatchSize()))
	for i := range c.W.Data {
		c.W.Data[i] = (2*r.Float64() - 1) * limit
	}
	return c
}

// Name implements Layer.
func (c *Conv2D) Name() string {
	s := c.Shape
	return fmt.Sprintf("Conv2D(%dx%dx%d->%d@%dx%ds%d)", s.InC, s.InH, s.InW, s.OutC, s.KH, s.KW, s.Stride)
}

// OutDim implements Layer.
func (c *Conv2D) OutDim(in int) int {
	if in != c.Shape.InSize() {
		panic(fmt.Sprintf("nn: %s fed width %d", c.Name(), in))
	}
	return c.Shape.OutSize()
}

// Params implements Layer.
func (c *Conv2D) Params() []*Param { return []*Param{c.W, c.B} }

// sample returns rows [i·positions, (i+1)·positions) of m, one sample's
// block of a batch-wide matrix.
func (c *Conv2D) sample(m *tensor.Mat, i int) tensor.Mat {
	positions := c.Shape.OutH * c.Shape.OutW
	return tensor.Mat{Rows: positions, Cols: m.Cols, Data: m.Data[i*positions*m.Cols : (i+1)*positions*m.Cols]}
}

// Forward implements Layer.
func (c *Conv2D) Forward(in *tensor.Mat) *tensor.Mat {
	s := &c.Shape
	if in.Cols != s.InSize() {
		panic(fmt.Sprintf("nn: %s fed %d cols", c.Name(), in.Cols))
	}
	c.lastRows = in.Rows
	positions := s.OutH * s.OutW
	cols := ensureMat(&c.cols, in.Rows*positions, s.PatchSize())
	for i := 0; i < in.Rows; i++ {
		block := c.sample(cols, i)
		s.Im2Col(&block, in.Row(i))
	}
	res := ensureMat(&c.res, in.Rows*positions, s.OutC)
	c.product(res, cols)
	// res rows are position-major, the output layout is channel-major:
	// transpose while scattering into the flat row.
	out := ensureMat(&c.out, in.Rows, s.OutSize())
	for i := 0; i < in.Rows; i++ {
		orow := out.Row(i)
		for p := 0; p < positions; p++ {
			rrow := res.Row(i*positions + p)
			for oc, bias := range c.B.Data {
				orow[oc*positions+p] = rrow[oc] + bias
			}
		}
	}
	return out
}

// pack packs W for a run of forwards over rows samples, each
// OutH·OutW rows of the product.
func (c *Conv2D) pack(rows int) {
	positions := c.Shape.OutH * c.Shape.OutW
	c.packed = c.transpose(rows*positions, positions)
}

// Backward implements Layer.
func (c *Conv2D) Backward(dOut *tensor.Mat) *tensor.Mat {
	c.BackwardParams(dOut) // leaves dOut, position-major, in c.dRes
	s := &c.Shape
	// dCols = dRes * W for the whole batch, then each sample's block is
	// scattered back onto its image.
	dCols := ensureMat(&c.dCols, c.dRes.Rows, s.PatchSize())
	tensor.MatMul(dCols, c.dRes, &c.w)
	dIn := ensureMat(&c.dIn, dOut.Rows, s.InSize())
	dIn.Zero() // Col2Im accumulates into its destination
	for i := 0; i < dOut.Rows; i++ {
		block := c.sample(dCols, i)
		s.Col2Im(dIn.Row(i), &block)
	}
	return dIn
}

// BackwardParams implements Layer: db += colsum(dRes), and per sample
// dW += dResᵢᵀ * colsᵢ. The weight gradient stays one product per sample
// although the operands are batch-wide: a sample's positions are summed
// from zero before they meet W.Grad, and one product over the whole
// batch would associate that sum differently.
func (c *Conv2D) BackwardParams(dOut *tensor.Mat) {
	s := &c.Shape
	if c.lastRows != dOut.Rows {
		panic("nn: Conv2D.Backward batch mismatch")
	}
	positions := s.OutH * s.OutW
	// Re-transpose the channel-major flat gradient to position-major rows.
	dRes := ensureMat(&c.dRes, dOut.Rows*positions, s.OutC)
	for i := 0; i < dOut.Rows; i++ {
		drow := dOut.Row(i)
		for p := 0; p < positions; p++ {
			rrow := dRes.Row(i*positions + p)
			for oc := range rrow {
				rrow[oc] = drow[oc*positions+p]
			}
		}
	}
	tensor.SumRows(c.B.Grad, dRes)
	dW := ensureMat(&c.dW, s.OutC, s.PatchSize())
	for i := 0; i < dOut.Rows; i++ {
		dResI, colsI := c.sample(dRes, i), c.sample(c.cols, i)
		tensor.MatMulATB(dW, &dResI, &colsI)
		tensor.Axpy(1, dW.Data, c.W.Grad)
	}
}
