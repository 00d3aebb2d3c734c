// Package nn implements the small feed-forward neural networks used by
// Stellaris policies and critics: dense and convolutional layers with
// hand-written backward passes, assembled into sequential Networks whose
// parameters can be flattened to a single vector.
//
// The flattened-vector view is the unit of exchange in the distributed
// system: learner functions ship gradients, and the parameter function
// ships policy weights, as contiguous []float64 through the cache. That
// mirrors the paper's use of serialized PyTorch state dicts over Redis.
//
// Layers cache activations from the most recent Forward call, so a
// Network must not be shared across goroutines; each learner function
// builds its own replica from a weight vector (exactly as a serverless
// function would deserialize a model).
//
// Layers also own their output buffers: the matrix returned by Forward
// or Backward is reused by that layer's next Forward/Backward call.
// Callers that need results to outlive the next pass must copy them
// (Model.Act/Values already do).
package nn

import (
	"fmt"

	"stellaris/internal/tensor"
)

// Param is one learnable tensor with its accumulated gradient.
type Param struct {
	Name string
	Data []float64
	Grad []float64
}

func newParam(name string, n int) *Param {
	return &Param{Name: name, Data: make([]float64, n), Grad: make([]float64, n)}
}

// ensureMat returns *slot resized to rows x cols for reuse as a layer
// output or scratch buffer, reallocating only when the backing array is
// too small. Contents are unspecified: callers must fully overwrite.
func ensureMat(slot **tensor.Mat, rows, cols int) *tensor.Mat {
	m := *slot
	if m != nil && cap(m.Data) >= rows*cols {
		m.Rows, m.Cols = rows, cols
		m.Data = m.Data[:rows*cols]
		return m
	}
	m = tensor.NewMat(rows, cols)
	*slot = m
	return m
}

// Layer is a differentiable network stage operating on batches: matrices
// whose rows are independent samples.
type Layer interface {
	// Forward consumes a batch and returns the layer output. The input
	// must remain unmodified until Backward completes. The returned
	// matrix is owned by the layer and is only valid until the layer's
	// next Forward call.
	Forward(in *tensor.Mat) *tensor.Mat
	// Backward consumes dL/dOut and returns dL/dIn, accumulating
	// parameter gradients into Params().Grad.
	Backward(dOut *tensor.Mat) *tensor.Mat
	// BackwardParams is Backward without dL/dIn: it accumulates the same
	// parameter gradients, bit for bit, and skips the work only the
	// input gradient needs. A network's first layer is called this way
	// when nobody reads the gradient with respect to the batch.
	BackwardParams(dOut *tensor.Mat)
	// Params returns the layer's learnable parameters (possibly empty).
	Params() []*Param
	// OutDim returns the per-sample output width given input width in.
	OutDim(in int) int
	// Name identifies the layer for diagnostics.
	Name() string
}

// Network is a sequential stack of layers.
type Network struct {
	Layers []Layer
	inDim  int
}

// NewNetwork assembles layers for a fixed per-sample input width.
func NewNetwork(inDim int, layers ...Layer) *Network {
	return &Network{Layers: layers, inDim: inDim}
}

// InDim returns the per-sample input width.
func (n *Network) InDim() int { return n.inDim }

// OutDim returns the per-sample output width.
func (n *Network) OutDim() int {
	d := n.inDim
	for _, l := range n.Layers {
		d = l.OutDim(d)
	}
	return d
}

// Forward runs the batch through all layers.
func (n *Network) Forward(in *tensor.Mat) *tensor.Mat {
	out := in
	for _, l := range n.Layers {
		out = l.Forward(out)
	}
	return out
}

// Backward propagates dL/dOut back through all layers, accumulating
// parameter gradients, and returns dL/dIn.
func (n *Network) Backward(dOut *tensor.Mat) *tensor.Mat {
	d := dOut
	for i := len(n.Layers) - 1; i >= 0; i-- {
		d = n.Layers[i].Backward(d)
	}
	return d
}

// BackwardParams is Backward for callers that discard dL/dIn, as every
// learner does: the first layer is asked for its parameter gradients
// only. Every Param.Grad ends bit-identical to Backward's.
func (n *Network) BackwardParams(dOut *tensor.Mat) {
	if len(n.Layers) == 0 {
		return
	}
	d := dOut
	for i := len(n.Layers) - 1; i > 0; i-- {
		d = n.Layers[i].Backward(d)
	}
	n.Layers[0].BackwardParams(d)
}

// Params returns all learnable parameters in layer order.
func (n *Network) Params() []*Param {
	var ps []*Param
	for _, l := range n.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// NumParams returns the total number of scalar parameters.
func (n *Network) NumParams() int {
	total := 0
	for _, p := range n.Params() {
		total += len(p.Data)
	}
	return total
}

// ZeroGrad clears all accumulated gradients.
func (n *Network) ZeroGrad() {
	for _, p := range n.Params() {
		for i := range p.Grad {
			p.Grad[i] = 0
		}
	}
}

// FlattenParams copies all parameter values into a single vector.
func (n *Network) FlattenParams() []float64 {
	out := make([]float64, 0, n.NumParams())
	for _, p := range n.Params() {
		out = append(out, p.Data...)
	}
	return out
}

// FlattenGrads copies all accumulated gradients into a single vector.
func (n *Network) FlattenGrads() []float64 {
	out := make([]float64, 0, n.NumParams())
	for _, p := range n.Params() {
		out = append(out, p.Grad...)
	}
	return out
}

// SetParams loads a flattened parameter vector produced by FlattenParams
// on a network of identical architecture.
func (n *Network) SetParams(flat []float64) error {
	if len(flat) != n.NumParams() {
		return fmt.Errorf("nn: SetParams length %d != %d", len(flat), n.NumParams())
	}
	off := 0
	for _, p := range n.Params() {
		copy(p.Data, flat[off:off+len(p.Data)])
		off += len(p.Data)
	}
	return nil
}

// ScaleGrads multiplies all accumulated gradients by alpha.
func (n *Network) ScaleGrads(alpha float64) {
	for _, p := range n.Params() {
		tensor.Scale(alpha, p.Grad)
	}
}
