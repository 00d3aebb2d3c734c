// Package nn implements the small feed-forward neural networks used by
// Stellaris policies and critics: dense and convolutional layers with
// hand-written backward passes, assembled into sequential Networks.
//
// A flat parameter vector is the unit of exchange in the distributed
// system: learner functions ship gradients, and the parameter function
// ships policy weights, as contiguous []float64 through the cache. That
// mirrors the paper's use of serialized PyTorch state dicts over Redis.
// Here the flat vector is also the storage: every layer with parameters
// is built on a Slab and carves its Param.Data out of the Slab's one
// weight vector, in build order, and the first ZeroGrad or Backward
// carves every Param.Grad out of one gradient vector at the same
// offsets. A model reads and writes both in place — a fetched policy is
// decoded straight into the weights, and a learner's gradient is the
// gradient vector itself, owned by the Slab and valid until its next
// ZeroGrad (algo.Model.Grads).
//
// Layers cache activations from the most recent Forward call, so a
// Network must not be shared across goroutines; each learner function
// builds its own replica and loads a weight vector into it (exactly as
// a serverless function would deserialize a model).
//
// Layers also own their output buffers: the matrix returned by Forward
// or Backward is reused by that layer's next Forward/Backward call.
// Callers that need results to outlive the next pass must copy them
// (Model.Act already does).
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

// Slab is the parameter storage of the layers built on it: W holds
// every weight and G every gradient, each Param a window of both at the
// same offset, in the order the layers took them.
type Slab struct {
	W []float64
	// G is nil until the first ZeroGrad: a model that never computes a
	// gradient (an actor's, the run's master) never allocates one.
	G      []float64
	params []*Param
	off    int
}

// NewSlab returns a Slab of n weights, all zero until layers take them.
// W is a tensor.NewVec: the tile reads its last bias, the head's, under
// a mask that reaches past its end.
func NewSlab(n int) *Slab { return &Slab{W: tensor.NewVec(n)} }

// weightsAndBias takes a layer's next n weights as two Params: name.W,
// the first n-bias of them, and name.b, the last bias.
func (s *Slab) weightsAndBias(name string, n, bias int) (w, b *Param) {
	if n > len(s.W)-s.off {
		panic(fmt.Sprintf("nn: %s takes %d weights, its slab has %d left", name, n, len(s.W)-s.off))
	}
	return s.param(name+".W", n-bias), s.param(name+".b", bias)
}

// param takes the next n weights as a Param.
func (s *Slab) param(name string, n int) *Param {
	p := &Param{Name: name, Data: s.W[s.off : s.off+n : s.off+n]}
	if s.G != nil {
		p.Grad = s.G[s.off : s.off+n : s.off+n]
	}
	s.off += n
	s.params = append(s.params, p)
	return p
}

// ZeroGrad clears G, allocating it on the first call.
func (s *Slab) ZeroGrad() {
	if s.G == nil {
		s.allocGrad()
		return
	}
	clear(s.G)
}

// allocGrad allocates G, unless it exists, and points every Param.Grad
// at its window.
func (s *Slab) allocGrad() {
	if s.G != nil {
		return
	}
	s.G = make([]float64, len(s.W))
	off := 0
	for _, p := range s.params {
		p.Grad = s.G[off : off+len(p.Data) : off+len(p.Data)]
		off += len(p.Data)
	}
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
	// parameter gradients into Params().Grad. Those exist once the
	// layer's Slab has gradients: called on its own, a layer needs its
	// Slab's ZeroGrad first (a Network's Backward sees to it).
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
}

// Network is a sequential stack of layers, all built on one Slab.
type Network struct {
	Layers []Layer
	inDim  int
	slab   *Slab
}

// NewNetwork assembles layers built on s for a fixed per-sample input
// width.
func NewNetwork(s *Slab, inDim int, layers ...Layer) *Network {
	return &Network{Layers: layers, inDim: inDim, slab: s}
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
// parameter gradients, and returns dL/dIn. The first Backward or
// ZeroGrad on any network of a Slab allocates the Slab's gradients.
func (n *Network) Backward(dOut *tensor.Mat) *tensor.Mat { //lint:allow reach benchmark-only: benchmark/ladder.go times it
	n.slab.allocGrad()
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
	n.slab.allocGrad()
	d := dOut
	for i := len(n.Layers) - 1; i > 0; i-- {
		d = n.Layers[i].Backward(d)
	}
	n.Layers[0].BackwardParams(d)
}

// packer is a layer whose forward product is MatMulABT on its weights
// (Dense, Conv2D), which it can run on a packed Wᵀ instead.
type packer interface {
	// pack readies the layer for forwards over rows samples in all, one
	// at a time, on weights that hold still: where the pack pays
	// (tensor.PackPays), it transposes W and its forwards read that
	// copy until unpack.
	pack(rows int)
	unpack()
}

// weightMat is the weight matrix W of a layer whose forward is in·Wᵀ,
// with the packed Wᵀ (wt) that forward may run on instead.
type weightMat struct {
	w      tensor.Mat  // W.Data viewed as an Out x In matrix
	wt     *tensor.Mat // Wᵀ, In x Out, allocated on the first pack
	packed bool        // wt holds W until unpack (Network.Pack)
}

// transpose packs W into wt, allocating wt on the first pack, and says
// so, where a pack serving m rows of products, rows rows each, pays;
// otherwise it leaves wt as it is and says not.
func (w *weightMat) transpose(m, rows int) bool {
	if !tensor.PackPays(m, rows, w.w.Rows) {
		return false
	}
	if w.wt == nil {
		w.wt = tensor.NewMat(w.w.Cols, w.w.Rows)
	}
	tensor.Transpose(w.wt, &w.w)
	return true
}

// product sets out = in·Wᵀ + bias: on the pack Network.Pack made, if
// any, else on a pack made for this product where its rows pay for
// one, the bias added in the tile's registers, else on W as it lies,
// then AddBiasRows. The three give the same bits.
func (w *weightMat) product(out, in *tensor.Mat, bias []float64) {
	if w.packed || w.transpose(in.Rows, in.Rows) {
		tensor.MatMulABTPacked(out, in, w.wt, bias)
		return
	}
	tensor.MatMulABT(out, in, &w.w)
	tensor.AddBiasRows(out, bias)
}

func (w *weightMat) unpack() { w.packed = false }

// Pack readies n for a run of forwards over rows samples in all, one at
// a time (a rollout's steps), on weights that hold still until Unpack:
// each layer whose product pays for a pack over those rows transposes
// its weights once, and its forwards read that copy. Weights written
// between Pack and Unpack go unseen by those forwards; a Pack after the
// write sees them. A layer allocates its copy on its first pack only.
func (n *Network) Pack(rows int) {
	for _, l := range n.Layers {
		if p, ok := l.(packer); ok {
			p.pack(rows)
		}
	}
}

// Unpack returns every layer of n to reading its weights in place.
func (n *Network) Unpack() {
	for _, l := range n.Layers {
		if p, ok := l.(packer); ok {
			p.unpack()
		}
	}
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

// ZeroGrad clears this network's accumulated gradients, allocating the
// Slab's on the first call.
func (n *Network) ZeroGrad() { //lint:allow reach benchmark-only: benchmark/ladder.go times it
	n.slab.allocGrad()
	for _, p := range n.Params() {
		clear(p.Grad)
	}
}
