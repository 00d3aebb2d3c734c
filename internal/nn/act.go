package nn

import "stellaris/internal/tensor"

// Tanh is the hyperbolic-tangent activation used by the paper's MuJoCo
// MLP trunks (Table II).
type Tanh struct {
	lastOut *tensor.Mat // reused forward output buffer
	dIn     *tensor.Mat // reused backward buffer
}

// NewTanh returns a Tanh activation layer.
func NewTanh() *Tanh { return &Tanh{} }

// Name implements Layer.
func (t *Tanh) Name() string { return "Tanh" }

// OutDim implements Layer.
func (t *Tanh) OutDim(in int) int { return in }

// Params implements Layer.
func (t *Tanh) Params() []*Param { return nil }

// Forward implements Layer.
func (t *Tanh) Forward(in *tensor.Mat) *tensor.Mat {
	out := ensureMat(&t.lastOut, in.Rows, in.Cols)
	tensor.TanhInto(out.Data, in.Data)
	return out
}

// Backward implements Layer. d tanh(x)/dx = 1 - tanh(x)².
func (t *Tanh) Backward(dOut *tensor.Mat) *tensor.Mat {
	if t.lastOut == nil {
		panic("nn: Tanh.Backward before Forward")
	}
	dIn := ensureMat(&t.dIn, dOut.Rows, dOut.Cols)
	// One common length lets the compiler drop the bounds checks.
	g := dOut.Data
	y := t.lastOut.Data[:len(g)]
	d := dIn.Data[:len(g)]
	for i, gi := range g {
		d[i] = gi * (1 - y[i]*y[i])
	}
	return dIn
}

// BackwardParams implements Layer: nothing to learn.
func (t *Tanh) BackwardParams(*tensor.Mat) {}

// ReLU is the rectified-linear activation used by the paper's Atari CNN
// trunks (Table II).
type ReLU struct {
	lastIn *tensor.Mat
	out    *tensor.Mat // reused forward output buffer
	dIn    *tensor.Mat // reused backward buffer
}

// NewReLU returns a ReLU activation layer.
func NewReLU() *ReLU { return &ReLU{} }

// Name implements Layer.
func (r *ReLU) Name() string { return "ReLU" }

// OutDim implements Layer.
func (r *ReLU) OutDim(in int) int { return in }

// Params implements Layer.
func (r *ReLU) Params() []*Param { return nil }

// Forward implements Layer.
func (r *ReLU) Forward(in *tensor.Mat) *tensor.Mat {
	r.lastIn = in
	out := ensureMat(&r.out, in.Rows, in.Cols)
	// The buffer is reused across calls, so negative lanes must be
	// written explicitly rather than relying on fresh zeroed storage.
	for i, v := range in.Data {
		if v > 0 {
			out.Data[i] = v
		} else {
			out.Data[i] = 0
		}
	}
	return out
}

// Backward implements Layer.
func (r *ReLU) Backward(dOut *tensor.Mat) *tensor.Mat {
	if r.lastIn == nil {
		panic("nn: ReLU.Backward before Forward")
	}
	dIn := ensureMat(&r.dIn, dOut.Rows, dOut.Cols)
	g := dOut.Data
	x := r.lastIn.Data[:len(g)]
	d := dIn.Data[:len(g)]
	for i, gi := range g {
		if x[i] > 0 {
			d[i] = gi
		} else {
			d[i] = 0
		}
	}
	return dIn
}

// BackwardParams implements Layer: nothing to learn.
func (r *ReLU) BackwardParams(*tensor.Mat) {}
