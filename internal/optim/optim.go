// Package optim implements the first-order optimizers named in the paper
// (SGD, Adam, RMSProp), operating on flat parameter vectors.
//
// Stellaris's staleness-aware aggregation (Eq. 4) modulates the learning
// rate per gradient: α_c = α₀ / δ_c^{1/v}. That modulation is applied by
// the aggregator as a relative weight on each gradient before the
// combined vector reaches the optimizer, so the optimizer itself only
// carries the base rate α₀ — exactly how the paper layers Eq. 4 on top of
// an unmodified Adam.
package optim

import (
	"fmt"
	"math"

	"stellaris/internal/tensor"
)

// Optimizer updates a flat parameter vector in place from a gradient of
// the same length. Implementations keep per-coordinate state and are not
// safe for concurrent use.
type Optimizer interface {
	// Step applies one update: params ← params - f(grad).
	Step(params, grad []float64)
	// LR returns the current base learning rate α₀.
	LR() float64
	// SetLR replaces the base learning rate.
	SetLR(lr float64)
	// Reset clears moment/velocity state (used when a fresh optimizer
	// is reconstructed inside a new parameter-function invocation).
	Reset()
	// State exports the optimizer's moments for checkpointing.
	State() State
	// Restore replaces the moments with a previously exported State; it
	// fails if the state came from a different optimizer kind.
	Restore(State) error
	// Name identifies the optimizer for logs and CSV output.
	Name() string
}

func checkLen(params, grad []float64) {
	if len(params) != len(grad) {
		panic(fmt.Sprintf("optim: params length %d != grad length %d", len(params), len(grad)))
	}
}

// SGD is plain stochastic gradient descent with optional momentum.
type SGD struct {
	lr       float64
	momentum float64
	vel      []float64
}

// NewSGD returns an SGD optimizer with the given rate and momentum
// (momentum 0 disables the velocity buffer).
func NewSGD(lr, momentum float64) *SGD { return &SGD{lr: lr, momentum: momentum} }

// Name implements Optimizer.
func (s *SGD) Name() string { return "sgd" }

// LR implements Optimizer.
func (s *SGD) LR() float64 { return s.lr }

// SetLR implements Optimizer.
func (s *SGD) SetLR(lr float64) { s.lr = lr }

// Reset implements Optimizer.
func (s *SGD) Reset() { s.vel = nil }

// Step implements Optimizer.
func (s *SGD) Step(params, grad []float64) {
	checkLen(params, grad)
	if s.momentum == 0 {
		for i, g := range grad {
			params[i] -= s.lr * g
		}
		return
	}
	if s.vel == nil {
		s.vel = make([]float64, len(params))
	}
	for i, g := range grad {
		s.vel[i] = s.momentum*s.vel[i] + g
		params[i] -= s.lr * s.vel[i]
	}
}

// Adam implements Kingma & Ba's Adam, the optimizer used by both PPO and
// IMPACT in the paper's evaluation (§VIII-B).
type Adam struct {
	lr, beta1, beta2, eps float64
	t                     int
	m, v                  []float64
}

// NewAdam returns Adam with the standard defaults β₁=0.9, β₂=0.999,
// ε=1e-8.
func NewAdam(lr float64) *Adam {
	return &Adam{lr: lr, beta1: 0.9, beta2: 0.999, eps: 1e-8}
}

// Name implements Optimizer.
func (a *Adam) Name() string { return "adam" }

// LR implements Optimizer.
func (a *Adam) LR() float64 { return a.lr }

// SetLR implements Optimizer.
func (a *Adam) SetLR(lr float64) { a.lr = lr }

// Reset implements Optimizer.
func (a *Adam) Reset() { a.t, a.m, a.v = 0, nil, nil }

// Step implements Optimizer.
func (a *Adam) Step(params, grad []float64) {
	checkLen(params, grad)
	if a.m == nil {
		a.m = make([]float64, len(params))
		a.v = make([]float64, len(params))
	}
	a.t++
	c1 := 1 - math.Pow(a.beta1, float64(a.t))
	c2 := 1 - math.Pow(a.beta2, float64(a.t))
	tensor.AdamStep(params, grad, a.m, a.v, a.lr, a.beta1, a.beta2, a.eps, c1, c2)
}

// RMSProp implements Hinton's RMSProp with optional centered variance,
// matching the variant popularized by A3C-style asynchronous training.
type RMSProp struct {
	lr, decay, eps float64
	sq             []float64
}

// NewRMSProp returns RMSProp with decay 0.99 and ε=1e-8.
func NewRMSProp(lr float64) *RMSProp { return &RMSProp{lr: lr, decay: 0.99, eps: 1e-8} }

// Name implements Optimizer.
func (r *RMSProp) Name() string { return "rmsprop" }

// LR implements Optimizer.
func (r *RMSProp) LR() float64 { return r.lr }

// SetLR implements Optimizer.
func (r *RMSProp) SetLR(lr float64) { r.lr = lr }

// Reset implements Optimizer.
func (r *RMSProp) Reset() { r.sq = nil }

// Step implements Optimizer.
func (r *RMSProp) Step(params, grad []float64) {
	checkLen(params, grad)
	if r.sq == nil {
		r.sq = make([]float64, len(params))
	}
	for i, g := range grad {
		r.sq[i] = r.decay*r.sq[i] + (1-r.decay)*g*g
		params[i] -= r.lr * g / (math.Sqrt(r.sq[i]) + r.eps)
	}
}

// New constructs an optimizer by name ("sgd", "adam", "rmsprop").
func New(name string, lr float64) (Optimizer, error) {
	switch name {
	case "sgd":
		return NewSGD(lr, 0), nil
	case "adam":
		return NewAdam(lr), nil
	case "rmsprop":
		return NewRMSProp(lr), nil
	default:
		return nil, fmt.Errorf("optim: unknown optimizer %q", name)
	}
}
