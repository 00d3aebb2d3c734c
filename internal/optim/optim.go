// Package optim implements Adam, the optimizer both of the paper's
// Table III configurations train with, on flat parameter vectors.
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
	// Reset clears the moment state (used when a fresh optimizer
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

// New constructs an optimizer by name. "adam" is the only name: it is
// what algo.Hyper.Optimizer holds in every configuration.
func New(name string, lr float64) (Optimizer, error) {
	if name != "adam" {
		return nil, fmt.Errorf("optim: unknown optimizer %q", name)
	}
	return NewAdam(lr), nil
}
