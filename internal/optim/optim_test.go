package optim

import (
	"math"
	"testing"
)

// quadratic minimizes f(x) = Σ(x_i - c_i)² with the given optimizer and
// returns the final distance to the optimum.
func quadratic(o Optimizer, steps int) float64 {
	target := []float64{3, -2, 0.5}
	x := make([]float64, 3)
	g := make([]float64, 3)
	for i := 0; i < steps; i++ {
		for j := range x {
			g[j] = 2 * (x[j] - target[j])
		}
		o.Step(x, g)
	}
	var d float64
	for j := range x {
		d += (x[j] - target[j]) * (x[j] - target[j])
	}
	return math.Sqrt(d)
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	if d := quadratic(NewAdam(0.1), 500); d > 0.01 {
		t.Fatalf("Adam ended %v from optimum", d)
	}
}

func TestAdamFirstStepMagnitude(t *testing.T) {
	// Adam's bias correction makes the first step ≈ lr regardless of
	// gradient scale.
	a := NewAdam(0.01)
	p := []float64{0}
	a.Step(p, []float64{1e6})
	if math.Abs(math.Abs(p[0])-0.01) > 1e-6 {
		t.Fatalf("first Adam step %v, want ±0.01", p[0])
	}
}

func TestSetLR(t *testing.T) {
	o := NewAdam(0.1)
	o.SetLR(0.5)
	if o.lr != 0.5 {
		t.Fatalf("SetLR(0.5) left lr %v", o.lr)
	}
}

func TestNewByName(t *testing.T) {
	o, err := New("adam", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := o.(*Adam); !ok {
		t.Fatalf(`New("adam") = %T`, o)
	}
	for _, name := range []string{"sgd", "rmsprop", "bogus"} {
		if _, err := New(name, 0.1); err == nil {
			t.Fatalf("optimizer %q accepted", name)
		}
	}
}

func TestStepLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch accepted")
		}
	}()
	NewAdam(0.1).Step([]float64{1}, []float64{1, 2})
}

func TestAdamResetClearsState(t *testing.T) {
	a := NewAdam(0.1)
	p := []float64{0}
	a.Step(p, []float64{1})
	first := p[0]
	if err := a.Restore(NewAdam(0.1).State()); err != nil {
		t.Fatal(err)
	}
	p2 := []float64{0}
	a.Step(p2, []float64{1})
	if p2[0] != first {
		t.Fatalf("step after restoring a fresh state %v != fresh step %v", p2[0], first)
	}
}
