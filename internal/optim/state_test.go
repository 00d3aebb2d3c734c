package optim

import "testing"

// Restoring an optimizer's state into a fresh instance must make it
// continue the exact update trajectory of the original.
func TestStateRoundTripContinuation(t *testing.T) {
	t.Run("adam", func(t *testing.T) {
		a := NewAdam(0.01)
		params := []float64{0.5, -0.25, 1.5}
		grads := [][]float64{{0.1, -0.2, 0.3}, {-0.05, 0.15, 0.25}, {0.2, 0.2, -0.1}}
		for _, g := range grads {
			a.Step(params, g)
		}

		b := NewAdam(0.01)
		if err := b.Restore(a.State()); err != nil {
			t.Fatal(err)
		}
		pa := append([]float64(nil), params...)
		pb := append([]float64(nil), params...)
		for _, g := range grads {
			a.Step(pa, g)
			b.Step(pb, g)
		}
		for i := range pa {
			if pa[i] != pb[i] {
				t.Fatalf("param %d diverged after restore: %v vs %v", i, pa[i], pb[i])
			}
		}
	})
}

func TestStateIsACopy(t *testing.T) {
	a := NewAdam(0.01)
	params := []float64{1, 2}
	a.Step(params, []float64{0.1, 0.2})
	st := a.State()
	// Mutating the optimizer after export must not change the snapshot.
	a.Step(params, []float64{0.3, 0.4})
	st2 := a.State()
	if st.Vecs[0][0] == st2.Vecs[0][0] {
		t.Fatal("expected first moment to move between steps")
	}
	if st.Step != 1 || st2.Step != 2 {
		t.Fatalf("step counts wrong: %d, %d", st.Step, st2.Step)
	}
}

func TestRestoreKindMismatch(t *testing.T) {
	a := NewAdam(0.01)
	if err := a.Restore(State{Name: "sgd", Vecs: [][]float64{{1}}}); err == nil {
		t.Fatal("adam accepted sgd state")
	}
}

func TestRestoreUnallocated(t *testing.T) {
	// A state exported before any Step has nil moment buffers; restore
	// must leave the optimizer usable.
	a := NewAdam(0.01)
	b := NewAdam(0.01)
	if err := b.Restore(a.State()); err != nil {
		t.Fatal(err)
	}
	params := []float64{1}
	b.Step(params, []float64{0.5})
	if params[0] == 1 {
		t.Fatal("restored optimizer did not step")
	}
}
