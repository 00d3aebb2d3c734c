package optim

import "fmt"

// State is a serializable snapshot of an optimizer's internal moments,
// captured for crash-safe training: checkpoints persist it so a resumed
// run continues the update trajectory bit-identically instead of
// restarting Adam's accumulators from zero.
type State struct {
	// Name is the optimizer kind the state was exported from; Restore
	// refuses a mismatch.
	Name string
	// Step is the update count (Adam's bias-correction t).
	Step int64
	// Vecs are the per-coordinate moment vectors, {m, v} for adam. A
	// nil vector means the buffer is not yet allocated (no step taken).
	Vecs [][]float64
}

func cloneVec(v []float64) []float64 {
	if v == nil {
		return nil
	}
	return append([]float64(nil), v...)
}

func (s State) vec(i int) []float64 {
	if i >= len(s.Vecs) {
		return nil
	}
	return cloneVec(s.Vecs[i])
}

func checkName(got State, want string) error {
	if got.Name != want {
		return fmt.Errorf("optim: restoring %q state into %s optimizer", got.Name, want)
	}
	return nil
}

// State implements Optimizer.
func (a *Adam) State() State {
	return State{Name: a.name(), Step: int64(a.t), Vecs: [][]float64{cloneVec(a.m), cloneVec(a.v)}}
}

// Restore implements Optimizer.
func (a *Adam) Restore(st State) error {
	if err := checkName(st, a.name()); err != nil {
		return err
	}
	a.t = int(st.Step)
	a.m, a.v = st.vec(0), st.vec(1)
	return nil
}
