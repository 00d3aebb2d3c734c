// Package autoscale implements dynamic actor scaling — the "Scalable
// Actors" capability of Table I that MinionsRL pioneered and Stellaris
// retains. A Controller observes the training pipeline each round and
// decides how many actors should sample during the next one: too few
// actors starve the learners (low GPU utilization); too many overrun
// them (queueing inflates staleness, §II-D's dynamic-staleness problem).
package autoscale

// Signals is the pipeline state a controller observes at a round
// boundary.
type Signals struct {
	// Round is the completed training-round index.
	Round int
	// ActiveActors is the current actor count.
	ActiveActors int
	// MaxActors is the provisioned ceiling.
	MaxActors int
	// LearnerUtilization is the busy fraction of learner slots so far.
	LearnerUtilization float64
	// LearnerQueueDepth is the number of batches waiting for a learner
	// slot.
	LearnerQueueDepth int
	// PendingSteps is the number of buffered timesteps awaiting batch
	// formation.
	PendingSteps int
	// BatchSize is the learner batch size in timesteps.
	BatchSize int
}

// Controller decides the actor count for the next round.
type Controller interface {
	// Decide returns the desired actor count in [1, s.MaxActors].
	Decide(s Signals) int
}

// clampActors bounds n to [1, max].
func clampActors(n, max int) int {
	if n < 1 {
		return 1
	}
	if n > max {
		return max
	}
	return n
}

// Static keeps the actor count fixed — the non-scaling baselines.
type Static struct{ N int }

// Decide implements Controller.
func (s *Static) Decide(sig Signals) int {
	if s.N <= 0 {
		return sig.ActiveActors
	}
	return clampActors(s.N, sig.MaxActors)
}

// Utilization is a feedback controller targeting a learner-utilization
// band: it grows the actor fleet when learners idle below Low and
// shrinks it when the learner queue backs up or utilization saturates
// above High. This is the heuristic equivalent of MinionsRL's learned
// actor scheduler, using the same reward signal (utilization vs cost).
type Utilization struct {
	// Low and High bound the target utilization band (defaults 0.5 and
	// 0.9).
	Low, High float64
	// Step is the scaling increment per decision (default: 25% of the
	// current fleet, at least 1).
	Step int
}

// NewUtilization returns the feedback controller with default band
// [0.5, 0.9].
func NewUtilization() *Utilization { return &Utilization{Low: 0.5, High: 0.9} }

// Decide implements Controller.
func (u *Utilization) Decide(s Signals) int {
	low, high := u.Low, u.High
	if low <= 0 {
		low = 0.5
	}
	if high <= low {
		high = 0.9
	}
	step := u.Step
	if step <= 0 {
		step = s.ActiveActors / 4
		if step < 1 {
			step = 1
		}
	}
	switch {
	case s.LearnerQueueDepth > 1 || s.LearnerUtilization > high:
		// Learners oversubscribed: additional trajectories only queue
		// and go stale.
		return clampActors(s.ActiveActors-step, s.MaxActors)
	case s.LearnerUtilization < low && s.PendingSteps < s.BatchSize:
		// Learners starved and no batch is imminent: sample harder.
		return clampActors(s.ActiveActors+step, s.MaxActors)
	default:
		return s.ActiveActors
	}
}

// Schedule follows an arbitrary round→count function (the interface a
// learned scheduler would plug into).
type Schedule struct {
	Fn func(round int) int
}

// Decide implements Controller.
func (s *Schedule) Decide(sig Signals) int {
	if s.Fn == nil {
		return sig.ActiveActors
	}
	return clampActors(s.Fn(sig.Round), sig.MaxActors)
}
