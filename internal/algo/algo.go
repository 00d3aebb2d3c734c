package algo

import (
	"math"

	"stellaris/internal/replay"
	"stellaris/internal/rng"
)

// Truncation is a learner's view of Stellaris's global importance-
// sampling truncation (Eq. 2). GroupMin is the minimum learner/actor
// ratio summary observed across the current aggregation group (supplied
// by the parameter function's tracker); Rho is the clip threshold ρ.
type Truncation struct {
	Enabled  bool
	GroupMin float64
	Rho      float64
}

// Cap returns the effective upper bound min(|GroupMin|, ρ) applied to
// per-sample ratios, or +Inf when truncation is disabled.
func (t Truncation) Cap() float64 {
	if !t.Enabled {
		return math.Inf(1)
	}
	c := math.Abs(t.GroupMin)
	if c > t.Rho || math.IsNaN(c) || c == 0 {
		c = t.Rho
	}
	return c
}

// Stats summarizes one gradient computation for monitoring and for the
// parameter function's truncation tracker.
type Stats struct {
	PolicyLoss float64
	ValueLoss  float64
	Entropy    float64
	// KL is the mean KL(π_learner ‖ μ) over the batch — the quantity
	// Fig. 3(c) plots.
	KL float64
	// MeanRatio/MinRatio/MaxRatio summarize per-sample importance
	// ratios π(a|s)/μ(a|s); MinRatio feeds the group tracker.
	MeanRatio float64
	MinRatio  float64
	MaxRatio  float64
	// Truncated counts samples whose ratio hit the truncation cap.
	Truncated int
	Samples   int
}

// Grad is a learner function's product: one flat combined gradient plus
// its statistics.
type Grad struct {
	Data  []float64
	Stats Stats
}

// Extra carries algorithm-specific inputs from the parameter function.
// The DES (internal/core) fills both; live learners pass none.
type Extra struct {
	// TargetWeights is IMPACT's surrogate target network (nil for PPO;
	// nil for IMPACT takes the current weights as the target).
	TargetWeights []float64
	// KLCoeff, when positive, overrides the hyperparameter block's KL
	// penalty coefficient. The DES parameter function adapts it toward
	// the KL target (Table III) RLlib-style and ships the current value
	// to each learner invocation.
	KLCoeff float64
}

// Algorithm turns (model weights, sample batch) into a gradient. All
// implementations are stateless: every invocation corresponds to one
// serverless learner-function execution.
type Algorithm interface {
	// Hyper exposes the hyperparameter block (Table III).
	Hyper() *Hyper
	// NeedsTarget reports whether Extra.TargetWeights must be supplied.
	NeedsTarget() bool
	// Compute runs one learner pass over b with m's current weights and
	// returns the accumulated gradient. m's accumulated gradients are
	// clobbered; its weights are left unchanged.
	Compute(m *Model, b *replay.Batch, tr Truncation, extra Extra, r *rng.RNG) *Grad
}

// ratioSummary folds a per-sample ratio into running stats.
func (s *Stats) observeRatio(r float64) {
	if s.Samples == 0 {
		s.MinRatio, s.MaxRatio = r, r
	} else {
		if r < s.MinRatio {
			s.MinRatio = r
		}
		if r > s.MaxRatio {
			s.MaxRatio = r
		}
	}
	s.MeanRatio += r
	s.Samples++
}

// finalize converts accumulated sums into means.
func (s *Stats) finalize() {
	if s.Samples > 0 {
		n := float64(s.Samples)
		s.MeanRatio /= n
		s.KL /= n
		s.Entropy /= n
		s.PolicyLoss /= n
		s.ValueLoss /= n
	}
}
