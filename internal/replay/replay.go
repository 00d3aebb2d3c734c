// Package replay defines the trajectory data types exchanged between
// actors and learners through the distributed cache, plus the advantage
// estimation (GAE) and minibatching utilities learners apply to them.
package replay

import (
	"fmt"

	"stellaris/internal/obs/lineage"
	"stellaris/internal/rng"
)

// Step is one environment transition recorded by an actor.
type Step struct {
	Obs    []float64
	Action []float64
	Reward float64
	// Done marks episode termination *after* this step.
	Done bool
	// LogProb is log μ(a|s) under the behavior (actor) policy that
	// sampled the step; learners need it for importance ratios.
	LogProb float64
	// DistParams is the behavior policy's distribution-parameter row
	// for Obs, letting learners compute exact KL(π_new ‖ μ) terms.
	DistParams []float64
}

// Trajectory is a contiguous run of steps collected by a single actor
// under a single policy version. Episodes may span or end inside it.
type Trajectory struct {
	// ActorID identifies the collecting actor.
	ActorID int
	// PolicyVersion is the policy the actor pulled before sampling; the
	// gap between this and the learner's policy version is the
	// actor-side policy lag.
	PolicyVersion int
	Steps         []Step
	// EpisodeReturns holds the undiscounted returns of episodes that
	// completed within this trajectory (the paper's "episodic reward"
	// metric).
	EpisodeReturns []float64
	// Trace is the causal-tracing context carried across the wire, in
	// the payload's optional TLV section (zero when absent).
	Trace lineage.Meta
}

// Batch is the flattened multi-trajectory view a learner function trains
// on. Advantages and returns are filled by Prepare.
type Batch struct {
	PolicyVersion int
	Obs           [][]float64
	Actions       [][]float64
	Rewards       []float64
	Dones         []bool
	BehaviorLP    []float64
	BehaviorPR    [][]float64 // behavior distribution parameter rows
	// Adv and Ret are populated by Prepare from a critic's values.
	Adv []float64
	Ret []float64
	// EpisodeReturns aggregates completed-episode returns across the
	// batch's source trajectories.
	EpisodeReturns []float64
}

// Flatten concatenates trajectories into a Batch. All trajectories must
// share a policy version — mixing versions inside one gradient is what
// the importance-sampling machinery exists to handle *across* gradients,
// not within one.
func Flatten(trajs []*Trajectory) (*Batch, error) {
	if len(trajs) == 0 {
		return nil, fmt.Errorf("replay: Flatten of empty trajectory set")
	}
	steps, rets := 0, 0
	for _, t := range trajs {
		steps += len(t.Steps)
		rets += len(t.EpisodeReturns)
	}
	b := &Batch{
		PolicyVersion:  trajs[0].PolicyVersion,
		Obs:            make([][]float64, 0, steps),
		Actions:        make([][]float64, 0, steps),
		Rewards:        make([]float64, 0, steps),
		Dones:          make([]bool, 0, steps),
		BehaviorLP:     make([]float64, 0, steps),
		BehaviorPR:     make([][]float64, 0, steps),
		EpisodeReturns: make([]float64, 0, rets),
	}
	for _, t := range trajs {
		for i := range t.Steps {
			s := &t.Steps[i]
			b.Obs = append(b.Obs, s.Obs)
			b.Actions = append(b.Actions, s.Action)
			b.Rewards = append(b.Rewards, s.Reward)
			b.Dones = append(b.Dones, s.Done)
			b.BehaviorLP = append(b.BehaviorLP, s.LogProb)
			b.BehaviorPR = append(b.BehaviorPR, s.DistParams)
		}
		// The seam between trajectories is a value-bootstrap boundary
		// even when the episode did not terminate; mark it so GAE does
		// not leak advantage across actors.
		if n := len(b.Dones); n > 0 {
			b.Dones[n-1] = true
		}
		b.EpisodeReturns = append(b.EpisodeReturns, t.EpisodeReturns...)
	}
	return b, nil
}

// Len returns the number of steps in the batch.
func (b *Batch) Len() int { return len(b.Obs) }

// GAE computes Generalized Advantage Estimation (Schulman et al. 2016,
// the estimator the paper's PPO uses) over a flattened step sequence.
// values must have one entry per step (V(s_t) under the learner's
// critic); bootstrap is V(s_T) for the state after the final step, used
// only when the final step is not terminal. Returns advantages and the
// value targets adv+V.
func GAE(rewards []float64, values []float64, dones []bool, bootstrap, gamma, lambda float64) (adv, ret []float64) {
	n := len(rewards)
	if len(values) != n || len(dones) != n {
		panic(fmt.Sprintf("replay: GAE length mismatch r=%d v=%d d=%d", n, len(values), len(dones)))
	}
	adv = make([]float64, n)
	ret = make([]float64, n)
	var lastAdv float64
	for t := n - 1; t >= 0; t-- {
		var nextV float64
		if t == n-1 {
			nextV = bootstrap
		} else {
			nextV = values[t+1]
		}
		notDone := 1.0
		if dones[t] {
			notDone = 0
			lastAdv = 0
		}
		delta := rewards[t] + gamma*nextV*notDone - values[t]
		lastAdv = delta + gamma*lambda*notDone*lastAdv
		adv[t] = lastAdv
		ret[t] = adv[t] + values[t]
	}
	return adv, ret
}

// Prepare fills b.Adv and b.Ret from per-step critic values using
// GAE(γ, λ). The last step of a Batch is always a bootstrap boundary
// (Flatten guarantees it), so no bootstrap value is required.
func (b *Batch) Prepare(values []float64, gamma, lambda float64) {
	b.Adv, b.Ret = GAE(b.Rewards, values, b.Dones, 0, gamma, lambda)
}

// Minibatches partitions [0, n) into shuffled index groups of at most
// size; the final group may be smaller. size <= 0 yields one group.
func Minibatches(n, size int, r *rng.RNG) [][]int {
	idx := r.Perm(n)
	if size <= 0 || size >= n {
		return [][]int{idx}
	}
	var out [][]int
	for start := 0; start < n; start += size {
		end := start + size
		if end > n {
			end = n
		}
		out = append(out, idx[start:end])
	}
	return out
}
