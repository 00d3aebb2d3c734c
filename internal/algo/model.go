// Package algo implements the DRL algorithms the paper integrates with
// Stellaris: PPO (on-policy, clipped surrogate + GAE) and IMPACT
// (off-policy, V-trace + clipped target-network surrogate), over the
// actor-critic Model type they share.
package algo

import (
	"fmt"
	"slices"

	"stellaris/internal/env"
	"stellaris/internal/nn"
	"stellaris/internal/policy"
	"stellaris/internal/replay"
	"stellaris/internal/rng"
	"stellaris/internal/tensor"
)

// Model is an actor-critic pair: a policy network emitting distribution
// parameters and a critic network emitting state values. Per Table II
// the critic shares the policy's architecture (not its weights). Both
// live on one nn.Slab, policy first and then critic, each in Params()
// order: the combined flat vector the pipeline exchanges is the slab.
type Model struct {
	Policy *nn.Network
	Critic *nn.Network
	Dist   policy.Distribution

	slab *nn.Slab

	obs   tensor.Mat // the 1 x ObsDim header Act and ActGreedy hand the policy
	batch tensor.Mat // gather's scratch: a learner pass's observation rows
}

// NewModel builds the paper's architecture for e (Table II): a 2x256
// Tanh MLP trunk for vector observations, or the 16@8x8s4 / 32@4x4s2 /
// 256-dense ReLU CNN trunk for image observations. seed controls weight
// initialization.
func NewModel(e env.Env, seed uint64) *Model { return NewModelHidden(e, 0, seed) }

// NewModelHidden is NewModel with a configurable MLP trunk width;
// hidden <= 0 selects the paper's 256. Image environments ignore hidden
// (their compute scales with the frame size instead).
func NewModelHidden(e env.Env, hidden int, seed uint64) *Model {
	if hidden <= 0 {
		hidden = 256
	}
	r := rng.New(seed)
	as := e.ActionSpace()
	var dist policy.Distribution
	if as.Continuous {
		dist = policy.NewDiagGaussian(as.Dim)
	} else {
		dist = policy.NewCategorical(as.N)
	}

	// The streams are split in a fixed order; the layers are then built
	// in slab order, policy trunk and head before critic trunk and head.
	rp, rc, rph, rch := r.Split(1), r.Split(2), r.Split(3), r.Split(4)
	type framed interface{ FrameSize() int }
	trunk := func(s *nn.Slab, r *rng.RNG) *nn.Network { return nn.MLPTrunk(s, e.ObsDim(), hidden, r) }
	size := func(out int) int { return nn.MLPSize(e.ObsDim(), hidden, out) }
	if f, ok := e.(framed); ok {
		fs := f.FrameSize()
		trunk = func(s *nn.Slab, r *rng.RNG) *nn.Network { return nn.CNNTrunk(s, 3, fs, fs, r) }
		size = func(out int) int { return nn.CNNSize(3, fs, fs, out) }
	}
	s := nn.NewSlab(size(dist.ParamDim()) + size(1))
	m := &Model{Dist: dist, slab: s}
	m.Policy = nn.WithHead(trunk(s, rp), dist.ParamDim(), 0.01, rph)
	m.Critic = nn.WithHead(trunk(s, rc), 1, 1.0, rch)
	if m.NumParams() != len(s.W) {
		panic(fmt.Sprintf("algo: model has %d parameters, its slab %d", m.NumParams(), len(s.W)))
	}
	return m
}

// NumParams returns the combined policy+critic parameter count.
func (m *Model) NumParams() int { return m.Policy.NumParams() + m.Critic.NumParams() }

// Weights returns a copy of the combined flat weight vector (policy
// then critic).
func (m *Model) Weights() []float64 { return slices.Clone(m.slab.W) }

// WeightSlab returns the combined flat weight vector itself: the
// model's weights, read and written in place. A subscriber bound to it
// decodes fetched policies straight into the model.
func (m *Model) WeightSlab() []float64 { return m.slab.W }

// SetWeights loads a combined flat weight vector. Handed the weight
// slab itself it has nothing to do.
func (m *Model) SetWeights(w []float64) error {
	if len(w) != len(m.slab.W) {
		return fmt.Errorf("algo: SetWeights length %d != %d", len(w), len(m.slab.W))
	}
	if len(w) > 0 && &w[0] != &m.slab.W[0] {
		copy(m.slab.W, w)
	}
	return nil
}

// Grads returns the combined flat gradient vector (policy then critic)
// itself, not a copy: it is valid until the model's next ZeroGrad,
// which every Compute starts with. A caller that keeps a gradient past
// that copies it.
func (m *Model) Grads() []float64 { return m.slab.G }

// ZeroGrad clears accumulated gradients in both networks, allocating
// the gradient slab on the first call.
func (m *Model) ZeroGrad() { m.slab.ZeroGrad() }

// gather copies the observation rows idx selects, in idx's order, into
// the model's scratch matrix and returns it. The matrix is valid until
// the next gather: a learner pass forwards and backpropagates one
// minibatch before it gathers the next.
func (m *Model) gather(obs [][]float64, idx []int) *tensor.Mat {
	rows, cols := len(idx), len(obs[0])
	n := rows * cols
	if cap(m.batch.Data) < n {
		m.batch.Data = make([]float64, n)
	}
	m.batch = tensor.Mat{Rows: rows, Cols: cols, Data: m.batch.Data[:n]}
	for r, i := range idx {
		copy(m.batch.Row(r), obs[i])
	}
	return &m.batch
}

// ActGreedy returns the mode action for one observation (evaluation).
func (m *Model) ActGreedy(obs []float64) []float64 {
	return m.Dist.Mode(m.forwardOne(obs))
}

// forwardOne runs the policy on one observation and returns its
// distribution parameter row, which the policy's last layer owns.
func (m *Model) forwardOne(obs []float64) []float64 {
	m.obs = tensor.Mat{Rows: 1, Cols: len(obs), Data: obs}
	return m.Policy.Forward(&m.obs).Row(0)
}

// Act samples an action for one observation, returning the action, its
// log-probability and the distribution parameter row (copied).
func (m *Model) Act(obs []float64, r *rng.RNG) (action []float64, logProb float64, params []float64) {
	row := m.forwardOne(obs)
	params = make([]float64, len(row))
	copy(params, row)
	action = m.Dist.Sample(params, r)
	logProb = m.Dist.LogProb(params, action)
	return action, logProb, params
}

// Episode is one actor's position in its environment between sampling
// bursts: the observation the next action is chosen from (nil starts a
// fresh episode) and the return accumulated so far.
type Episode struct {
	Obs    []float64
	Return float64
}

// Rollout samples steps transitions from e under m, resuming ep and
// leaving it where the burst stopped. It is the one actor loop of the
// repo (the DES trainer and the live actor both call it), so every
// random draw comes off r in one order: the reset of a fresh episode,
// then per step the action sample, then the reset after a terminal
// step. onEpisode, when set, receives each finished episode's return.
// The caller stamps identity (ActorID, PolicyVersion, Trace).
//
// The weights hold still for the whole burst (a DES replica belongs to
// its future, and a live actor fetches before it rolls out), so the
// policy is packed for the burst's steps (nn.Network.Pack) and unpacked
// on the way out: no packed copy outlives the rollout.
func (m *Model) Rollout(e env.Env, r *rng.RNG, ep *Episode, steps int, onEpisode func(ret float64)) *replay.Trajectory {
	m.Policy.Pack(steps)
	defer m.Policy.Unpack()
	if ep.Obs == nil {
		ep.Obs, ep.Return = e.Reset(r), 0
	}
	traj := &replay.Trajectory{Steps: make([]replay.Step, 0, steps)}
	for i := 0; i < steps; i++ {
		action, lp, dp := m.Act(ep.Obs, r)
		next, rew, done := e.Step(action)
		traj.Steps = append(traj.Steps, replay.Step{
			Obs: ep.Obs, Action: action, Reward: rew, Done: done,
			LogProb: lp, DistParams: dp,
		})
		ep.Return += rew
		if done {
			traj.EpisodeReturns = append(traj.EpisodeReturns, ep.Return)
			if onEpisode != nil {
				onEpisode(ep.Return)
			}
			ep.Obs, ep.Return = e.Reset(r), 0
		} else {
			ep.Obs = next
		}
	}
	return traj
}
