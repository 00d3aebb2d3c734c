// Package algo implements the DRL algorithms the paper integrates with
// Stellaris: PPO (on-policy, clipped surrogate + GAE) and IMPACT
// (off-policy, V-trace + clipped target-network surrogate), over the
// actor-critic Model type they share.
package algo

import (
	"fmt"

	"stellaris/internal/env"
	"stellaris/internal/nn"
	"stellaris/internal/policy"
	"stellaris/internal/replay"
	"stellaris/internal/rng"
	"stellaris/internal/tensor"
)

// Model is an actor-critic pair: a policy network emitting distribution
// parameters and a critic network emitting state values. Per Table II
// the critic shares the policy's architecture (not its weights).
type Model struct {
	Policy *nn.Network
	Critic *nn.Network
	Dist   policy.Distribution

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

	type framed interface{ FrameSize() int }
	var pTrunk, cTrunk *nn.Network
	if f, ok := e.(framed); ok {
		s := f.FrameSize()
		pTrunk = nn.CNNTrunk(3, s, s, r.Split(1))
		cTrunk = nn.CNNTrunk(3, s, s, r.Split(2))
	} else {
		pTrunk = nn.MLPTrunk(e.ObsDim(), hidden, r.Split(1))
		cTrunk = nn.MLPTrunk(e.ObsDim(), hidden, r.Split(2))
	}
	return &Model{
		Policy: nn.WithHead(pTrunk, dist.ParamDim(), 0.01, r.Split(3)),
		Critic: nn.WithHead(cTrunk, 1, 1.0, r.Split(4)),
		Dist:   dist,
	}
}

// NumParams returns the combined policy+critic parameter count.
func (m *Model) NumParams() int { return m.Policy.NumParams() + m.Critic.NumParams() }

// Weights returns the combined flat weight vector (policy then critic).
func (m *Model) Weights() []float64 {
	return m.flatten(func(p *nn.Param) []float64 { return p.Data })
}

// flatten concatenates one field of every parameter, policy then critic,
// into a vector allocated once at its final size.
func (m *Model) flatten(field func(*nn.Param) []float64) []float64 {
	out := make([]float64, 0, m.NumParams())
	for _, net := range [...]*nn.Network{m.Policy, m.Critic} {
		for _, p := range net.Params() {
			out = append(out, field(p)...)
		}
	}
	return out
}

// SetWeights loads a combined flat weight vector.
func (m *Model) SetWeights(w []float64) error {
	np := m.Policy.NumParams()
	if len(w) != np+m.Critic.NumParams() {
		return fmt.Errorf("algo: SetWeights length %d != %d", len(w), m.NumParams())
	}
	if err := m.Policy.SetParams(w[:np]); err != nil {
		return err
	}
	return m.Critic.SetParams(w[np:])
}

// Grads returns the combined flat gradient vector (policy then critic).
func (m *Model) Grads() []float64 {
	return m.flatten(func(p *nn.Param) []float64 { return p.Grad })
}

// ZeroGrad clears accumulated gradients in both networks.
func (m *Model) ZeroGrad() {
	m.Policy.ZeroGrad()
	m.Critic.ZeroGrad()
}

// gather copies the observation rows idx selects (every row, in order,
// when idx is nil) into the model's scratch matrix and returns it. The
// matrix is valid until the next gather: a learner pass forwards and
// backpropagates one minibatch before it gathers the next.
func (m *Model) gather(obs [][]float64, idx []int) *tensor.Mat {
	rows, cols := len(idx), len(obs[0])
	if idx == nil {
		rows = len(obs)
	}
	n := rows * cols
	if cap(m.batch.Data) < n {
		m.batch.Data = make([]float64, n)
	}
	m.batch = tensor.Mat{Rows: rows, Cols: cols, Data: m.batch.Data[:n]}
	for r := 0; r < rows; r++ {
		i := r
		if idx != nil {
			i = idx[r]
		}
		copy(m.batch.Row(r), obs[i])
	}
	return &m.batch
}

// Values runs the critic over all observations in b and returns V(s_t).
func (m *Model) Values(b *replay.Batch) []float64 {
	return m.valuesOf(m.gather(b.Obs, nil))
}

// valuesOf runs the critic over the rows of obs.
func (m *Model) valuesOf(obs *tensor.Mat) []float64 {
	out := m.Critic.Forward(obs)
	v := make([]float64, obs.Rows)
	for i := range v {
		v[i] = out.At(i, 0)
	}
	return v
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
func (m *Model) Rollout(e env.Env, r *rng.RNG, ep *Episode, steps int, onEpisode func(ret float64)) *replay.Trajectory {
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
