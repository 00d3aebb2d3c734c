package algo

import (
	"math"
	"slices"

	"stellaris/internal/replay"
	"stellaris/internal/rng"
	"stellaris/internal/tensor"
)

// PPO implements the paper's on-policy baseline: distributed Proximal
// Policy Optimization with Generalized Advantage Estimation and the
// clipped surrogate objective (§VIII-B1), extended with Stellaris's
// global importance-sampling truncation (Eq. 2) when enabled.
type PPO struct {
	H Hyper
}

// NewPPO returns PPO with Table III hyperparameters for the given task
// class.
func NewPPO(continuous bool) *PPO { return &PPO{H: PPOHyper(continuous)} }

// Hyper implements Algorithm.
func (p *PPO) Hyper() *Hyper { return &p.H }

// NeedsTarget implements Algorithm.
func (p *PPO) NeedsTarget() bool { return false }

// Compute implements Algorithm. The produced gradient is the gradient of
//
//	L = -E[min(R'·A, clip(R', 1±ε)·A)] + c_v·E[(V-R)²] - c_e·E[H] + c_kl·E[KL(π‖μ)]
//
// where R' = min(π/μ, cap) applies Eq. 2's truncation.
func (p *PPO) Compute(m *Model, b *replay.Batch, tr Truncation, extra Extra, r *rng.RNG) *Grad {
	h := &p.H
	klc := h.KLCoeff
	if extra.KLCoeff > 0 {
		klc = extra.KLCoeff
	}
	n := b.Len()
	m.ZeroGrad()

	// One critic forward over the permuted batch gives the GAE values:
	// no weight update happens inside one learner invocation, so they
	// stay valid for every minibatch.
	mbs := replay.Minibatches(n, h.MinibatchSize, r)
	perm := slices.Concat(mbs...)
	obs := m.gather(b.Obs, perm)
	vOut := m.Critic.Forward(obs)
	values := make([]float64, n)
	for row, i := range perm {
		values[i] = vOut.At(row, 0)
	}
	b.Prepare(values, h.Gamma, h.Lambda)
	adv := make([]float64, n)
	copy(adv, b.Adv)
	tensor.Standardize(adv)

	cap_ := tr.Cap()
	g := &Grad{}
	st := &g.Stats
	invN := 1.0 / float64(n)

	for _, idx := range mbs {
		// With one minibatch the critic already holds its activations.
		if len(mbs) > 1 {
			obs = m.gather(b.Obs, idx)
			vOut = m.Critic.Forward(obs)
		}
		params := m.Policy.Forward(obs)
		dParams := tensor.NewMat(len(idx), params.Cols)
		dV := tensor.NewMat(len(idx), 1)

		for row, i := range idx {
			prow := params.Row(row)
			newLP := m.Dist.LogProb(prow, b.Actions[i])
			ratio := math.Exp(newLP - b.BehaviorLP[i])
			st.observeRatio(ratio)

			// Eq. 2 "pulls the large importance sampling ratio back
			// to ρ": the truncated ratio becomes the (capped)
			// coefficient on ∇logπ, V-trace style, rather than
			// zeroing the sample.
			rEff := ratio
			if rEff > cap_ {
				rEff = cap_
				st.Truncated++
			}
			a := adv[i]
			// Surrogate objective value (for stats).
			clipped := clampF(rEff, 1-h.ClipParam, 1+h.ClipParam)
			st.PolicyLoss += -math.Min(rEff*a, clipped*a)
			// PPO's clip gates the gradient on the truncated ratio.
			active := (a >= 0 && rEff <= 1+h.ClipParam) || (a < 0 && rEff >= 1-h.ClipParam)
			if active {
				m.Dist.GradLogProb(dParams.Row(row), prow, b.Actions[i], -a*rEff*invN)
			}
			// Entropy bonus.
			st.Entropy += m.Dist.Entropy(prow)
			if h.EntropyCoeff != 0 {
				m.Dist.GradEntropy(dParams.Row(row), prow, -h.EntropyCoeff*invN)
			}
			// KL(π_new ‖ μ) penalty against the behavior policy.
			if b.BehaviorPR[i] != nil {
				kl := m.Dist.KL(prow, b.BehaviorPR[i])
				st.KL += kl
				if klc != 0 {
					m.Dist.GradKLP(dParams.Row(row), prow, b.BehaviorPR[i], klc*invN)
				}
			}
			// Critic regression toward GAE returns.
			diff := vOut.At(row, 0) - b.Ret[i]
			st.ValueLoss += diff * diff
			dV.Set(row, 0, 2*h.VFCoeff*diff*invN)
		}
		m.Policy.BackwardParams(dParams)
		m.Critic.BackwardParams(dV)
	}
	st.finalize()
	g.Data = m.Grads()
	tensor.ClipNorm(g.Data, h.GradClip)
	return g
}

func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
