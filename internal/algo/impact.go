package algo

import (
	"math"

	"stellaris/internal/replay"
	"stellaris/internal/rng"
	"stellaris/internal/tensor"
)

// IMPACT implements the paper's off-policy baseline (Luo et al., ICLR
// 2020): V-trace corrected value targets combined with a surrogate
// objective whose likelihood ratio is measured against a slowly updated
// *target network* rather than the behavior policy, which stabilizes
// asynchronous training. Stellaris's global truncation (Eq. 2) applies
// on top of the target-network ratio.
type IMPACT struct {
	H Hyper
}

// NewIMPACT returns IMPACT with Table III hyperparameters for the given
// task class.
func NewIMPACT(continuous bool) *IMPACT { return &IMPACT{H: IMPACTHyper(continuous)} }

// Name implements Algorithm.
func (im *IMPACT) Name() string { return "impact" }

// Hyper implements Algorithm.
func (im *IMPACT) Hyper() *Hyper { return &im.H }

// NeedsTarget implements Algorithm.
func (im *IMPACT) NeedsTarget() bool { return true }

// Compute implements Algorithm. extra.TargetWeights must hold the target
// network's combined weight vector; when nil the learner's own weights
// double as the target (the state before the first target refresh).
func (im *IMPACT) Compute(m *Model, b *replay.Batch, tr Truncation, extra Extra, r *rng.RNG) *Grad {
	h := &im.H
	klc := h.KLCoeff
	if extra.KLCoeff > 0 {
		klc = extra.KLCoeff
	}
	n := b.Len()

	// Pass 1: behavior-vs-current ratios for V-trace, plus target-network
	// log-probs for the surrogate. The target pass temporarily loads the
	// target weights into the model — one model replica per learner
	// function keeps this race-free.
	obsAll := m.gather(b.Obs, nil)

	targetLP := make([]float64, n)
	if extra.TargetWeights != nil {
		saved := m.Weights()
		if err := m.SetWeights(extra.TargetWeights); err != nil {
			panic(err)
		}
		tOut := m.Policy.Forward(obsAll)
		for i := 0; i < n; i++ {
			targetLP[i] = m.Dist.LogProb(tOut.Row(i), b.Actions[i])
		}
		if err := m.SetWeights(saved); err != nil {
			panic(err)
		}
	}

	m.ZeroGrad()
	values := m.valuesOf(obsAll)
	curOut := m.Policy.Forward(obsAll)
	rhos := make([]float64, n)
	for i := 0; i < n; i++ {
		lp := m.Dist.LogProb(curOut.Row(i), b.Actions[i])
		rhos[i] = math.Exp(lp - b.BehaviorLP[i])
		if extra.TargetWeights == nil {
			targetLP[i] = lp
		}
	}
	vs, pgAdv := VTrace(b.Rewards, values, rhos, b.Dones, h.Gamma, 1.0, 1.0)
	adv := make([]float64, n)
	copy(adv, pgAdv)
	tensor.Standardize(adv)

	cap_ := tr.Cap()
	g := &Grad{}
	st := &g.Stats

	for iter := 0; iter < max(h.SGDIters, 1); iter++ {
		for _, idx := range replay.Minibatches(n, h.MinibatchSize, r) {
			obs := m.gather(b.Obs, idx)
			params := m.Policy.Forward(obs)
			dParams := tensor.NewMat(len(idx), params.Cols)
			vOut := m.Critic.Forward(obs)
			dV := tensor.NewMat(len(idx), 1)
			invN := 1.0 / float64(n*max(h.SGDIters, 1))

			for row, i := range idx {
				prow := params.Row(row)
				newLP := m.Dist.LogProb(prow, b.Actions[i])
				// Behavior ratio feeds the truncation tracker (Eq. 2 is
				// defined against the actor policy μ).
				behRatio := math.Exp(newLP - b.BehaviorLP[i])
				st.observeRatio(behRatio)
				// Surrogate ratio is against the target network.
				ratio := math.Exp(newLP - targetLP[i])

				// Eq. 2 binds on the behavior ratio: the coefficient is
				// damped by cap/behRatio so the effective IS weight is
				// pulled back to the cap rather than zeroed.
				truncScale := 1.0
				if behRatio > cap_ {
					truncScale = cap_ / behRatio
					st.Truncated++
				}
				a := adv[i]
				rEff := ratio * truncScale
				clipped := clampF(rEff, 1-h.ClipParam, 1+h.ClipParam)
				st.PolicyLoss += -math.Min(rEff*a, clipped*a)
				active := (a >= 0 && rEff <= 1+h.ClipParam) || (a < 0 && rEff >= 1-h.ClipParam)
				if active {
					m.Dist.GradLogProb(dParams.Row(row), prow, b.Actions[i], -a*rEff*invN)
				}
				st.Entropy += m.Dist.Entropy(prow)
				if h.EntropyCoeff != 0 {
					m.Dist.GradEntropy(dParams.Row(row), prow, -h.EntropyCoeff*invN)
				}
				if b.BehaviorPR[i] != nil {
					kl := m.Dist.KL(prow, b.BehaviorPR[i])
					st.KL += kl
					if klc != 0 {
						m.Dist.GradKLP(dParams.Row(row), prow, b.BehaviorPR[i], klc*invN)
					}
				}
				diff := vOut.At(row, 0) - vs[i]
				st.ValueLoss += diff * diff
				dV.Set(row, 0, 2*h.VFCoeff*diff*invN)
			}
			m.Policy.BackwardParams(dParams)
			m.Critic.BackwardParams(dV)
		}
	}
	st.finalize()
	g.Data = m.Grads()
	tensor.ClipNorm(g.Data, h.GradClip)
	return g
}
