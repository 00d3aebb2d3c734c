package algo

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"stellaris/internal/env"
	"stellaris/internal/replay"
	"stellaris/internal/rng"
	"stellaris/internal/tensor"
)

// TestComputeBitIdenticalToForwardPerMinibatch holds PPO.Compute and
// IMPACT.Compute, which forward each network once over the permuted
// batch, to the learner pass they replaced: a natural-order critic (and
// IMPACT policy) forward for the value targets, then a fresh forward of
// every minibatch. The gradient, every Stats field and the next draw of
// r must agree to the bit, for one minibatch (where the networks' first
// forward is the one they backpropagate through) and for three uneven
// ones, on an MLP and a CNN model, with IMPACT's target network set and
// nil.
func TestComputeBitIdenticalToForwardPerMinibatch(t *testing.T) {
	invaders, err := env.NewSized("invaders", 20)
	if err != nil {
		t.Fatal(err)
	}
	const rows = 130
	type pass func(*Model, *replay.Batch, Truncation, Extra, *rng.RNG) *Grad
	for _, e := range []struct {
		name string
		env  env.Env
	}{{"hopper", env.MustNew("hopper")}, {"invaders", invaders}} {
		behavior := NewModelHidden(e.env, 32, 1)
		b := rollBatch(e.env, behavior, rows, 2)
		// The learner and the target are the behavior policy nudged two
		// ways, so ratios straddle the truncation cap and the clip.
		nudged := func(seed uint64, scale float64) []float64 {
			w, r := behavior.Weights(), rng.New(seed)
			for i := range w {
				w[i] += scale * r.NormFloat64()
			}
			return w
		}
		learner, target := nudged(3, 0.02), nudged(4, 0.03)
		cont := e.env.ActionSpace().Continuous
		for _, mb := range []int{rows, 48} {
			p, im := NewPPO(cont), NewIMPACT(cont)
			p.H.MinibatchSize, im.H.MinibatchSize = mb, mb
			for _, c := range []struct {
				name   string
				got    pass
				want   func(*Hyper, *Model, *replay.Batch, Truncation, Extra, *rng.RNG) *Grad
				h      *Hyper
				target []float64
			}{
				{"ppo", p.Compute, forwardPerMinibatchPPO, &p.H, nil},
				{"impact/target", im.Compute, forwardPerMinibatchIMPACT, &im.H, target},
				{"impact/self", im.Compute, forwardPerMinibatchIMPACT, &im.H, nil},
			} {
				t.Run(fmt.Sprintf("%s/%s/mb=%d", e.name, c.name, mb), func(t *testing.T) {
					tr := Truncation{Enabled: true, GroupMin: 1, Rho: 1}
					extra := Extra{TargetWeights: c.target, KLCoeff: 0.3}
					mGot, mWant := NewModelHidden(e.env, 32, 1), NewModelHidden(e.env, 32, 1)
					for _, m := range []*Model{mGot, mWant} {
						if err := m.SetWeights(learner); err != nil {
							t.Fatal(err)
						}
					}
					rGot, rWant := rng.New(5), rng.New(5)
					want := c.want(c.h, mWant, b, tr, extra, rWant)
					got := c.got(mGot, b, tr, extra, rGot)

					if len(got.Data) != len(want.Data) {
						t.Fatalf("gradient has %d values, want %d", len(got.Data), len(want.Data))
					}
					for i := range want.Data {
						if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
							t.Fatalf("gradient[%d] = %v, want %v", i, got.Data[i], want.Data[i])
						}
					}
					gs, ws := reflect.ValueOf(got.Stats), reflect.ValueOf(want.Stats)
					for i := 0; i < gs.NumField(); i++ {
						g, w := gs.Field(i), ws.Field(i)
						same := g.Kind() == reflect.Int && g.Int() == w.Int() ||
							g.Kind() == reflect.Float64 && math.Float64bits(g.Float()) == math.Float64bits(w.Float())
						if !same {
							t.Errorf("Stats.%s = %v, want %v", gs.Type().Field(i).Name, g, w)
						}
					}
					if got.Stats.Truncated == 0 || got.Stats.Truncated == rows {
						t.Errorf("%d of %d samples truncated: the case misses one arm of the cap", got.Stats.Truncated, rows)
					}
					if g, w := rGot.Uint64(), rWant.Uint64(); g != w {
						t.Errorf("r's next draw is %#x, want %#x", g, w)
					}
				})
			}
		}
	}
}

// naturalOrder returns 0, 1, ..., n-1.
func naturalOrder(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// criticValues runs the critic over the rows of obs, in order.
func criticValues(m *Model, obs *tensor.Mat) []float64 {
	out := m.Critic.Forward(obs)
	v := make([]float64, obs.Rows)
	for i := range v {
		v[i] = out.At(i, 0)
	}
	return v
}

// forwardPerMinibatchPPO is PPO.Compute as it was before it forwarded
// each network once: GAE values from a natural-order critic forward,
// then every minibatch gathered and forwarded afresh.
func forwardPerMinibatchPPO(h *Hyper, m *Model, b *replay.Batch, tr Truncation, extra Extra, r *rng.RNG) *Grad {
	klc := h.KLCoeff
	if extra.KLCoeff > 0 {
		klc = extra.KLCoeff
	}
	n := b.Len()
	m.ZeroGrad()

	values := criticValues(m, m.gather(b.Obs, naturalOrder(n)))
	b.Prepare(values, h.Gamma, h.Lambda)
	adv := make([]float64, n)
	copy(adv, b.Adv)
	tensor.Standardize(adv)

	cap_ := tr.Cap()
	g := &Grad{}
	st := &g.Stats
	for _, idx := range replay.Minibatches(n, h.MinibatchSize, r) {
		obs := m.gather(b.Obs, idx)
		params := m.Policy.Forward(obs)
		dParams := tensor.NewMat(len(idx), params.Cols)
		vOut := m.Critic.Forward(obs)
		dV := tensor.NewMat(len(idx), 1)
		invN := 1.0 / float64(n)

		for row, i := range idx {
			prow := params.Row(row)
			newLP := m.Dist.LogProb(prow, b.Actions[i])
			ratio := math.Exp(newLP - b.BehaviorLP[i])
			st.observeRatio(ratio)
			rEff := ratio
			if rEff > cap_ {
				rEff = cap_
				st.Truncated++
			}
			a := adv[i]
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
				st.KL += m.Dist.KL(prow, b.BehaviorPR[i])
				if klc != 0 {
					m.Dist.GradKLP(dParams.Row(row), prow, b.BehaviorPR[i], klc*invN)
				}
			}
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

// forwardPerMinibatchIMPACT is IMPACT.Compute as it was before it
// forwarded each network once: target, critic and current-policy
// forwards in natural order, then every minibatch gathered and
// forwarded afresh.
func forwardPerMinibatchIMPACT(h *Hyper, m *Model, b *replay.Batch, tr Truncation, extra Extra, r *rng.RNG) *Grad {
	klc := h.KLCoeff
	if extra.KLCoeff > 0 {
		klc = extra.KLCoeff
	}
	n := b.Len()
	obsAll := m.gather(b.Obs, naturalOrder(n))

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
	values := criticValues(m, obsAll)
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
	for _, idx := range replay.Minibatches(n, h.MinibatchSize, r) {
		obs := m.gather(b.Obs, idx)
		params := m.Policy.Forward(obs)
		dParams := tensor.NewMat(len(idx), params.Cols)
		vOut := m.Critic.Forward(obs)
		dV := tensor.NewMat(len(idx), 1)
		invN := 1.0 / float64(n)

		for row, i := range idx {
			prow := params.Row(row)
			newLP := m.Dist.LogProb(prow, b.Actions[i])
			behRatio := math.Exp(newLP - b.BehaviorLP[i])
			st.observeRatio(behRatio)
			ratio := math.Exp(newLP - targetLP[i])
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
				st.KL += m.Dist.KL(prow, b.BehaviorPR[i])
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
	st.finalize()
	g.Data = m.Grads()
	tensor.ClipNorm(g.Data, h.GradClip)
	return g
}
