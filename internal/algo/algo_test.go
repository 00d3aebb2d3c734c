package algo

import (
	"math"
	"testing"

	"stellaris/internal/env"
	"stellaris/internal/nn"
	"stellaris/internal/replay"
	"stellaris/internal/rng"
)

func TestTruncationCap(t *testing.T) {
	tr := Truncation{Enabled: true, GroupMin: 0.8, Rho: 1.0}
	if tr.Cap() != 0.8 {
		t.Fatalf("Cap = %v, want 0.8 (group min binds)", tr.Cap())
	}
	tr.GroupMin = 1.5
	if tr.Cap() != 1.0 {
		t.Fatalf("Cap = %v, want 1.0 (rho binds)", tr.Cap())
	}
	tr.Enabled = false
	if !math.IsInf(tr.Cap(), 1) {
		t.Fatal("disabled truncation should be +Inf")
	}
	tr = Truncation{Enabled: true, GroupMin: math.NaN(), Rho: 0.9}
	if tr.Cap() != 0.9 {
		t.Fatalf("NaN group min should fall back to rho, got %v", tr.Cap())
	}
}

func TestHyperTablesIII(t *testing.T) {
	p := PPOHyper(true)
	if p.LearningRate != 0.00005 || p.Gamma != 0.99 || p.BatchSize != 4096 ||
		p.ClipParam != 0.3 || p.KLCoeff != 0.2 || p.KLTarget != 0.01 ||
		p.EntropyCoeff != 0 || p.VFCoeff != 1.0 || p.Optimizer != "adam" {
		t.Fatalf("PPO continuous hyper wrong: %+v", p)
	}
	if PPOHyper(false).BatchSize != 256 {
		t.Fatal("PPO image batch size wrong")
	}
	im := IMPACTHyper(true)
	if im.LearningRate != 0.0005 || im.ClipParam != 0.4 || im.KLCoeff != 1.0 ||
		im.EntropyCoeff != 0.01 || im.TargetUpdateFreq != 1.0 {
		t.Fatalf("IMPACT hyper wrong: %+v", im)
	}
}

// rollBatch samples a batch from env using model m.
func rollBatch(e env.Env, m *Model, n int, seed uint64) *replay.Batch {
	r := rng.New(seed)
	traj := &replay.Trajectory{}
	obs := e.Reset(r)
	for i := 0; i < n; i++ {
		a, lp, dp := m.Act(obs, r)
		next, rew, done := e.Step(a)
		traj.Steps = append(traj.Steps, replay.Step{
			Obs: obs, Action: a, Reward: rew, Done: done, LogProb: lp, DistParams: dp,
		})
		if done {
			obs = e.Reset(r)
		} else {
			obs = next
		}
	}
	b, err := replay.Flatten([]*replay.Trajectory{traj})
	if err != nil {
		panic(err)
	}
	return b
}

func TestModelWeightsRoundTrip(t *testing.T) {
	e := env.MustNew("cartpole")
	m1 := NewModelHidden(e, 16, 1)
	m2 := NewModelHidden(e, 16, 2)
	w := m1.Weights()
	if err := m2.SetWeights(w); err != nil {
		t.Fatal(err)
	}
	obs := []float64{0.1, 0.2, 0.3, 0.4}
	a1 := m1.ActGreedy(obs)
	a2 := m2.ActGreedy(obs)
	if a1[0] != a2[0] {
		t.Fatal("weight transfer changed greedy action")
	}
	if err := m2.SetWeights(w[:3]); err == nil {
		t.Fatal("short weight vector accepted")
	}
}

func TestModelDistMatchesActionSpace(t *testing.T) {
	cont := NewModelHidden(env.MustNew("hopper"), 16, 1)
	if cont.Dist.Name() != "diag_gaussian" {
		t.Fatalf("hopper dist %q", cont.Dist.Name())
	}
	disc := NewModelHidden(env.MustNew("cartpole"), 16, 1)
	if disc.Dist.Name() != "categorical" {
		t.Fatalf("cartpole dist %q", disc.Dist.Name())
	}
}

func TestPPOGradientImprovesObjective(t *testing.T) {
	// One small SGD step along -grad must increase the (clipped)
	// surrogate objective / decrease the loss on the same batch.
	e := env.MustNew("cartpole")
	m := NewModelHidden(e, 16, 3)
	p := NewPPO(false)
	p.H.MinibatchSize = 0
	p.H.GradClip = 0
	p.H.KLCoeff = 0 // pure surrogate for a clean directional test
	b := rollBatch(e, m, 128, 5)

	g := p.Compute(m, b, Truncation{}, Extra{}, rng.New(1))
	loss0 := g.Stats.PolicyLoss + g.Stats.ValueLoss

	w := m.Weights()
	const step = 1e-3
	for i := range w {
		w[i] -= step * g.Data[i]
	}
	if err := m.SetWeights(w); err != nil {
		t.Fatal(err)
	}
	g2 := p.Compute(m, b, Truncation{}, Extra{}, rng.New(1))
	loss1 := g2.Stats.PolicyLoss + g2.Stats.ValueLoss
	if loss1 >= loss0 {
		t.Fatalf("gradient step increased loss: %v -> %v", loss0, loss1)
	}
}

func TestPPOOnPolicyRatiosNearOne(t *testing.T) {
	e := env.MustNew("cartpole")
	m := NewModelHidden(e, 16, 7)
	p := NewPPO(false)
	b := rollBatch(e, m, 64, 11)
	g := p.Compute(m, b, Truncation{}, Extra{}, rng.New(1))
	if math.Abs(g.Stats.MeanRatio-1) > 1e-9 {
		t.Fatalf("on-policy mean ratio %v != 1", g.Stats.MeanRatio)
	}
	if g.Stats.KL > 1e-9 {
		t.Fatalf("on-policy KL %v != 0", g.Stats.KL)
	}
}

func TestPPOTruncationZeroesPositiveAdvGrad(t *testing.T) {
	// With a cap far below every ratio, no surrogate gradient flows; only
	// critic/KL/entropy terms remain. Check the truncation counter.
	e := env.MustNew("cartpole")
	m := NewModelHidden(e, 16, 9)
	p := NewPPO(false)
	b := rollBatch(e, m, 64, 13)
	tr := Truncation{Enabled: true, GroupMin: 1e-6, Rho: 1.0}
	g := p.Compute(m, b, tr, Extra{}, rng.New(1))
	if g.Stats.Truncated != g.Stats.Samples {
		t.Fatalf("truncated %d of %d, want all", g.Stats.Truncated, g.Stats.Samples)
	}
}

func TestPPOGradientFinite(t *testing.T) {
	e := env.MustNew("hopper")
	m := NewModelHidden(e, 16, 15)
	p := NewPPO(true)
	p.H.MinibatchSize = 32
	b := rollBatch(e, m, 96, 17)
	g := p.Compute(m, b, Truncation{Enabled: true, GroupMin: 1, Rho: 1}, Extra{}, rng.New(1))
	if len(g.Data) != m.NumParams() {
		t.Fatalf("gradient length %d != %d", len(g.Data), m.NumParams())
	}
	for i, v := range g.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("non-finite gradient at %d", i)
		}
	}
	if g.Stats.Samples == 0 || g.Stats.Entropy == 0 {
		t.Fatalf("stats not populated: %+v", g.Stats)
	}
}

func TestPPOGradClipBoundsNorm(t *testing.T) {
	e := env.MustNew("cartpole")
	m := NewModelHidden(e, 16, 19)
	p := NewPPO(false)
	p.H.GradClip = 0.001
	b := rollBatch(e, m, 64, 21)
	g := p.Compute(m, b, Truncation{}, Extra{}, rng.New(1))
	var norm float64
	for _, v := range g.Data {
		norm += v * v
	}
	if math.Sqrt(norm) > 0.001+1e-9 {
		t.Fatalf("gradient norm %v exceeds clip", math.Sqrt(norm))
	}
}

func TestVTraceOnPolicyReducesToTDLambda1(t *testing.T) {
	// With all ratios 1 and no truncation binding, vs equals the
	// λ=1 TD recursion: vs_t = r_t + γ·vs_{t+1} at terminal-free steps.
	rewards := []float64{1, 2, 3}
	values := []float64{0.5, 0.5, 0.5}
	rhos := []float64{1, 1, 1}
	dones := []bool{false, false, true}
	vs, pg := VTrace(rewards, values, rhos, dones, 0.9, 1, 1)
	// vs_2 = V2 + (r2 - V2) = 3.
	if !almost(vs[2], 3) {
		t.Fatalf("vs[2] = %v", vs[2])
	}
	// vs_1 = V1 + δ1 + γ(vs2 - V2) = 0.5 + (2 + 0.9*0.5 - 0.5) + 0.9*2.5
	want1 := 0.5 + (2 + 0.9*0.5 - 0.5) + 0.9*(3-0.5)
	if !almost(vs[1], want1) {
		t.Fatalf("vs[1] = %v, want %v", vs[1], want1)
	}
	// pgAdv_2 uses no bootstrap at the terminal.
	if !almost(pg[2], 3-0.5) {
		t.Fatalf("pg[2] = %v", pg[2])
	}
}

func TestVTraceTruncatesHighRatios(t *testing.T) {
	rewards := []float64{1}
	values := []float64{0}
	dones := []bool{true}
	vsLow, _ := VTrace(rewards, values, []float64{0.5}, dones, 0.9, 1, 1)
	vsHigh, _ := VTrace(rewards, values, []float64{50}, dones, 0.9, 1, 1)
	if !almost(vsLow[0], 0.5) {
		t.Fatalf("low-ratio vs %v", vsLow[0])
	}
	// Ratio 50 truncates to 1.
	if !almost(vsHigh[0], 1) {
		t.Fatalf("high-ratio vs %v, want truncated 1", vsHigh[0])
	}
}

func TestIMPACTGradientFinite(t *testing.T) {
	e := env.MustNew("cartpole")
	m := NewModelHidden(e, 16, 23)
	im := NewIMPACT(false)
	im.H.MinibatchSize = 32
	b := rollBatch(e, m, 96, 25)

	// Target = slightly different weights.
	target := m.Weights()
	for i := range target {
		target[i] *= 0.99
	}
	g := im.Compute(m, b, Truncation{Enabled: true, GroupMin: 1, Rho: 1},
		Extra{TargetWeights: target}, rng.New(1))
	for i, v := range g.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("non-finite IMPACT gradient at %d", i)
		}
	}
	if g.Stats.Samples != 96 {
		t.Fatalf("samples %d", g.Stats.Samples)
	}
}

func TestIMPACTRestoresWeightsAfterTargetPass(t *testing.T) {
	e := env.MustNew("cartpole")
	m := NewModelHidden(e, 16, 27)
	before := m.Weights()
	im := NewIMPACT(false)
	b := rollBatch(e, m, 32, 29)
	target := make([]float64, len(before)) // zero target network
	copy(target, before)
	target[0] += 1
	im.Compute(m, b, Truncation{}, Extra{TargetWeights: target}, rng.New(1))
	after := m.Weights()
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("Compute mutated model weights at %d", i)
		}
	}
}

func TestIMPACTNilTargetSelfTarget(t *testing.T) {
	e := env.MustNew("cartpole")
	m := NewModelHidden(e, 16, 31)
	im := NewIMPACT(false)
	b := rollBatch(e, m, 32, 33)
	g := im.Compute(m, b, Truncation{}, Extra{}, rng.New(1))
	if g == nil || len(g.Data) != m.NumParams() {
		t.Fatal("nil-target IMPACT compute failed")
	}
}

func TestAlgoInterfaces(t *testing.T) {
	p := NewPPO(true)
	if p.Name() != "ppo" || p.NeedsTarget() {
		t.Fatal("PPO interface wrong")
	}
	im := NewIMPACT(true)
	if im.Name() != "impact" || !im.NeedsTarget() {
		t.Fatal("IMPACT interface wrong")
	}
}

func almost(a, b float64) bool { return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)) }

// TestActAllocations bounds the per-step allocations of the actor's hot
// call by what they were before the policy's layers kept their matrix
// views (6 on a continuous task, 8 on a discrete one): the action, the
// copied parameter row and the distribution's scratch remain.
func TestActAllocations(t *testing.T) {
	for name, limit := range map[string]float64{"hopper": 6, "cartpole": 8} {
		e, err := env.New(name)
		if err != nil {
			t.Fatal(err)
		}
		m := NewModelHidden(e, 64, 1)
		obs, r := e.Reset(rng.New(2)), rng.New(3)
		m.Act(obs, r)
		if n := testing.AllocsPerRun(100, func() { m.Act(obs, r) }); n > limit {
			t.Errorf("%s: %v allocations per Act, at most %v before", name, n, limit)
		}
	}
}

// TestModelSlabLayout pins the one layout both slabs have, for an MLP
// and a CNN model: the policy's Params() then the critic's, each in
// order. Weights(), WeightSlab() and Grads() after a Compute hold the
// concatenation of those Params element for element, and element i of
// each slab is the very memory of its Param element, so writing slab
// index i changes exactly that element. A slab laid out in any other
// order — the order the layers are built in, say — would ship
// gradients that do not line up with the weights they step.
func TestModelSlabLayout(t *testing.T) {
	invaders, err := env.NewSized("invaders", 20)
	if err != nil {
		t.Fatal(err)
	}
	for name, e := range map[string]env.Env{"mlp": env.MustNew("cartpole"), "cnn": invaders} {
		t.Run(name, func(t *testing.T) {
			m := NewModelHidden(e, 16, 7)
			params := append(m.Policy.Params(), m.Critic.Params()...)
			concat := func(field func(*nn.Param) []float64) []float64 {
				var out []float64
				for _, p := range params {
					out = append(out, field(p)...)
				}
				return out
			}
			g := NewPPO(e.ActionSpace().Continuous).Compute(m, rollBatch(e, m, 16, 3), Truncation{}, Extra{}, rng.New(1))
			data, grad := concat(func(p *nn.Param) []float64 { return p.Data }), concat(func(p *nn.Param) []float64 { return p.Grad })
			for _, v := range []struct {
				what      string
				got, want []float64
			}{
				{"Weights()", m.Weights(), data},
				{"WeightSlab()", m.WeightSlab(), data},
				{"Grads()", m.Grads(), grad},
				{"Grad.Data", g.Data, grad},
			} {
				if len(v.got) != len(v.want) || len(v.want) != m.NumParams() {
					t.Fatalf("%s has %d values, the Params %d, NumParams %d", v.what, len(v.got), len(v.want), m.NumParams())
				}
				for i := range v.want {
					if math.Float64bits(v.got[i]) != math.Float64bits(v.want[i]) {
						t.Fatalf("%s[%d] = %v, the Params concatenation has %v", v.what, i, v.got[i], v.want[i])
					}
				}
			}
			w, gs := m.WeightSlab(), m.Grads()
			i := 0
			for _, p := range params {
				for j := range p.Data {
					if &w[i] != &p.Data[j] || &gs[i] != &p.Grad[j] {
						t.Fatalf("slab index %d is not %s[%d]", i, p.Name, j)
					}
					i++
				}
			}
			r := rng.New(2)
			for k := 0; k < 20; k++ {
				i := r.Intn(len(w))
				was := w[i]
				w[i] = was + 1
				diff := 0
				for j, v := range concat(func(p *nn.Param) []float64 { return p.Data }) {
					if v != data[j] {
						diff++
					}
				}
				w[i] = was
				if diff != 1 {
					t.Fatalf("writing slab index %d changed %d Param elements", i, diff)
				}
			}
		})
	}
}

// TestRolloutPackLivesOneRollout holds Rollout's pack to the rollout it
// was made for. A model rolls out, takes another weight vector with
// SetWeights, and rolls out again; a twin that never packs (it is
// driven one step per Rollout, too few rows for a pack to pay) does the
// same. Both trajectories, and a greedy action after a third weight
// vector is loaded outside any rollout, must have the twin's bits: a
// packed copy kept from the first rollout would show in the second.
func TestRolloutPackLivesOneRollout(t *testing.T) {
	const steps = 64
	weights := [][]float64{NewModelHidden(env.MustNew("hopper"), 64, 2).Weights(), NewModelHidden(env.MustNew("hopper"), 64, 3).Weights()}
	packing, twin := NewModelHidden(env.MustNew("hopper"), 64, 1), NewModelHidden(env.MustNew("hopper"), 64, 1)
	ePacking, eTwin := env.MustNew("hopper"), env.MustNew("hopper")
	rPacking, rTwin := rng.New(4), rng.New(4)
	var epPacking, epTwin Episode
	for burst := 0; burst < 2; burst++ {
		got := packing.Rollout(ePacking, rPacking, &epPacking, steps, nil)
		var want []replay.Step
		for i := 0; i < steps; i++ {
			want = append(want, twin.Rollout(eTwin, rTwin, &epTwin, 1, nil).Steps...)
		}
		for i, w := range want {
			g := got.Steps[i]
			same := len(g.Action) == len(w.Action) && math.Float64bits(g.LogProb) == math.Float64bits(w.LogProb)
			for j := range w.DistParams {
				same = same && math.Float64bits(g.DistParams[j]) == math.Float64bits(w.DistParams[j])
			}
			if !same {
				t.Fatalf("rollout %d, step %d: log-prob %v, params %v; a model that never packs gives %v, %v",
					burst, i, g.LogProb, g.DistParams, w.LogProb, w.DistParams)
			}
		}
		for _, m := range []*Model{packing, twin} {
			if err := m.SetWeights(weights[burst]); err != nil {
				t.Fatal(err)
			}
		}
	}
	obs := epPacking.Obs
	got, want := packing.ActGreedy(obs), twin.ActGreedy(obs)
	for j, w := range want {
		if math.Float64bits(got[j]) != math.Float64bits(w) {
			t.Fatalf("ActGreedy after the rollouts: action %v, a model that never packs %v", got, want)
		}
	}
}
