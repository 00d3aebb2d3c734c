package algo

import (
	"testing"

	"stellaris/internal/env"
	"stellaris/internal/rng"
)

// computeShapes are the minibatch sizes the Compute benchmarks run on
// their 512-row batch: the whole batch in one minibatch, the shape
// every benchmark workload and small-scale figure runs, and four
// minibatches of 128, where each minibatch is forwarded afresh.
var computeShapes = []struct {
	name string
	size int
}{{"mb=all", 0}, {"mb=128", 128}}

// BenchmarkPPOCompute measures one learner-function gradient pass at the
// reduced bench scale (hidden 64, batch 512) — the dominant real-compute
// cost in every simulated experiment.
func BenchmarkPPOCompute(b *testing.B) {
	for _, s := range computeShapes {
		b.Run(s.name, func(b *testing.B) {
			e := env.MustNew("hopper")
			m := NewModelHidden(e, 64, 1)
			p := NewPPO(true)
			p.H.MinibatchSize = s.size
			batch := rollBatch(e, m, 512, 2)
			r := rng.New(3)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Compute(m, batch, Truncation{Enabled: true, GroupMin: 1, Rho: 1}, Extra{}, r)
			}
		})
	}
}

// BenchmarkIMPACTCompute includes the target-network pass.
func BenchmarkIMPACTCompute(b *testing.B) {
	for _, s := range computeShapes {
		b.Run(s.name, func(b *testing.B) {
			e := env.MustNew("hopper")
			m := NewModelHidden(e, 64, 1)
			im := NewIMPACT(true)
			im.H.MinibatchSize = s.size
			batch := rollBatch(e, m, 512, 2)
			target := m.Weights()
			r := rng.New(3)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				im.Compute(m, batch, Truncation{Enabled: true, GroupMin: 1, Rho: 1},
					Extra{TargetWeights: target}, r)
			}
		})
	}
}

// BenchmarkActorSample measures policy-driven trajectory collection.
func BenchmarkActorSample(b *testing.B) {
	e := env.MustNew("hopper")
	m := NewModelHidden(e, 64, 1)
	r := rng.New(4)
	obs := e.Reset(r)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		action, _, _ := m.Act(obs, r)
		next, _, done := e.Step(action)
		if done {
			obs = e.Reset(r)
		} else {
			obs = next
		}
	}
}

// BenchmarkVTrace measures the off-policy correction recursion.
func BenchmarkVTrace(b *testing.B) {
	const n = 4096
	rewards := make([]float64, n)
	values := make([]float64, n)
	rhos := make([]float64, n)
	dones := make([]bool, n)
	r := rng.New(5)
	for i := range rewards {
		rewards[i] = r.NormFloat64()
		values[i] = r.NormFloat64()
		rhos[i] = 0.5 + r.Float64()
		dones[i] = i%200 == 199
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		VTrace(rewards, values, rhos, dones, 0.99, 1, 1)
	}
}
