package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"stellaris"
	"stellaris/benchmark/simrungs"
	"stellaris/internal/algo"
	"stellaris/internal/cache"
	"stellaris/internal/istrunc"
	"stellaris/internal/obs"
	"stellaris/internal/obs/lineage"
	"stellaris/internal/optim"
	"stellaris/internal/replay"
	"stellaris/internal/rng"
	"stellaris/internal/stale"
	"stellaris/internal/tensor"
)

// The stage ladder is a measurement script: it performs one policy
// update's stages itself, single-threaded, on the workload's tier and
// payload shapes, with a span around every call into a layer's exported
// function, and then times the rungs beneath the stages (kernels, the
// protocol floor, the simulator's primitives) the same way. A
// per-layer (L) metric is the median self time of the spans of one
// name. It is not a fourth copy of the pipeline to keep in step: once
// live carries stage histograms of its own, those replace it.

// ladderMetric maps a span name to the per-layer metric it feeds. The
// metric's unit is its suffix; per is how many calls one span of that
// name covers (rungs of a few ns are timed a thousand calls to a span,
// so the clock reads do not swamp them).
type ladderMetric struct {
	span, metric string
	per          float64
}

const nsBatch = 1000

var ladderMetrics = []ladderMetric{
	{"tensor.matmul", "tensor.matmul_us", 1},
	{"tensor.matmul_abt", "tensor.matmul_abt_us", 1},
	{"tensor.matmul_atb", "tensor.matmul_atb_us", 1},
	{"nn.forward", "nn.forward_us", 1},
	{"nn.backward", "nn.backward_us", 1},
	{"nn.flatten", "nn.flatten_us", 1},
	{"nn.set_weights", "nn.set_weights_us", 1},
	{"algo.compute", "algo.compute_ms", 1},
	{"algo.act", "algo.act_us", 1},
	{"replay.flatten", "replay.flatten_us", 1},
	{"env.step", "env.step_ns", 1},
	{"actor.rollout", "actor.rollout_self_us", 1},
	{"optim.step", "optim.step_us", 1},
	{"stale.offer_combine", "stale.offer_combine_us", 1},
	{"cache.enc_traj", "cache.enc_traj_us", 1},
	{"cache.dec_traj", "cache.dec_traj_us", 1},
	{"cache.enc_grad", "cache.enc_grad_us", 1},
	{"cache.dec_grad", "cache.dec_grad_us", 1},
	{"cache.enc_weights", "cache.enc_weights_us", 1},
	{"cache.dec_weights", "cache.dec_weights_us", 1},
	{"cache.build_delta", "cache.build_delta_us", 1},
	{"cache.mem_putget", "cache.mem_putget_us", 1},
	{"cache.rtt_small", "cache.rtt_small_us", 1},
	{"cache.put_traj", "cache.put_traj_us", 1},
	{"cache.getn_traj", "cache.getn_traj_us", 1},
	{"cache.put_grad", "cache.put_grad_us", 1},
	{"cache.get_grad", "cache.get_grad_us", 1},
	{"cache.get_weights", "cache.get_weights_us", 1},
	{"cache.put_weights", "cache.put_weights_us", 1},
	{"cache.delete", "cache.delete_us", 1},
	{"cache.publish", "cache.publish_us", 1},
	{"cache.sub_fetch", "cache.sub_fetch_us", 1},
	{"cache.sub_skip", "cache.sub_skip_us", 1},
	{"cache.repl_lag", "cache.repl_lag_ms", 1},
	{"core.train_round", "core.train_round_ms", 1},
	{"simclock.event", "simclock.event_ns", nsBatch},
	{"serverless.invoke", "serverless.invoke_us", 1},
	{"obs.counter_inc", "obs.counter_inc_ns", nsBatch},
	{"obs.hist_observe", "obs.hist_observe_ns", nsBatch},
	{"lineage.record", "lineage.record_ns", nsBatch},
}

// fromMicros converts a span time in µs to the unit a metric name ends
// in.
func fromMicros(metricName string, us float64) float64 {
	switch {
	case strings.HasSuffix(metricName, "_ns"):
		return us * 1e3
	case strings.HasSuffix(metricName, "_ms"):
		return us / 1e3
	}
	return us
}

// ladder is the state one stage-ladder run carries between stages.
type ladder struct {
	w   workload
	rec *recorder
	// param and worker are the parameter worker's and an actor/learner's
	// connections; on des_sweep both are the one in-process MemCache.
	param, worker cache.Cache
	tier          *tier

	actor   *roller
	learner *algo.Model
	alg     algo.Algorithm
	opti    optim.Optimizer
	tracker *istrunc.Tracker
	agg     *stale.Stellaris
	weights []float64
	pub     *cache.WeightsPublisher
	sub     *cache.WeightsSub
	rng     *rng.RNG
	errs    int
}

// span times fn under a span of the given name and counts an error.
func (l *ladder) span(name string, fn func() error) {
	s := l.rec.begin(name)
	err := fn()
	l.rec.end(s)
	if err != nil {
		l.errs++
		fmt.Fprintf(os.Stderr, "benchmark: ladder stage %s: %v\n", name, err)
	}
}

func runLadder(w workload, spec runSpec, res *runResult) error {
	reps := scaled(ladderReps, spec.Scale)
	res.Params = map[string]any{
		"repetitions": reps, "env": w.Env, "hidden": w.Hidden,
		"actor_steps": w.ActorSteps, "batch_size": w.BatchSize, "shards": w.Shards,
	}
	t, err := startTier(w.Shards, spec.Seed, nil)
	if err != nil {
		return err
	}
	defer t.close()
	l := &ladder{w: w, rec: newRecorder(), tier: t, rng: rng.New(spec.Seed).Split(200)}
	if t == nil {
		mem := cache.NewMemCache()
		l.param, l.worker = mem, mem
	} else {
		param, err := t.dialWith(cache.DialOptions{Seed: spec.Seed})
		if err != nil {
			return err
		}
		defer param.Close()
		worker, err := t.dialWith(cache.DialOptions{Seed: spec.Seed + 1})
		if err != nil {
			return err
		}
		defer worker.Close()
		l.param, l.worker = param, worker
	}
	if l.actor, err = newRoller(w, spec.Seed); err != nil {
		return err
	}
	l.actor.rec = l.rec
	l.learner = algo.NewModelHidden(l.actor.env, w.Hidden, spec.Seed)
	continuous := l.actor.env.ActionSpace().Continuous
	l.alg = algo.NewPPO(continuous)
	if l.opti, err = optim.New(l.alg.Hyper().Optimizer, l.alg.Hyper().LearningRate); err != nil {
		return err
	}
	l.tracker = istrunc.New(1.0, true)
	l.agg = stale.NewStellaris()
	l.agg.UpdatesPerRound = 8
	l.weights = l.learner.Weights()
	l.pub = &cache.WeightsPublisher{C: l.param}
	l.sub = &cache.WeightsSub{C: l.worker}
	// Version 0 on both weight paths, and a first fetch, so every timed
	// fetch below is the steady-state one-version-behind case.
	if err := l.putWeights(0); err != nil {
		return err
	}
	if err := l.pub.Publish(0, l.weights, lineage.Meta{}); err != nil {
		return err
	}
	if _, _, err := l.sub.Fetch(); err != nil {
		return err
	}

	res.setupDone()
	start := time.Now()
	for i := 0; i < reps; i++ {
		l.rec.iter = i
		l.update(i)
	}
	l.rungs(reps, spec.Seed)
	res.WallS = time.Since(start).Seconds()

	table := selfTable(l.rec.spans)
	byName := map[string]selfRow{}
	for _, row := range table {
		byName[row.Name] = row
	}
	res.StageMeanUs = map[string]float64{}
	for _, m := range ladderMetrics {
		if row, ok := byName[m.span]; ok {
			res.Layer[m.metric] = fromMicros(m.metric, row.MedianUs/m.per)
			res.StageMeanUs[m.metric] = row.MeanUs / m.per
		}
	}
	// Operation count ÷ time of the plain kernel: 2·m·k·n flops.
	if us := res.Layer["tensor.matmul_us"]; us > 0 {
		h := float64(w.Hidden)
		res.Layer["tensor.gflops"] = 2 * float64(w.BatchSize) * h * h / (us * 1e3)
	}
	res.Attempted = len(l.rec.spans)
	res.Failed = l.errs
	res.check("ladder_stages", l.errs == 0, fmt.Sprintf("%d of %d spans ended in an error", l.errs, len(l.rec.spans)))

	if spec.Out != "" {
		if err := os.MkdirAll(spec.Out, 0o755); err != nil {
			return err
		}
		if err := writeTrace(filepath.Join(spec.Out, w.Name+".trace.json"), w.Name, l.rec.spans, table); err != nil {
			return err
		}
	}
	return nil
}

// putWeights is the legacy full-vector publish lockstep mode uses.
func (l *ladder) putWeights(version int) error {
	var b []byte
	var err error
	l.span("cache.enc_weights", func() error {
		b, err = cache.EncodeWeights(&cache.WeightsMsg{
			Version: version, Weights: l.weights,
			Trace: lineage.Meta{ID: lineage.WeightsID(version), Kind: lineage.KindWeights, Origin: "param"},
		})
		return err
	})
	if err != nil {
		return err
	}
	l.span("cache.put_weights", func() error { err = l.param.Put(cache.KeyWeightsLatest, b); return err })
	cache.Recycle(b)
	return err
}

// update performs the stages of policy update i, at group size 1, in
// pipeline order: actor, learner, parameter worker.
func (l *ladder) update(i int) {
	root := l.rec.begin("update")
	defer l.rec.end(root)
	w := l.w

	// Actor: both weight paths (delta subscriber one version behind, then
	// with an unchanged head; and the legacy full fetch), then rollouts.
	l.span("cache.sub_fetch", func() error { _, _, err := l.sub.Fetch(); return err })
	l.span("cache.sub_skip", func() error { _, _, err := l.sub.Fetch(); return err })
	var raw []byte
	l.span("cache.get_weights", func() (err error) { raw, err = l.worker.Get(cache.KeyWeightsLatest); return })
	var wm *cache.WeightsMsg
	l.span("cache.dec_weights", func() (err error) { wm, err = cache.DecodeWeights(raw); return })
	if wm == nil {
		return
	}
	l.span("nn.set_weights", func() error { return l.actor.model.SetWeights(wm.Weights) })

	trajs := (w.BatchSize + w.ActorSteps - 1) / w.ActorSteps
	keys := make([]string, trajs)
	for j := range keys {
		keys[j] = fmt.Sprintf("traj/0/%d", i*trajs+j)
		var traj *replay.Trajectory
		l.span("actor.rollout", func() error { traj = l.actor.rollout(keys[j], w.ActorSteps, wm.Version); return nil })
		var b []byte
		l.span("cache.enc_traj", func() (err error) { b, err = cache.EncodeTrajectory(traj); return })
		l.span("cache.put_traj", func() error { return l.worker.Put(keys[j], b) })
		cache.Recycle(b)
	}

	// Learner: fetch the batch the way the workload's mode does (one
	// batched get in async mode, a get per key in lockstep), decode,
	// delete, flatten, compute the gradient, publish it.
	var vals [][]byte
	l.span("cache.getn_traj", func() (err error) {
		if !w.Lockstep {
			vals, err = cache.BatchGet(l.worker, keys)
			return err
		}
		vals = make([][]byte, len(keys))
		for j, k := range keys {
			if vals[j], err = l.worker.Get(k); err != nil {
				return err
			}
		}
		return nil
	})
	var batchTrajs []*replay.Trajectory
	for j, v := range vals {
		l.span("cache.dec_traj", func() error {
			tr, err := cache.DecodeTrajectory(v)
			if err == nil {
				batchTrajs = append(batchTrajs, tr)
			}
			return err
		})
		l.span("cache.delete", func() error { return l.worker.Delete(keys[j]) })
	}
	if len(batchTrajs) == 0 {
		return
	}
	l.span("nn.set_weights", func() error { return l.learner.SetWeights(wm.Weights) })
	var batch *replay.Batch
	l.span("replay.flatten", func() (err error) { batch, err = replay.Flatten(batchTrajs); return })
	var g *algo.Grad
	l.span("algo.compute", func() error {
		g = l.alg.Compute(l.learner, batch, l.tracker.View(), algo.Extra{}, l.rng.Split(uint64(i)))
		return nil
	})
	gkey := fmt.Sprintf("grad/0/%d", i)
	var gb []byte
	l.span("cache.enc_grad", func() (err error) {
		gb, err = cache.EncodeGrad(&cache.GradMsg{
			BornVersion: wm.Version, Grad: g.Data, Samples: g.Stats.Samples,
			MeanRatio: g.Stats.MeanRatio, MinRatio: g.Stats.MinRatio, KL: g.Stats.KL, Entropy: g.Stats.Entropy,
			Trace: lineage.Meta{ID: gkey, Kind: lineage.KindGradient, Origin: "learner/0#0", Parent: lineage.WeightsID(wm.Version)},
		})
		return
	})
	l.span("cache.put_grad", func() error { return l.worker.Put(gkey, gb) })
	cache.Recycle(gb)

	// Parameter worker: fetch, decode, aggregate, step, publish on both
	// weight paths.
	l.span("cache.get_grad", func() (err error) { raw, err = l.param.Get(gkey); return })
	var gm *cache.GradMsg
	l.span("cache.dec_grad", func() (err error) { gm, err = cache.DecodeGrad(raw); return })
	l.span("cache.delete", func() error { return l.param.Delete(gkey) })
	if gm == nil {
		return
	}
	var comb *stale.Combined
	l.span("stale.offer_combine", func() error {
		l.tracker.Observe(gm.MeanRatio)
		group := l.agg.Offer(&stale.Entry{
			BornVersion: gm.BornVersion, Grad: gm.Grad, Samples: gm.Samples,
			MeanRatio: gm.MeanRatio, KL: gm.KL, Trace: gkey,
		}, i)
		if group == nil {
			return fmt.Errorf("a gradient of staleness 0 did not form a group")
		}
		l.tracker.ResetGroup()
		comb = stale.Combine(l.agg, group, i)
		return nil
	})
	if comb == nil {
		return
	}
	l.span("optim.step", func() error { l.opti.Step(l.weights, comb.Grad); return nil })
	_ = l.putWeights(i + 1) // the failure is already counted by its span
	l.span("cache.publish", func() error {
		return l.pub.Publish(i+1, l.weights, lineage.Meta{ID: lineage.WeightsID(i + 1), Kind: lineage.KindWeights, Origin: "param"})
	})
}

// rungs times what lies beneath the stages, reps spans each.
func (l *ladder) rungs(reps int, seed uint64) {
	w := l.w
	l.rec.iter = -1

	// Kernels at the trunk's batch×hidden×hidden shape.
	a := tensor.MatFrom(w.BatchSize, w.Hidden, noise(l.rng, w.BatchSize*w.Hidden, 1))
	b := tensor.MatFrom(w.Hidden, w.Hidden, noise(l.rng, w.Hidden*w.Hidden, 1))
	dst := tensor.NewMat(w.BatchSize, w.Hidden)
	sq := tensor.NewMat(w.Hidden, w.Hidden)
	// The policy network on one batch of observations.
	policy := l.learner.Policy
	in := tensor.MatFrom(w.BatchSize, policy.InDim(), noise(l.rng, w.BatchSize*policy.InDim(), 1))
	dOut := tensor.MatFrom(w.BatchSize, policy.OutDim(), noise(l.rng, w.BatchSize*policy.OutDim(), 1))
	next := append([]float64(nil), l.weights...)
	for i := range next {
		next[i] += 1e-3
	}
	// An encoded trajectory of the workload's shape for the store rung.
	tb, err := cache.EncodeTrajectory(l.actor.rollout("traj/rung", w.ActorSteps, 0))
	if err != nil {
		l.errs++
		return
	}
	mem := cache.NewMemCache()
	small := make([]byte, 64)

	for i := 0; i < reps; i++ {
		l.span("tensor.matmul", func() error { tensor.MatMul(dst, a, b); return nil })
		l.span("tensor.matmul_abt", func() error { tensor.MatMulABT(dst, a, b); return nil })
		l.span("tensor.matmul_atb", func() error { tensor.MatMulATB(sq, a, dst); return nil })
		l.span("nn.forward", func() error { policy.Forward(in); return nil })
		l.span("nn.backward", func() error { policy.Backward(dOut); return nil })
		policy.ZeroGrad()
		l.span("nn.flatten", func() error { l.learner.Weights(); return nil })
		l.span("cache.build_delta", func() error { _, err := cache.BuildDelta(1, 0, l.weights, next); return err })
		l.span("cache.mem_putget", func() error {
			if err := mem.Put("traj/rung", tb); err != nil {
				return err
			}
			_, err := mem.Get("traj/rung")
			return err
		})
		l.span("cache.rtt_small", func() error {
			if err := l.worker.Put("rung/small", small); err != nil {
				return err
			}
			_, err := l.worker.Get("rung/small")
			return err
		})
	}
	if l.tier != nil && len(l.tier.followerStores) > 0 {
		for i := 0; i < reps; i++ {
			l.replLag(fmt.Sprintf("rung/lag/%d", i), small)
		}
	}

	// The simulator's primitives and the instrumentation's own cost.
	sim := simrungs.New(seed)
	reg := obs.NewRegistry()
	counter := reg.Counter("bench_rung_total", "ladder rung")
	hist := reg.Histogram("bench_rung_seconds", "ladder rung", obs.LatencyBuckets)
	lin := lineage.New(reg.Now, lineage.Options{})
	for i := 0; i < reps; i++ {
		l.span("simclock.event", func() error { sim.Events(nsBatch); return nil })
		l.span("serverless.invoke", func() error { sim.Invoke(); return nil })
		l.span("obs.counter_inc", func() error {
			for k := 0; k < nsBatch; k++ {
				counter.Inc()
			}
			return nil
		})
		l.span("obs.hist_observe", func() error {
			for k := 0; k < nsBatch; k++ {
				hist.Observe(1e-4)
			}
			return nil
		})
		l.span("lineage.record", func() error {
			for k := 0; k < nsBatch; k++ {
				lin.Record(lineage.Event{Trace: "traj/0/1", Kind: lineage.KindTrajectory, Hop: lineage.HopPut, Actor: "actor/0#0"})
			}
			return nil
		})
	}

	// One round of the sweep's first config. A call takes ~0.2 s, so
	// this rung gets a tenth of the repetitions.
	des, _ := findWorkload("des_sweep")
	cfg := desConfigs(des, seed, desUpdatesPerRound)[0]
	for i := 0; i < (reps+9)/10; i++ {
		l.span("core.train_round", func() error { _, err := stellaris.Train(cfg); return err })
	}
}

// replLag times one replication hop: from the leader's put
// acknowledgement to the key being visible in a follower's store.
func (l *ladder) replLag(key string, val []byte) {
	if err := l.worker.Put(key, val); err != nil {
		l.errs++
		return
	}
	l.span("cache.repl_lag", func() error {
		deadline := time.Now().Add(2 * time.Second)
		for {
			for _, f := range l.tier.followerStores {
				if _, err := f.Get(key); err == nil {
					return nil
				}
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("%s not replicated within 2 s", key)
			}
			runtime.Gosched()
		}
	})
	if err := l.worker.Delete(key); err != nil {
		l.errs++
	}
}
