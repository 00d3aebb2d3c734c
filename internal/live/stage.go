package live

// The pipeline's stages, each written once: the weight view every
// worker fetches through, the learner step, the parameter step and the
// shed path. runAsync and runLockstep only decide WHEN a stage runs —
// concurrently behind channels and a rollout only once a learner will
// take it (stale.Admit), or in a fixed round-robin order — never what it
// does, so a policy plugged into a stage (a sync rule in the weight
// fetch) lands in both schedules at once. The actor's stage is
// actor.iterate (actor.go). What is shed: faults (put-failed,
// get-failed, decode-failed, no-weights) in either schedule, and under
// backpressure only gradients the parameter worker is too backlogged to
// queue — admission keeps the trajectory queues from ever filling.

import (
	"errors"
	"fmt"
	"time"

	"stellaris/internal/algo"
	"stellaris/internal/cache"
	"stellaris/internal/obs"
	"stellaris/internal/obs/lineage"
	"stellaris/internal/replay"
	"stellaris/internal/rng"
	"stellaris/internal/stale"
)

// weightView is a worker's window onto the published policy: the fetch,
// the stale copy a failed fetch degrades to, and the bound on how many
// consecutive failures the worker tolerates before it is restarted.
type weightView struct {
	// sub tracks the async delta broadcast and owns the stale copy there
	// (its (weights, version) pair stays consistent even after a partly
	// applied chain). nil is lockstep's plain "weights/latest" read — see
	// publishWeights for why that fork stays — with the copy kept here.
	sub          *cache.WeightsSub
	cli          cache.Cache
	st           *runState
	who          string // "actor 0", for the give-up error
	maxFallbacks int    // Options.MaxStaleFallbacks

	lastW   []float64
	lastVer int
	streak  int
}

// newWeightView wires a view over cli, subscribing to the delta chain
// exactly when the run publishes one.
func (r *run) newWeightView(cli cache.Cache, who string) weightView {
	v := weightView{cli: cli, st: r.st, who: who, maxFallbacks: r.opt.MaxStaleFallbacks}
	if r.pub != nil {
		v.sub = r.trackSub(&cache.WeightsSub{C: cli})
	}
	return v
}

// fetch returns the newest weights and THEIR version. A failed fetch —
// transient cache trouble or a corrupt payload; the client has already
// spent its deadline and retry budget, so each one is a bounded wait —
// degrades to the stale copy together with the version it was fetched
// under: whatever runs on it runs under that policy, whatever the
// global counter says. ok is false when there is no copy yet (after a
// short pause, so a caller that simply retries does not spin); err is
// non-nil once more than maxFallbacks consecutive fetches have failed.
func (v *weightView) fetch() (w []float64, ver int, ok bool, err error) {
	if v.sub != nil {
		w, ver, err = v.sub.Fetch()
	} else {
		w, ver, err = getWeights(v.cli)
	}
	if err == nil {
		if v.sub == nil {
			v.lastW, v.lastVer = w, ver
		}
		v.streak = 0
		return w, ver, true, nil
	}
	v.streak++
	if v.streak > v.maxFallbacks {
		return nil, 0, false, fmt.Errorf("live: %s: weights unavailable after %d fallbacks: %w", v.who, v.streak, err)
	}
	v.st.staleReuse()
	if v.sub != nil {
		w, ver, ok = v.sub.Cached()
	} else {
		w, ver, ok = v.lastW, v.lastVer, v.lastW != nil
	}
	if !ok {
		time.Sleep(10 * time.Millisecond)
	}
	return w, ver, ok, nil
}

// reset forgets the stale copy and the failure streak (lockstep's
// checkpoint boundary: a resumed worker starts with neither).
func (v *weightView) reset() { v.lastW, v.lastVer, v.streak = nil, 0, 0 }

// shed abandons one payload on a shed-load path: the drop is counted
// under reason (one of the drop* constants, so Report, metrics and
// lineage share a vocabulary), recorded as the artifact's shed hop, and
// the key is deleted so a shed payload does not outlive the decision in
// the cache. A nil cli skips the delete — the put-failed and get-failed
// cases, where the cache has just eaten a whole retry budget.
func (s *runState) shed(cli cache.Cache, key, kind, who, reason string) {
	s.drop(reason)
	s.lin.Record(lineage.Event{
		Trace: key, Kind: kind, Hop: lineage.HopShed, Actor: who, Detail: reason,
	})
	if cli != nil {
		_ = cli.Delete(key)
	}
}

// learner is one learner function (§IV step 2). Like the actor it lives
// on a struct so its step is testable against a plain MemCache.
type learner struct {
	id   int
	name string // lineage identity, incarnation included ("learner/0#1")
	r    *run
	cli  cache.Cache

	model   *algo.Model
	rng     *rng.RNG
	weights weightView
	// seq numbers this learner's gradients. It belongs to the worker
	// identity, not the incarnation: keys must not collide across
	// restarts, and lockstep checkpoints it.
	seq *int
	// iterSeconds is this learner's live_iteration_seconds child (nil
	// when un-instrumented).
	iterSeconds *obs.Histogram
}

func (r *run) newLearner(id int, name string, cli cache.Cache, workerRNG *rng.RNG, seq *int) *learner {
	return &learner{
		id: id, name: name, r: r, cli: cli,
		model:       algo.NewModelHidden(r.template, r.opt.Hidden, r.opt.Seed),
		rng:         workerRNG,
		weights:     r.newWeightView(cli, fmt.Sprintf("learner %d", id)),
		seq:         seq,
		iterSeconds: r.m.iterHist("learner", id),
	}
}

// step turns one batch of trajectory keys into one gradient in the
// cache: weights → batched fetch → decode → compute → encode → put. ok
// reports whether a gradient landed; every path that abandons a payload
// goes through shed; a non-nil error restarts the worker.
func (l *learner) step(keys []string) (note gradNote, ok bool, err error) {
	r := l.r
	start := time.Now()
	w, born, have, err := l.weights.fetch()
	if err != nil {
		return gradNote{}, false, err
	}
	if !have {
		// No weights ever fetched: shed the batch rather than compute
		// garbage.
		for _, k := range keys {
			r.st.shed(l.cli, k, lineage.KindTrajectory, l.name, dropNoWeights)
		}
		return gradNote{}, false, nil
	}
	if err := l.model.SetWeights(w); err != nil {
		return gradNote{}, false, err
	}
	// The gradient's trace identity is fixed before the decode loop so
	// each consumed trajectory can reference its downstream artifact (the
	// forward link Chain() follows); seq itself advances only after the
	// compute succeeds.
	gkey := fmt.Sprintf("grad/%d/%d", l.id, *l.seq)
	// One batched round trip fetches the whole trajectory batch; a
	// transport failure degrades to an all-missed batch (the client
	// already spent its retry budget) rather than killing the worker.
	vals, err := cache.BatchGet(l.cli, keys)
	if err != nil {
		vals = make([][]byte, len(keys))
	}
	var trajs []*replay.Trajectory
	for i, raw := range vals {
		if raw == nil {
			continue // evicted under overload
		}
		tr, err := cache.DecodeTrajectory(raw)
		if err != nil {
			// Corrupted in transit or storage: skip it.
			r.st.shed(l.cli, keys[i], lineage.KindTrajectory, l.name, dropDecodeFailed)
			continue
		}
		trajs = append(trajs, tr)
		lag := born - tr.PolicyVersion
		r.st.lagSum.Add(int64(lag))
		r.st.lagN.Add(1)
		if r.m != nil {
			r.m.trajLag.Observe(float64(lag))
		}
		r.recordConsumed(keys[i], gkey, l.name)
		_ = l.cli.Delete(keys[i])
	}
	if len(trajs) == 0 {
		return gradNote{}, false, nil
	}
	batch, err := replay.Flatten(trajs)
	if err != nil {
		return gradNote{}, false, err
	}
	g := r.alg.Compute(l.model, batch, r.tracker.View(), algo.Extra{}, l.rng.Split(uint64(*l.seq)))
	*l.seq++
	r.recordGradProduced(gkey, l.name, born, g.Stats.Truncated)
	gb, err := cache.EncodeGrad(&cache.GradMsg{
		LearnerID: l.id, BornVersion: born, Grad: g.Data,
		Samples: g.Stats.Samples, MeanRatio: g.Stats.MeanRatio,
		MinRatio: g.Stats.MinRatio, KL: g.Stats.KL, Entropy: g.Stats.Entropy,
		Truncated: g.Stats.Truncated,
		Trace: lineage.Meta{
			ID: gkey, Kind: lineage.KindGradient,
			Origin: l.name, Parent: lineage.WeightsID(born),
		},
	})
	if err != nil {
		return gradNote{}, false, err
	}
	err = l.cli.Put(gkey, gb)
	cache.Recycle(gb)
	if err != nil {
		// Retries exhausted: shed the gradient; the actors keep producing
		// and a later batch will land.
		r.st.shed(nil, gkey, lineage.KindGradient, l.name, dropPutFailed)
		return gradNote{}, false, nil
	}
	if l.iterSeconds != nil {
		l.iterSeconds.Observe(time.Since(start).Seconds())
	}
	return gradNote{key: gkey}, true, nil
}

// absorb is the parameter function (§IV step 3) for one gradient: get →
// decode → staleness-aware aggregation (Eq. 3) → and, when a group
// fills, combine (Eq. 4) → optimizer step → new version → lineage →
// publish. A gradient that cannot be read or decoded is dropped — the
// learners will produce more. The only error is a publish that failed
// persistently, which is fatal to the run: new weights are the one
// write the pipeline cannot shed.
func (r *run) absorb(note gradNote) error {
	start := time.Now()
	raw, err := r.paramCli.Get(note.key)
	if err != nil {
		// A gradient that is no longer there is skipped; one the cache
		// could not serve is shed, without a delete: the cache has just
		// eaten a whole retry budget.
		if !errors.As(err, new(cache.ErrNotFound)) {
			r.st.shed(nil, note.key, lineage.KindGradient, "param", dropGetFailed)
		}
		return nil
	}
	msg, err := cache.DecodeGrad(raw)
	if err != nil {
		r.st.shed(r.paramCli, note.key, lineage.KindGradient, "param", dropDecodeFailed)
		return nil
	}
	_ = r.paramCli.Delete(note.key)
	r.tracker.Observe(msg.MeanRatio)
	v := int(r.version.Load())
	if r.m != nil {
		r.m.gradStaleness.Observe(float64(v - msg.BornVersion))
	}
	group := r.agg.Offer(&stale.Entry{
		LearnerID:   msg.LearnerID,
		BornVersion: msg.BornVersion,
		Grad:        msg.Grad,
		Samples:     msg.Samples,
		MeanRatio:   msg.MeanRatio,
		KL:          msg.KL,
		Trace:       msg.Trace.ID,
	}, v)
	if group == nil {
		return nil
	}
	var span *obs.SpanHandle
	if r.m != nil {
		span = r.m.tracer.Start("policy-update")
	}
	r.tracker.ResetGroup()
	comb := stale.Combine(r.agg, group, v)
	r.opti.Step(r.weights, comb.Grad)
	r.staleSum += comb.MeanStaleness
	r.staleN++
	nv := int(r.version.Add(1))
	if r.lin != nil {
		traces := make([]string, len(group))
		for i, e := range group {
			traces[i] = e.Trace
		}
		r.recordWeightsProduced(nv, traces)
	}
	if err := r.publishWeightsPersistent(nv); err != nil {
		return err
	}
	if r.m != nil {
		// live_staleness observes the same per-update means that
		// Report.MeanStaleness averages, so the histogram's exact mean and
		// the report agree.
		r.m.staleness.Observe(comb.MeanStaleness)
		r.m.updates.Inc()
		span.End()
		r.paramIter.Observe(time.Since(start).Seconds())
	}
	return nil
}
