package live

import (
	"fmt"
	"sync"
	"time"

	"stellaris/internal/algo"
	"stellaris/internal/cache"
	"stellaris/internal/ckpt"
	"stellaris/internal/env"
	"stellaris/internal/obs"
	"stellaris/internal/obs/lineage"
	"stellaris/internal/replay"
	"stellaris/internal/rng"
	"stellaris/internal/stale"
)

// runAsync drives the concurrent pipeline: supervised actor and learner
// goroutines feeding a parameter worker through channels, everything
// exchanging payloads via the TCP cache. Actors and learners run under
// crash supervision (panics and errors restart them within a budget);
// the parameter worker is the run itself — if it dies the process run
// fails, and recovery is the checkpoint/Resume path.
func (r *run) runAsync() error {
	opt := r.opt
	trajCh := make(chan trajNote, 4*opt.Actors)
	batchCh := make(chan []string, 2*opt.Learners)
	gradCh := make(chan gradNote, 2*opt.Learners)

	var wg sync.WaitGroup

	if r.m != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sampleQueues(r.m, &r.stop, trajCh, batchCh, gradCh)
		}()
	}

	// Actors. RNG streams are split before spawning: the root generator
	// is not safe for concurrent use. The stream belongs to the worker
	// identity, not the incarnation — a restarted actor continues where
	// the crashed one stopped.
	for a := 0; a < opt.Actors; a++ {
		wg.Add(1)
		actorRNG := r.root.Split(uint64(100 + a))
		go func(id int, workerRNG *rng.RNG) {
			defer wg.Done()
			incarnation := 0
			r.supervise("actor", id, func(ready func()) error {
				name := workerName("actor", id, incarnation)
				incarnation++
				cli, err := r.dial(name)
				if err != nil {
					return err
				}
				defer cli.Close()
				e, err := env.NewSized(opt.Env, opt.FrameSize)
				if err != nil {
					return err
				}
				act := &actor{
					id: id, opt: opt, cli: cli, env: e,
					model:       algo.NewModelHidden(e, opt.Hidden, opt.Seed),
					rng:         workerRNG,
					version:     &r.version,
					state:       r.st,
					iterSeconds: r.m.iterHist("actor", id),
					onEpisode:   r.noteEpisode,
					lin:         r.lin,
					name:        name,
					sub:         r.trackSub(&cache.WeightsSub{C: cli}),
				}
				ready()
				for !r.stop.Load() {
					if hook := opt.panicHook; hook != nil && hook("actor", id) {
						panic(fmt.Sprintf("injected actor %d panic", id))
					}
					note, ok, err := act.iterate()
					if err != nil {
						return err
					}
					if !ok {
						continue
					}
					select {
					case trajCh <- note:
					default:
						// Loader backlogged: the trajectory stays in the
						// cache but won't be batched. Sampling throughput
						// exceeding learner throughput is the overload case
						// — shed load, and count it.
						r.st.drop(dropBackpressure)
						r.recordShed(note.key, lineage.KindTrajectory, name, dropBackpressure)
						_ = cli.Delete(note.key)
					}
				}
				return nil
			})
		}(a, actorRNG)
	}

	// Data loader: batch trajectory keys by step count.
	wg.Add(1)
	go func() {
		defer wg.Done()
		var keys []string
		steps := 0
		for !r.stop.Load() {
			var note trajNote
			select {
			case note = <-trajCh:
			case <-time.After(10 * time.Millisecond):
				continue
			}
			keys = append(keys, note.key)
			steps += note.steps
			if steps >= opt.BatchSize {
				batch := append([]string(nil), keys...)
				keys = keys[:0]
				steps = 0
				select {
				case batchCh <- batch:
				default:
					// Learners saturated: drop the batch (off-policy
					// data this stale would be discarded anyway). One
					// drop per trajectory in the batch, so the counter
					// keeps counting payloads, not batches. In lineage
					// terms this is the dropped-as-stale hop: the data
					// aged out of usefulness waiting for a learner.
					for _, k := range batch {
						r.st.drop(dropBackpressure)
						if r.lin != nil {
							r.lin.Record(lineage.Event{
								Trace: k, Kind: lineage.KindTrajectory,
								Hop: lineage.HopDroppedStale, Actor: "loader",
								Detail: "batch shed under learner backpressure",
							})
						}
					}
				}
			}
		}
	}()

	// Learners. Like actors, RNG streams and the gradient sequence
	// counter outlive restarts (gradient keys must not collide across a
	// worker's incarnations); the chaos stream drives ChaosPanicRate.
	for l := 0; l < opt.Learners; l++ {
		wg.Add(1)
		learnerRNG := r.root.Split(uint64(200 + l))
		chaosRNG := r.root.Split(uint64(300 + l))
		go func(id int, workerRNG, chaos *rng.RNG) {
			defer wg.Done()
			seq := 0
			incarnation := 0
			r.supervise("learner", id, func(ready func()) error {
				name := workerName("learner", id, incarnation)
				incarnation++
				return r.learnerBody(id, name, workerRNG, chaos, &seq, batchCh, gradCh, ready)
			})
		}(l, learnerRNG, chaosRNG)
	}

	// Parameter worker: staleness-aware aggregation, policy updates, and
	// periodic checkpoints.
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		r.paramLoop(gradCh)
	}()

	<-done
	r.stop.Store(true)
	wg.Wait()
	select {
	case err := <-r.errCh:
		return err
	default:
	}
	return nil
}

// learnerBody is one learner incarnation: dial, rebuild the model, then
// batch → fetch → compute → publish until the pipeline stops. seq is
// shared across incarnations of the same learner id; name carries the
// incarnation for lineage attribution.
func (r *run) learnerBody(id int, name string, workerRNG, chaos *rng.RNG, seq *int,
	batchCh chan []string, gradCh chan gradNote, ready func()) error {
	opt := r.opt
	cli, err := r.dial(name)
	if err != nil {
		return err
	}
	defer cli.Close()
	model := algo.NewModelHidden(r.template, opt.Hidden, opt.Seed)
	// The learner tracks weights through the delta subscriber, whose
	// cached vector doubles as the stale-fallback copy.
	wsub := r.trackSub(&cache.WeightsSub{C: cli})
	iterSeconds := r.m.iterHist("learner", id)
	staleStreak := 0
	ready()
	for !r.stop.Load() {
		if hook := opt.panicHook; hook != nil && hook("learner", id) {
			panic(fmt.Sprintf("injected learner %d panic", id))
		}
		if opt.ChaosPanicRate > 0 && chaos.Float64() < opt.ChaosPanicRate {
			panic(fmt.Sprintf("chaos learner %d panic", id))
		}
		var keys []string
		select {
		case keys = <-batchCh:
		case <-time.After(10 * time.Millisecond):
			continue
		}
		iterStart := time.Now()
		w, born, err := wsub.Fetch()
		if err != nil {
			staleStreak++
			if staleStreak > opt.MaxStaleFallbacks {
				return fmt.Errorf("live: learner %d: weights unavailable after %d fallbacks: %w", id, staleStreak, err)
			}
			r.st.staleReuse()
			var ok bool
			if w, born, ok = wsub.Cached(); !ok {
				// No weights ever fetched: shed the batch after a
				// bounded wait rather than compute garbage.
				r.st.drop(dropNoWeights)
				time.Sleep(10 * time.Millisecond)
				continue
			}
		} else {
			staleStreak = 0
		}
		if err := model.SetWeights(w); err != nil {
			return err
		}
		// The gradient's trace identity is fixed before the fetch loop so
		// each consumed trajectory can reference its downstream artifact
		// (the forward link Chain() follows); seq itself advances only
		// after the compute succeeds, as before.
		gkey := fmt.Sprintf("grad/%d/%d", id, *seq)
		// One batched round trip fetches the whole trajectory batch; a
		// transport failure degrades to an all-missed batch (the client
		// already spent its retry budget) rather than killing the worker.
		vals, err := cache.BatchGet(cli, keys)
		if err != nil {
			vals = make([][]byte, len(keys))
		}
		var trajs []*replay.Trajectory
		for i, raw := range vals {
			k := keys[i]
			if raw == nil {
				continue // evicted under overload
			}
			tr, err := cache.DecodeTrajectory(raw)
			if err != nil {
				// Corrupted in transit or storage: skip it.
				r.st.drop(dropDecodeFailed)
				r.recordShed(k, lineage.KindTrajectory, name, dropDecodeFailed)
				continue
			}
			trajs = append(trajs, tr)
			r.recordConsumed(k, gkey, name)
			_ = cli.Delete(k)
		}
		if len(trajs) == 0 {
			continue
		}
		batch, err := replay.Flatten(trajs)
		if err != nil {
			return err
		}
		g := r.alg.Compute(model, batch, r.tracker.View(), algo.Extra{}, workerRNG.Split(uint64(*seq)))
		*seq++
		r.recordGradProduced(gkey, name, born, g.Stats.Truncated)
		gb, err := cache.EncodeGrad(&cache.GradMsg{
			LearnerID: id, BornVersion: born, Grad: g.Data,
			Samples: g.Stats.Samples, MeanRatio: g.Stats.MeanRatio,
			MinRatio: g.Stats.MinRatio, KL: g.Stats.KL, Entropy: g.Stats.Entropy,
			Truncated: g.Stats.Truncated,
			Trace: lineage.Meta{
				ID: gkey, Kind: lineage.KindGradient,
				Origin: name, Parent: lineage.WeightsID(born),
			},
		})
		if err != nil {
			return err
		}
		err = cli.Put(gkey, gb)
		cache.Recycle(gb)
		if err != nil {
			// Retries exhausted: shed the gradient; the actors
			// keep producing and a later batch will land.
			r.st.drop(dropPutFailed)
			r.recordShed(gkey, lineage.KindGradient, name, dropPutFailed)
			continue
		}
		if iterSeconds != nil {
			iterSeconds.Observe(time.Since(iterStart).Seconds())
		}
		select {
		case gradCh <- gradNote{
			key: gkey, bornVersion: born,
			meanRatio: g.Stats.MeanRatio, kl: g.Stats.KL, samples: g.Stats.Samples,
		}:
		default:
			// Parameter worker backlogged or stopped: shed the
			// gradient rather than block shutdown.
			r.st.drop(dropBackpressure)
			r.recordShed(gkey, lineage.KindGradient, name, dropBackpressure)
			_ = cli.Delete(gkey)
		}
	}
	return nil
}

// paramLoop consumes gradient notes, aggregates with the staleness
// policy, applies policy updates, and checkpoints every CheckpointEvery
// updates (and once at completion) so a killed process can resume.
func (r *run) paramLoop(gradCh chan gradNote) {
	opt := r.opt
	iterSeconds := r.m.iterHist("param", 0)
	for !r.stop.Load() {
		var note gradNote
		select {
		case note = <-gradCh:
		case <-time.After(10 * time.Millisecond):
			continue
		}
		iterStart := time.Now()
		raw, err := r.paramCli.Get(note.key)
		if err != nil {
			continue
		}
		msg, err := cache.DecodeGrad(raw)
		if err != nil {
			// Corrupted gradient: discard it, the learners will
			// produce more.
			r.st.drop(dropDecodeFailed)
			_ = r.paramCli.Delete(note.key)
			continue
		}
		_ = r.paramCli.Delete(note.key)
		r.tracker.Observe(msg.MeanRatio)
		v := int(r.version.Load())
		if r.m != nil {
			r.m.gradStaleness.Observe(float64(v - msg.BornVersion))
		}
		traceID := msg.Trace.ID
		if traceID == "" {
			traceID = note.key // payload from a pre-tracing producer
		}
		group := r.agg.Offer(&stale.Entry{
			LearnerID:   msg.LearnerID,
			BornVersion: msg.BornVersion,
			Grad:        msg.Grad,
			Samples:     msg.Samples,
			MeanRatio:   msg.MeanRatio,
			KL:          msg.KL,
			Trace:       traceID,
		}, v)
		if group == nil {
			continue
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
		nv := r.version.Add(1)
		if r.lin != nil {
			traces := make([]string, len(group))
			for i, e := range group {
				traces[i] = e.Trace
			}
			r.recordWeightsProduced(int(nv), traces)
		}
		// Publishing new weights is the one write the pipeline cannot
		// shed: on top of the client's own retry budget, keep trying
		// through a longer outage before declaring the run dead.
		if err := r.publishWeightsPersistent(int(nv)); err != nil {
			r.fail(err)
			return
		}
		if r.m != nil {
			// live_staleness observes the same per-update means that
			// Report.MeanStaleness averages, so the histogram's exact
			// mean and the report agree.
			r.m.staleness.Observe(comb.MeanStaleness)
			r.m.updates.Inc()
			span.End()
			iterSeconds.Observe(time.Since(iterStart).Seconds())
		}
		if int(nv) >= opt.Updates {
			// Final checkpoint regardless of the interval: a later Resume
			// of this directory reports completion instead of re-training.
			if r.ckptEnabled() && nv > r.lastCkpt {
				r.writeCheckpoint(r.buildCheckpoint(ckpt.ModeAsync, nil, nil))
				r.lastCkpt = nv
			}
			r.stop.Store(true)
			return
		}
		r.maybeCheckpoint(ckpt.ModeAsync, nil, nil)
	}
}
