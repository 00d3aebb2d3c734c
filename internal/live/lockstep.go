package live

import (
	"fmt"

	"stellaris/internal/algo"
	"stellaris/internal/cache"
	"stellaris/internal/ckpt"
	"stellaris/internal/env"
	"stellaris/internal/obs/lineage"
	"stellaris/internal/replay"
	"stellaris/internal/rng"
	"stellaris/internal/stale"
)

// runLockstep drives the same actor→learner→parameter dataflow as
// runAsync — every payload really serializes through the cache wire
// protocol — but on a single thread with a fixed interleaving, so a
// seeded run is a pure function of its Options. That determinism is what
// makes crash recovery *provable*: a run killed at a checkpoint boundary
// and resumed reproduces the uninterrupted run's weights bit for bit
// (asserted by TestLockstepResumeBitIdentical).
//
// Two rules keep resume exact:
//
//  1. Every random draw flows from a stream captured in the checkpoint.
//     Actor and learner RNG streams are split from the root in a fixed
//     order at startup, and their positions (plus sequence counters) are
//     saved as ckpt.WorkerState.
//  2. Environment state is NOT serialized — instead, every checkpoint
//     boundary resets all actors' episode state (next iterate starts a
//     fresh episode). The reset happens in the uninterrupted run too, so
//     both runs see identical rollouts after every boundary.
//
// loaded is the checkpoint applyCheckpoint already restored, nil for a
// fresh run; here it supplies only the per-worker states.
func (r *run) runLockstep(loaded *ckpt.Checkpoint) error {
	opt := r.opt

	actors := make([]*actor, opt.Actors)
	for i := range actors {
		e, err := env.NewSized(opt.Env, opt.FrameSize)
		if err != nil {
			return err
		}
		actors[i] = &actor{
			id: i, opt: opt, cli: r.paramCli, env: e,
			model:       algo.NewModelHidden(r.template, opt.Hidden, opt.Seed),
			version:     &r.version,
			state:       r.st,
			iterSeconds: r.m.iterHist("actor", i),
			onEpisode:   r.noteEpisode,
			lin:         r.lin,
			name:        workerName("actor", i, 0),
		}
	}
	lmodels := make([]*algo.Model, opt.Learners)
	lrngs := make([]*rng.RNG, opt.Learners)
	lseqs := make([]int, opt.Learners)
	for l := range lmodels {
		lmodels[l] = algo.NewModelHidden(r.template, opt.Hidden, opt.Seed)
	}

	if loaded == nil {
		// Same split order as runAsync: actors first, then learners.
		for i := range actors {
			actors[i].rng = r.root.Split(uint64(100 + i))
		}
		for l := range lrngs {
			lrngs[l] = r.root.Split(uint64(200 + l))
		}
	} else {
		if len(loaded.Actors) != opt.Actors || len(loaded.Learners) != opt.Learners {
			return fmt.Errorf("live: checkpoint has %d actor / %d learner states, want %d / %d",
				len(loaded.Actors), len(loaded.Learners), opt.Actors, opt.Learners)
		}
		for i := range actors {
			actors[i].rng = rng.FromState(loaded.Actors[i].RNG)
			actors[i].seq = int(loaded.Actors[i].Seq)
		}
		for l := range lrngs {
			lrngs[l] = rng.FromState(loaded.Learners[l].RNG)
			lseqs[l] = int(loaded.Learners[l].Seq)
		}
	}

	ai := 0 // round-robin actor cursor; reset at checkpoint boundaries
	for int(r.version.Load()) < opt.Updates {
		// Compute sweep: every learner samples a batch, computes a
		// gradient, and publishes it through the cache. Updates are NOT
		// applied during the sweep, so gradients computed later in the
		// sweep are born against the same version the earlier ones were —
		// the aggregation below then sees genuinely nonzero staleness,
		// exactly the regime Eq. 2-4 exist for.
		var msgs []*cache.GradMsg
		for l := 0; l < opt.Learners; l++ {
			var keys []string
			steps, misses := 0, 0
			for steps < opt.BatchSize {
				note, ok, err := actors[ai].iterate()
				ai = (ai + 1) % len(actors)
				if err != nil {
					return err
				}
				if !ok {
					misses++
					if misses > 10000 {
						return fmt.Errorf("live: lockstep stalled: actors produced no trajectories after %d attempts", misses)
					}
					continue
				}
				keys = append(keys, note.key)
				steps += note.steps
			}
			w, born, err := getWeights(r.paramCli)
			if err != nil {
				return err
			}
			if err := lmodels[l].SetWeights(w); err != nil {
				return err
			}
			// Trace identity fixed before the fetch loop so consumed hops
			// can reference the downstream gradient (see learnerBody).
			lname := workerName("learner", l, 0)
			gkey := fmt.Sprintf("grad/%d/%d", l, lseqs[l])
			var trajs []*replay.Trajectory
			for _, k := range keys {
				raw, err := r.paramCli.Get(k)
				if err != nil {
					continue
				}
				tr, err := cache.DecodeTrajectory(raw)
				if err != nil {
					r.st.drop(dropDecodeFailed)
					r.recordShed(k, lineage.KindTrajectory, lname, dropDecodeFailed)
					continue
				}
				trajs = append(trajs, tr)
				r.recordConsumed(k, gkey, lname)
				_ = r.paramCli.Delete(k)
			}
			if len(trajs) == 0 {
				continue
			}
			batch, err := replay.Flatten(trajs)
			if err != nil {
				return err
			}
			g := r.alg.Compute(lmodels[l], batch, r.tracker.View(), algo.Extra{}, lrngs[l].Split(uint64(lseqs[l])))
			lseqs[l]++
			r.recordGradProduced(gkey, lname, born, g.Stats.Truncated)
			gb, err := cache.EncodeGrad(&cache.GradMsg{
				LearnerID: l, BornVersion: born, Grad: g.Data,
				Samples: g.Stats.Samples, MeanRatio: g.Stats.MeanRatio,
				MinRatio: g.Stats.MinRatio, KL: g.Stats.KL, Entropy: g.Stats.Entropy,
				Truncated: g.Stats.Truncated,
				Trace: lineage.Meta{
					ID: gkey, Kind: lineage.KindGradient,
					Origin: lname, Parent: lineage.WeightsID(born),
				},
			})
			if err != nil {
				return err
			}
			if err := r.paramCli.Put(gkey, gb); err != nil {
				return err
			}
			raw, err := r.paramCli.Get(gkey)
			if err != nil {
				return err
			}
			msg, err := cache.DecodeGrad(raw)
			if err != nil {
				return err
			}
			_ = r.paramCli.Delete(gkey)
			msgs = append(msgs, msg)
		}

		// Offer sweep: feed the round's gradients to the staleness-aware
		// aggregator in learner order, applying policy updates as groups
		// fill — the parameter worker's loop, single-threaded.
		for _, msg := range msgs {
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
				continue
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
			if err := putWeights(r.paramCli, int(nv), r.weights); err != nil {
				return err
			}
			if r.m != nil {
				r.m.staleness.Observe(comb.MeanStaleness)
				r.m.updates.Inc()
			}
			if int(nv) >= opt.Updates {
				break
			}
		}

		// Checkpoint boundary. The actor resets below run in EVERY
		// checkpointing lockstep run at the same version — interrupted or
		// not — so a resumed run and the uninterrupted run diverge
		// nowhere. Worker states are captured after the reset, matching
		// what a resume will reconstruct. No checkpoint is written at
		// completion: only boundaries are resumable points.
		if r.ckptEnabled() {
			v := r.version.Load()
			if v-r.lastCkpt >= int64(opt.CheckpointEvery) && int(v) < opt.Updates {
				for _, a := range actors {
					a.frame = nil
					a.epRet = 0
					a.lastW = nil
					a.lastVer = 0
					a.staleStreak = 0
				}
				ai = 0
				asts := make([]ckpt.WorkerState, len(actors))
				for i, a := range actors {
					asts[i] = ckpt.WorkerState{RNG: a.rng.State(), Seq: int64(a.seq)}
				}
				lsts := make([]ckpt.WorkerState, len(lrngs))
				for l := range lrngs {
					lsts[l] = ckpt.WorkerState{RNG: lrngs[l].State(), Seq: int64(lseqs[l])}
				}
				r.writeCheckpoint(r.buildCheckpoint(ckpt.ModeLockstep, asts, lsts))
				r.lastCkpt = v
			}
		}
	}
	return nil
}
