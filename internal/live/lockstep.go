package live

import (
	"fmt"

	"stellaris/internal/algo"
	"stellaris/internal/ckpt"
	"stellaris/internal/rng"
)

// runLockstep is the deterministic schedule over the same stages
// runAsync drives (stage.go, actor.go) — every payload really serializes
// through the cache wire protocol — on a single thread, over the single
// parameter connection, in a fixed round-robin order, so a seeded run is
// a pure function of its Options. Only that order and the checkpoint
// boundary live here. The determinism is what makes crash recovery
// *provable*: a run killed at a checkpoint boundary and resumed
// reproduces the uninterrupted run's weights bit for bit (asserted by
// TestLockstepResumeBitIdentical).
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
	if loaded != nil && (len(loaded.Actors) != opt.Actors || len(loaded.Learners) != opt.Learners) {
		return fmt.Errorf("live: checkpoint has %d actor / %d learner states, want %d / %d",
			len(loaded.Actors), len(loaded.Learners), opt.Actors, opt.Learners)
	}
	// Same split order as runAsync: actors first, then learners. A resume
	// replaces the fresh streams with the checkpointed positions.
	actors := make([]*actor, opt.Actors)
	for i := range actors {
		a, err := r.newActor(i, workerName("actor", i, 0), r.paramCli, r.root.Split(uint64(100+i)))
		if err != nil {
			return err
		}
		if loaded != nil {
			a.rng, a.seq = rng.FromState(loaded.Actors[i].RNG), int(loaded.Actors[i].Seq)
		}
		actors[i] = a
	}
	learners := make([]*learner, opt.Learners)
	for i := range learners {
		l := r.newLearner(i, workerName("learner", i, 0), r.paramCli, r.root.Split(uint64(200+i)), new(int))
		if loaded != nil {
			l.rng, *l.seq = rng.FromState(loaded.Learners[i].RNG), int(loaded.Learners[i].Seq)
		}
		learners[i] = l
	}

	ai := 0 // round-robin actor cursor; reset at checkpoint boundaries
	for int(r.version.Load()) < opt.Updates {
		if err := r.serveReseed(); err != nil {
			return err
		}
		// Compute sweep: every learner gets a batch sampled for it and
		// publishes a gradient through the cache. Updates are NOT applied
		// during the sweep, so gradients computed later in the sweep are
		// born against the same version the earlier ones were — the offer
		// sweep below then sees genuinely nonzero staleness, exactly the
		// regime Eq. 2-4 exist for.
		var notes []gradNote
		for _, l := range learners {
			var keys []string
			steps, misses := 0, 0
			for steps < opt.BatchSize {
				note, ok, err := actors[ai].iterate()
				ai = (ai + 1) % len(actors)
				if err != nil {
					return err
				}
				if !ok {
					// An actor with no weights may have asked for them.
					if err := r.serveReseed(); err != nil {
						return err
					}
					misses++
					if misses > 10000 {
						return fmt.Errorf("live: lockstep stalled: actors produced no trajectories after %d attempts", misses)
					}
					continue
				}
				keys = append(keys, note.key)
				steps += note.steps
			}
			note, ok, err := l.step(keys)
			if err != nil {
				return err
			}
			if ok {
				notes = append(notes, note)
			}
		}

		// Offer sweep: the round's gradients go to the parameter step in
		// learner order, policy updates applying as groups fill. What the
		// last update leaves unoffered is deleted, not aggregated.
		for _, note := range notes {
			if int(r.version.Load()) >= opt.Updates {
				_ = r.paramCli.Delete(note.key)
				continue
			}
			if err := r.absorb(note); err != nil {
				return err
			}
		}

		// Checkpoint boundary. The worker resets below run in EVERY
		// checkpointing lockstep run at the same version — interrupted or
		// not — so a resumed run and the uninterrupted run diverge
		// nowhere. Worker states are captured after the reset, matching
		// what a resume will reconstruct. No checkpoint is written at
		// completion: only boundaries are resumable points.
		if v := r.version.Load(); r.ckptEnabled() && v-r.lastCkpt >= int64(opt.CheckpointEvery) && int(v) < opt.Updates {
			asts := make([]ckpt.WorkerState, len(actors))
			for i, a := range actors {
				a.ep = algo.Episode{}
				a.weights.reset()
				asts[i] = ckpt.WorkerState{RNG: a.rng.State(), Seq: int64(a.seq)}
			}
			ai = 0
			lsts := make([]ckpt.WorkerState, len(learners))
			for i, l := range learners {
				l.weights.reset()
				lsts[i] = ckpt.WorkerState{RNG: l.rng.State(), Seq: int64(*l.seq)}
			}
			r.writeCheckpoint(r.buildCheckpoint(ckpt.ModeLockstep, asts, lsts))
			r.lastCkpt = v
		}
	}
	return nil
}

// serveReseed re-publishes the weights if a worker asked for them since
// the last call: lockstep's in-line counterpart of paramLoop's select.
func (r *run) serveReseed() error {
	select {
	case <-r.st.reseed:
		return r.reseedWeights()
	default:
		return nil
	}
}
