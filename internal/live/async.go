package live

import (
	"sync"
	"time"

	"stellaris/internal/ckpt"
	"stellaris/internal/obs/lineage"
	"stellaris/internal/rng"
)

// runAsync is the concurrent schedule over the shared stages (stage.go,
// actor.go): supervised actor and learner goroutines feeding a parameter
// worker through channels, everything exchanging payloads via the TCP
// cache. Only goroutines, channels, supervision and the drain live
// here. Actors and learners run under crash supervision (panics and
// errors restart them within a budget); the parameter worker is the run
// itself — if it dies the run fails, and recovery is the
// checkpoint/Resume path.
func (r *run) runAsync() error {
	opt := r.opt
	trajCh := make(chan trajNote, 4*opt.Actors)
	batchCh := make(chan []string, 2*opt.Learners)
	gradCh := make(chan gradNote, 2*opt.Learners)

	// The loader's sheds and the drain delete on a connection of their
	// own: paramCli is the parameter hot path.
	loaderCli, err := r.dial("loader")
	if err != nil {
		return err
	}
	defer loaderCli.Close()

	var wg sync.WaitGroup

	if r.m != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sampleQueues(r.m, &r.stop, trajCh, batchCh, gradCh)
		}()
	}

	// Actors. RNG streams are split before spawning: the root generator
	// is not safe for concurrent use.
	for a := 0; a < opt.Actors; a++ {
		wg.Add(1)
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
				act, err := r.newActor(id, name, cli, workerRNG)
				if err != nil {
					return err
				}
				ready()
				for !r.stop.Load() {
					r.injectPanic("actor", id, nil)
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
						// Loader backlogged: sampling throughput exceeding
						// learner throughput is the overload case — shed
						// load, and count it.
						r.st.shed(cli, note.key, lineage.KindTrajectory, name, dropBackpressure)
					}
				}
				return nil
			})
		}(a, r.root.Split(uint64(100+a)))
	}

	// Reaper: deletes what the loader sheds, so that the loader — the one
	// stage every batch passes through — never waits on the cache. Beside
	// a bursty CPU neighbour on a 3-shard tier the quartile spread of
	// updates/s read 13 % of the median this way and 18 % deleting inline
	// (CHANGES.md, PR 16). Keys still queued at stop are left to the drain.
	reapCh := make(chan string, cap(trajCh))
	var unreaped []string
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := range reapCh {
			if r.stop.Load() {
				unreaped = append(unreaped, k)
				continue
			}
			r.st.shed(loaderCli, k, lineage.KindTrajectory, "loader", dropBackpressure)
		}
	}()

	// Data loader: batch trajectory keys by step count. pending is its
	// partial batch, read by the drain once the loader has exited.
	var pending []string
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(reapCh)
		steps := 0
		for !r.stop.Load() {
			var note trajNote
			select {
			case note = <-trajCh:
			case <-time.After(10 * time.Millisecond):
				continue
			}
			pending = append(pending, note.key)
			steps += note.steps
			if steps < opt.BatchSize {
				continue
			}
			batch := pending
			pending, steps = nil, 0
			select {
			case batchCh <- batch:
			default:
				// Learners saturated: shed the batch (off-policy data this
				// stale would be discarded anyway), one drop per
				// trajectory so the counter keeps counting payloads, not
				// batches.
				for _, k := range batch {
					reapCh <- k
				}
			}
		}
	}()

	// Learners. Like actors, RNG streams and the gradient sequence
	// counter outlive restarts; the chaos stream drives ChaosPanicRate.
	for l := 0; l < opt.Learners; l++ {
		wg.Add(1)
		go func(id int, workerRNG, chaos *rng.RNG) {
			defer wg.Done()
			seq := 0
			incarnation := 0
			r.supervise("learner", id, func(ready func()) error {
				name := workerName("learner", id, incarnation)
				incarnation++
				cli, err := r.dial(name)
				if err != nil {
					return err
				}
				defer cli.Close()
				lrn := r.newLearner(id, name, cli, workerRNG, &seq)
				ready()
				for !r.stop.Load() {
					r.injectPanic("learner", id, chaos)
					var keys []string
					select {
					case keys = <-batchCh:
					case <-time.After(10 * time.Millisecond):
						continue
					}
					note, ok, err := lrn.step(keys)
					if err != nil {
						return err
					}
					if !ok {
						continue
					}
					select {
					case gradCh <- note:
					default:
						// Parameter worker backlogged or stopped: shed the
						// gradient rather than block shutdown.
						r.st.shed(cli, note.key, lineage.KindGradient, name, dropBackpressure)
					}
				}
				return nil
			})
		}(l, r.root.Split(uint64(200+l)), r.root.Split(uint64(300+l)))
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
		// Failed runs skip the drain: the cache is the likeliest thing to
		// have died, and every delete would burn a full retry budget.
		return err
	default:
	}

	// Drain. Every worker has exited, so what is still queued (or sits in
	// the loader's partial batch) will never be consumed: delete it
	// rather than leave it behind in a cache that outlives the run.
	pending = append(pending, unreaped...)
	for len(batchCh) > 0 {
		pending = append(pending, <-batchCh...)
	}
	for len(trajCh) > 0 {
		pending = append(pending, (<-trajCh).key)
	}
	for len(gradCh) > 0 {
		pending = append(pending, (<-gradCh).key)
	}
	for _, k := range pending {
		_ = loaderCli.Delete(k)
	}
	return nil
}

// paramLoop feeds gradient notes to the parameter step, checkpoints
// every CheckpointEvery updates (and once at completion) so a killed
// process can resume, and stops the pipeline at Options.Updates.
func (r *run) paramLoop(gradCh chan gradNote) {
	for !r.stop.Load() {
		var note gradNote
		select {
		case note = <-gradCh:
		case <-time.After(10 * time.Millisecond):
			continue
		}
		if err := r.absorb(note); err != nil {
			r.fail(err)
			return
		}
		// Checkpoint every CheckpointEvery updates, and at completion
		// regardless of the interval: a later Resume of this directory
		// then reports completion instead of re-training.
		nv := r.version.Load()
		done := int(nv) >= r.opt.Updates
		if r.ckptEnabled() && nv > r.lastCkpt && (done || nv-r.lastCkpt >= int64(r.opt.CheckpointEvery)) {
			r.writeCheckpoint(r.buildCheckpoint(ckpt.ModeAsync, nil, nil))
			r.lastCkpt = nv
		}
		if done {
			r.stop.Store(true)
			return
		}
	}
}
