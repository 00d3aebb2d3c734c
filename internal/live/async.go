package live

import (
	"sync"

	"stellaris/internal/ckpt"
	"stellaris/internal/obs/lineage"
	"stellaris/internal/rng"
	"stellaris/internal/stale"
)

// runAsync is the concurrent schedule over the shared stages (stage.go,
// actor.go): supervised actor and learner goroutines feeding a parameter
// worker through channels, everything exchanging payloads via the TCP
// cache. Only goroutines, channels, supervision, rollout admission and
// the drain live here. Actors and learners run under crash supervision
// (panics and errors restart them within a budget); the parameter worker
// is the run itself — if it dies the run fails, and recovery is the
// checkpoint/Resume path.
//
// The schedule decides WHEN a rollout starts: only while stale.Admit
// holds for what is admitted and not yet taken by a learner (r.waiting).
// A parked actor costs nothing and later rolls out under fresher weights;
// and since r.waiting stays under what trajCh and batchCh hold together
// (DESIGN.md §5), neither queue sheds: a sender at most waits for the
// next receive. Only gradients (gradCh) and faults are still shed.
func (r *run) runAsync() error {
	opt := r.opt
	// Every rollout is exactly ActorSteps long, so perBatch trajectories
	// are what the loader's step count turns into one batch.
	perBatch := (opt.BatchSize + opt.ActorSteps - 1) / opt.ActorSteps
	trajCh := make(chan trajNote, 4*opt.Actors)
	batchCh := make(chan []string, 2*opt.Learners)
	gradCh := make(chan gradNote, 2*opt.Learners)
	// wake unparks actors: a token per rise in demand, one per actor at
	// most. A token nobody was parked for costs one extra Admit check.
	wake := make(chan struct{}, opt.Actors)
	poke := func() {
		select {
		case wake <- struct{}{}:
		default:
		}
	}

	var wg sync.WaitGroup

	if r.m != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sampleQueues(r.m, r.done, trajCh, batchCh, gradCh)
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
					if !stale.Admit(int(r.waiting.Load()), int(r.idle.Load()), perBatch) {
						select {
						case <-wake:
						case <-r.done:
						}
						continue
					}
					if err := r.rollout(act, trajCh); err != nil {
						return err
					}
				}
				return nil
			})
		}(a, r.root.Split(uint64(100+a)))
	}

	// Data loader: batch trajectory keys by step count. pending is its
	// partial batch — or the full one it held when the run stopped — read
	// by the drain once the loader has exited.
	var pending []string
	wg.Add(1)
	go func() {
		defer wg.Done()
		steps := 0
		for !r.stop.Load() {
			var note trajNote
			select {
			case note = <-trajCh:
			case <-r.done:
				return
			}
			pending = append(pending, note.key)
			steps += note.steps
			if steps >= opt.BatchSize && sendOrStop(r.done, batchCh, pending) {
				pending, steps = nil, 0
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
					// Idle only while blocked here, and a batch leaves
					// r.waiting when taken: dying with it strands no count.
					var keys []string
					r.idle.Add(1)
					poke()
					select {
					case keys = <-batchCh:
					case <-r.done:
					}
					r.idle.Add(-1)
					if keys == nil {
						continue
					}
					r.waiting.Add(-int64(len(keys)))
					poke()
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
	// periodic checkpoints. It halts the run when the last update is in.
	wg.Add(1)
	go func() {
		defer wg.Done()
		r.paramLoop(gradCh)
	}()

	<-r.done
	wg.Wait()
	select {
	case err := <-r.errCh:
		// Failed runs skip the drain: the cache is the likeliest thing to
		// have died, and every delete would burn a full retry budget.
		return err
	default:
	}

	// Drain. Every worker has exited, so what is still queued (or sits in
	// the loader's hands) will never be consumed: delete it — on the
	// parameter connection, idle by now — rather than leave it behind in a
	// cache that outlives the run.
	for len(batchCh) > 0 {
		pending = append(pending, <-batchCh...)
	}
	for len(trajCh) > 0 {
		pending = append(pending, (<-trajCh).key)
	}
	r.waiting.Add(-int64(len(pending)))
	for len(gradCh) > 0 {
		pending = append(pending, (<-gradCh).key)
	}
	for _, k := range pending {
		_ = r.paramCli.Delete(k)
	}
	return nil
}

// rollout is one admitted actor iteration. Its slot in r.waiting passes
// to the loader with the note; every other way out — error, no
// trajectory, panic, stop — gives it back.
func (r *run) rollout(act *actor, trajCh chan<- trajNote) error {
	r.waiting.Add(1)
	slot := int64(-1)
	defer func() { r.waiting.Add(slot) }()
	r.injectPanic("actor", act.id, nil)
	note, ok, err := act.iterate()
	if err != nil || !ok {
		return err
	}
	if sendOrStop(r.done, trajCh, note) {
		slot = 0
	} else {
		_ = act.cli.Delete(note.key) // a key still in hand is out of the drain's sight
	}
	return nil
}

// sendOrStop blocks until v is on ch or the run halts, and reports which.
func sendOrStop[T any](done <-chan struct{}, ch chan<- T, v T) bool {
	select {
	case ch <- v:
		return true
	case <-done:
		return false
	}
}

// paramLoop feeds gradient notes to the parameter step, checkpoints
// every CheckpointEvery updates (and once at completion) so a killed
// process can resume, and stops the pipeline at Options.Updates.
func (r *run) paramLoop(gradCh chan gradNote) {
	for !r.stop.Load() {
		var note gradNote
		select {
		case note = <-gradCh:
		case <-r.done:
			return
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
			r.halt()
			return
		}
	}
}
