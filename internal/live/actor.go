package live

import (
	"fmt"
	"sync/atomic"
	"time"

	"stellaris/internal/algo"
	"stellaris/internal/cache"
	"stellaris/internal/env"
	"stellaris/internal/obs"
	"stellaris/internal/obs/lineage"
	"stellaris/internal/rng"
)

// actor is one rollout worker. The fetch→stamp→rollout→publish step
// lives on a struct (rather than inline in the Train goroutine) so the
// staleness bookkeeping is testable against a plain MemCache.
type actor struct {
	id    int
	opt   Options
	cli   cache.Cache
	env   env.Env
	model *algo.Model
	rng   *rng.RNG

	// version is the run's global policy version; only the lag metric
	// reads it. The trajectories themselves are stamped with the version
	// of the weights actually fetched — NOT this counter, which the
	// parameter worker may have advanced mid-rollout.
	version *atomic.Int64
	state   *runState
	// iterSeconds is this actor's live_iteration_seconds child (nil when
	// un-instrumented).
	iterSeconds *obs.Histogram

	// weights is the actor's window onto the published policy, stale
	// fallback included (stage.go).
	weights weightView
	// ep is the rollout's position in the environment between iterates.
	ep  algo.Episode
	seq int

	// onEpisode is called with each finished episode's return.
	onEpisode func(ret float64)

	// name attributes this actor's lineage events. It carries the
	// supervisor incarnation ("actor/0#1") so a restarted actor is
	// distinguishable in traces.
	name string
}

// newActor builds actor id over cli with its own environment and model.
// workerRNG is the identity's stream, not the incarnation's: a restarted
// actor continues where the crashed one stopped.
func (r *run) newActor(id int, name string, cli cache.Cache, workerRNG *rng.RNG) (*actor, error) {
	e, err := env.NewSized(r.opt.Env, r.opt.FrameSize)
	if err != nil {
		return nil, err
	}
	return &actor{
		id: id, opt: r.opt, cli: cli, env: e,
		model:       algo.NewModelHidden(e, r.opt.Hidden, r.opt.Seed),
		rng:         workerRNG,
		version:     &r.version,
		state:       r.st,
		iterSeconds: r.m.iterHist("actor", id),
		weights:     r.newWeightView(cli, fmt.Sprintf("actor %d", id)),
		onEpisode:   r.noteEpisode,
		name:        name,
	}, nil
}

// iterate runs one actor step: fetch the latest weights (degrading to
// the stale copy on failure), roll out ActorSteps transitions, and
// publish the trajectory to the cache. ok reports whether a trajectory
// landed; a non-nil error is fatal to the run.
func (a *actor) iterate() (note trajNote, ok bool, err error) {
	if h := a.iterSeconds; h != nil {
		start := time.Now()
		defer func() { h.Observe(time.Since(start).Seconds()) }()
	}
	w, ver, have, err := a.weights.fetch()
	if err != nil || !have {
		return trajNote{}, false, err
	}
	if err := a.model.SetWeights(w); err != nil {
		return trajNote{}, false, err
	}
	if m := a.state.m; m != nil {
		if lag := a.version.Load() - int64(ver); lag >= 0 {
			m.policyLag.Observe(float64(lag))
		}
	}
	// Stamp the version of the weights this rollout actually runs with,
	// so downstream staleness accounting (BornVersion, Eq. 2-4 decay)
	// measures real policy lag rather than zero.
	traj := a.model.Rollout(a.env, a.rng, &a.ep, a.opt.ActorSteps, a.onEpisode)
	traj.ActorID, traj.PolicyVersion = a.id, ver
	key := fmt.Sprintf("traj/%d/%d", a.id, a.seq)
	a.seq++
	traj.Trace = lineage.Meta{
		ID: key, Kind: lineage.KindTrajectory,
		Origin: a.name, Parent: lineage.WeightsID(ver),
	}
	a.state.lin.Record(lineage.Event{
		Trace: key, Kind: lineage.KindTrajectory, Hop: lineage.HopProduced,
		Actor: a.name, Ref: lineage.WeightsID(ver),
	})
	b, err := cache.EncodeTrajectory(traj)
	if err != nil {
		return trajNote{}, false, err
	}
	err = a.cli.Put(key, b)
	cache.Recycle(b)
	if err != nil {
		// Retries exhausted: shed this trajectory and keep sampling —
		// losing rollouts is recoverable, dying is not.
		a.state.shed(nil, key, lineage.KindTrajectory, a.name, dropPutFailed)
		return trajNote{}, false, nil
	}
	return trajNote{key: key, steps: len(traj.Steps)}, true, nil
}
