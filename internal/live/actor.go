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
	"stellaris/internal/replay"
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

	// sub, when set (async mode), tracks the weight vector incrementally
	// via the delta broadcast; nil falls back to plain full fetches
	// (lockstep, tests). With a sub, the stale-fallback copy is the sub's
	// cache; lastW/lastVer serve the plain path only.
	sub *cache.WeightsSub

	frame       []float64
	epRet       float64
	lastW       []float64
	lastVer     int
	staleStreak int
	seq         int

	// onEpisode is called with each finished episode's return.
	onEpisode func(ret float64)

	// lin and name attribute this actor's lineage events (nil/"" when
	// tracing is off). name carries the supervisor incarnation
	// ("actor/0#1") so a restarted actor is distinguishable in traces.
	lin  *lineage.Store
	name string
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
	w, ver, err := a.fetchWeights()
	if err != nil {
		// Transient cache failure or corrupt payload: degrade to the
		// stale copy instead of aborting the run. The client already
		// applied its deadline+retry budget, so each fallback is a
		// bounded wait.
		a.staleStreak++
		if a.staleStreak > a.opt.MaxStaleFallbacks {
			return trajNote{}, false, fmt.Errorf("live: actor %d: weights unavailable after %d fallbacks: %w", a.id, a.staleStreak, err)
		}
		a.state.staleReuse()
		// Reuse the stale copy together with its version: the rollout
		// below runs under that policy, whatever the global counter says.
		var ok bool
		if w, ver, ok = a.cachedWeights(); !ok {
			time.Sleep(10 * time.Millisecond)
			return trajNote{}, false, nil
		}
	} else {
		if a.sub == nil {
			a.lastW, a.lastVer = w, ver
		}
		a.staleStreak = 0
	}
	if err := a.model.SetWeights(w); err != nil {
		return trajNote{}, false, err
	}
	if m := a.state.m; m != nil && a.version != nil {
		if lag := a.version.Load() - int64(ver); lag >= 0 {
			m.policyLag.Observe(float64(lag))
		}
	}
	if a.frame == nil {
		a.frame = a.env.Reset(a.rng)
		a.epRet = 0
	}
	// Stamp the version of the weights this rollout actually runs with,
	// so downstream staleness accounting (BornVersion, Eq. 2-4 decay)
	// measures real policy lag rather than zero.
	traj := &replay.Trajectory{ActorID: a.id, PolicyVersion: ver}
	for i := 0; i < a.opt.ActorSteps; i++ {
		action, lp, dp := a.model.Act(a.frame, a.rng)
		next, rew, done := a.env.Step(action)
		traj.Steps = append(traj.Steps, replay.Step{
			Obs: a.frame, Action: action, Reward: rew, Done: done,
			LogProb: lp, DistParams: dp,
		})
		a.epRet += rew
		if done {
			traj.EpisodeReturns = append(traj.EpisodeReturns, a.epRet)
			if a.onEpisode != nil {
				a.onEpisode(a.epRet)
			}
			a.epRet = 0
			a.frame = a.env.Reset(a.rng)
		} else {
			a.frame = next
		}
	}
	key := fmt.Sprintf("traj/%d/%d", a.id, a.seq)
	a.seq++
	traj.Trace = lineage.Meta{
		ID: key, Kind: lineage.KindTrajectory,
		Origin: a.name, Parent: lineage.WeightsID(ver),
	}
	a.lin.Record(lineage.Event{
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
		a.state.drop(dropPutFailed)
		a.lin.Record(lineage.Event{
			Trace: key, Kind: lineage.KindTrajectory, Hop: lineage.HopShed,
			Actor: a.name, Detail: dropPutFailed,
		})
		return trajNote{}, false, nil
	}
	return trajNote{key: key, steps: len(traj.Steps)}, true, nil
}

// fetchWeights pulls the newest policy weights: through the delta
// subscriber when one is wired, a plain full fetch otherwise.
func (a *actor) fetchWeights() ([]float64, int, error) {
	if a.sub != nil {
		return a.sub.Fetch()
	}
	return getWeights(a.cli)
}

// cachedWeights returns the stale-fallback copy. The subscriber owns
// its cached vector, keeping (weights, version) consistent even after a
// partially applied delta chain; the plain path keeps its own copy.
func (a *actor) cachedWeights() ([]float64, int, bool) {
	if a.sub != nil {
		return a.sub.Cached()
	}
	return a.lastW, a.lastVer, a.lastW != nil
}
