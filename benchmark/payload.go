package main

import (
	"stellaris/internal/algo"
	"stellaris/internal/env"
	"stellaris/internal/obs/lineage"
	"stellaris/internal/replay"
	"stellaris/internal/rng"
)

// roller holds one actor's rollout state: an environment, a model and
// the current observation, carried from one trajectory to the next the
// way live's actor does.
type roller struct {
	env   env.Env
	model *algo.Model
	rng   *rng.RNG
	frame []float64
	// rec, when set, records a span per Model.Act and Env.Step call
	// (the stage ladder sets it).
	rec *recorder
}

func newRoller(w workload, seed uint64) (*roller, error) {
	e, err := env.NewSized(w.Env, 0)
	if err != nil {
		return nil, err
	}
	return &roller{
		env: e, model: algo.NewModelHidden(e, w.Hidden, seed),
		rng: rng.New(seed).Split(100),
	}, nil
}

// rollout collects one trajectory of the given length, as live's
// actor.iterate does between its weight fetch and its publish.
func (r *roller) rollout(key string, steps, version int) *replay.Trajectory {
	if r.frame == nil {
		r.frame = r.env.Reset(r.rng)
	}
	traj := &replay.Trajectory{
		PolicyVersion: version,
		Trace: lineage.Meta{
			ID: key, Kind: lineage.KindTrajectory,
			Origin: "actor/0#0", Parent: lineage.WeightsID(version),
		},
	}
	ret := 0.0
	for i := 0; i < steps; i++ {
		s := r.rec.begin("algo.act")
		action, lp, dp := r.model.Act(r.frame, r.rng)
		r.rec.end(s)
		s = r.rec.begin("env.step")
		next, rew, done := r.env.Step(action)
		r.rec.end(s)
		traj.Steps = append(traj.Steps, replay.Step{
			Obs: r.frame, Action: action, Reward: rew, Done: done,
			LogProb: lp, DistParams: dp,
		})
		ret += rew
		if done {
			traj.EpisodeReturns = append(traj.EpisodeReturns, ret)
			ret = 0
			r.frame = r.env.Reset(r.rng)
		} else {
			r.frame = next
		}
	}
	return traj
}

// noise returns n seeded standard-normal values scaled by sigma: the
// stand-in for a gradient vector of a model with n parameters.
func noise(r *rng.RNG, n int, sigma float64) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = sigma * r.NormFloat64()
	}
	return v
}
