package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"time"

	"stellaris"
	"stellaris/internal/obs"
)

// desUpdatesPerRound is the sweep's round length in policy updates.
const desUpdatesPerRound = 8

// desConfigs returns the sweep: seven discrete-event configurations at
// the small-scale sizes of Figs. 3a/12/14, each trained for the given
// number of policy updates: whole rounds of eight, or one shorter round
// when fewer are asked for (warm-up and smoke runs).
func desConfigs(w workload, seed uint64, updates int) []stellaris.Config {
	rounds, perRound := updates/desUpdatesPerRound, desUpdatesPerRound
	if rounds == 0 {
		rounds, perRound = 1, updates
	}
	base := stellaris.Config{
		Env: w.Env, Algo: "ppo", Seed: seed, Rounds: rounds,
		UpdatesPerRound: perRound, Hidden: w.Hidden, LearningRate: 2e-4,
		NumActors: 8, ActorSteps: w.ActorSteps, BatchSize: w.BatchSize,
		GPUs: 1, LearnersPerGPU: 4, ServerlessLearners: true,
	}
	var cfgs []stellaris.Config
	// Learner slots × actors ∈ {2, 8} × {8, 24}.
	for _, learners := range []int{2, 8} {
		for _, actors := range []int{8, 24} {
			c := base
			c.NumActors = actors
			if learners == 2 {
				c.GPUs, c.LearnersPerGPU = 1, 2
			} else {
				c.GPUs, c.LearnersPerGPU = 2, 4
			}
			cfgs = append(cfgs, c)
		}
	}
	hpc := base
	hpc.HPC = true
	impact := base
	impact.Algo = "impact"
	// The CNN trunk: the only config on the conv/im2col path.
	cnn := base
	cnn.Env, cnn.FrameSize, cnn.ActorSteps, cnn.BatchSize = "invaders", 20, 64, 128
	return append(cfgs, hpc, impact, cnn)
}

// desTuple is the per-config output that must repeat exactly for a
// seed; it is hashed for printing and compared between the untraced
// and the instrumented run.
func desTuple(r *stellaris.Result) string {
	return fmt.Sprintf("%x/%x/%x/%x/%d",
		math.Float64bits(r.FinalReward), math.Float64bits(r.TotalCostUSD),
		math.Float64bits(r.LearnerTime), math.Float64bits(r.Staleness.Mean()), r.Episodes)
}

// desPass trains every config in turn and returns the results and the
// per-config wall times in ms. instrument gives each config a registry
// of its own (a registry observes exactly one run).
func desPass(cfgs []stellaris.Config, instrument bool) ([]*stellaris.Result, []float64, error) {
	results := make([]*stellaris.Result, 0, len(cfgs))
	walls := make([]float64, 0, len(cfgs))
	for i, cfg := range cfgs {
		if instrument {
			cfg.Obs = obs.NewRegistry()
		}
		start := time.Now()
		r, err := stellaris.Train(cfg)
		if err != nil {
			return results, walls, fmt.Errorf("config %d: %w", i, err)
		}
		walls = append(walls, float64(time.Since(start))/float64(time.Millisecond))
		results = append(results, r)
	}
	return results, walls, nil
}

func runDES(w workload, spec runSpec, res *runResult) error {
	updates := scaled(w.Units, spec.Scale)
	cfgs := desConfigs(w, spec.Seed, updates)
	updates = cfgs[0].Rounds * cfgs[0].UpdatesPerRound
	res.Params = map[string]any{
		"configs":    "learners×actors {2,8}×{8,24}, hpc, impact, invaders-cnn",
		"gomaxprocs": w.Procs, "updates_per_config": updates, "updates_per_round": cfgs[0].UpdatesPerRound, "hidden": w.Hidden,
		"hopper": "actor_steps 128, batch 512", "invaders": "frame 20, actor_steps 64, batch 128",
	}

	if _, _, err := desPass(desConfigs(w, spec.Seed, scaled(updates, warmupShare)), false); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	var results []*stellaris.Result
	var walls []float64
	var err error
	res.timed(func() { results, walls, err = desPass(cfgs, spec.Mode == modeTraced) })
	res.Attempted = len(cfgs)
	res.Failed = len(cfgs) - len(results)
	if err != nil {
		res.check("train", false, err.Error())
		return nil
	}
	// wall_s is the sum of the seven Train calls; the loop between them
	// does nothing else, so the timed region and the sum agree.
	res.UpdatesPerS = float64(len(cfgs)*updates) / res.WallS
	// A cycle here is one Train call. Seven calls of seven different
	// sizes are too few for a percentile to mean anything (which config
	// is the middle one changes from seed to seed), so, as on the live
	// workloads, the cycle time reported is the mean.
	res.CyclesPerS = float64(len(walls)) / res.WallS
	res.CycleSamples = 1
	res.CycleP50Ms = 1e3 * res.WallS / float64(len(walls))

	h := sha256.New()
	sane := true
	for _, r := range results {
		fmt.Fprintln(h, desTuple(r))
		if math.IsNaN(r.FinalReward) || math.IsInf(r.FinalReward, 0) || len(r.Rounds.Rows) != cfgs[0].Rounds {
			sane = false
		}
	}
	res.Hash = hex.EncodeToString(h.Sum(nil))
	res.check("outputs_sane", sane, fmt.Sprintf("%d configs: finite reward, %d rounds each", len(results), cfgs[0].Rounds))

	if spec.Mode == modeTraced {
		for _, r := range results {
			res.Layer["core.learner_invocations"] += float64(r.LearnerInvocations)
			res.Layer["serverless.cold_starts"] += float64(r.ColdStarts)
			res.Layer["des.virtual_learner_s"] += r.LearnerTime
			res.Layer["des.cost_usd"] += r.TotalCostUSD
		}
		res.Layer["stale.mean_staleness"] = results[0].Staleness.Mean()
		res.Layer["stale.grads_per_update"] = float64(results[0].LearnerInvocations) / float64(updates)
		desBudgetInputs(res.Layer, results[0], walls[0], updates)
	}
	return nil
}

// desBudgetInputs records what the time budget needs from the sweep's
// first config: its wall time per update and how many actor and
// learner invocations one update took.
func desBudgetInputs(out map[string]float64, r *stellaris.Result, wallMs float64, updates int) {
	out["des.first_config_ms_per_update"] = wallMs / float64(updates)
	for _, p := range r.Profile {
		switch p.Kind {
		case "actor":
			out["des.first_config_actor_calls_per_update"] = float64(p.Count) / float64(updates)
		case "learner":
			out["des.first_config_learner_calls_per_update"] = float64(p.Count) / float64(updates)
		}
	}
}
