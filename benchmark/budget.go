package main

import (
	"math"
	"strings"
)

// The time budget multiplies each stage's mean self time on the ladder
// (L) by how often one policy update calls it (from the instrumented
// rerun, I) and compares the sum with the measured time per update.
// Where the two agree (coverage near 1) the ladder's rungs add up to
// the end-to-end figure, and the shares say which layer the time goes
// to. It uses means, not the medians the per-layer metrics report: a
// sum of medians leaves out every slow call and cannot add up.

// budgetLine is one stage's row of the budget.
type budgetLine struct {
	Stage string  `json:"stage"` // the per-layer metric the median comes from
	Group string  `json:"group"` // "compute", "cache" or "other"
	Calls float64 `json:"calls"` // calls per update (per cycle on cache_mix)
	Us    float64 `json:"us"`    // mean self time of one call, µs
}

// stageGroup assigns a per-layer metric to the layer group the
// interaction predictions speak of.
func stageGroup(metricName string) string {
	switch strings.SplitN(metricName, ".", 2)[0] {
	case "tensor", "nn", "algo", "replay", "env", "actor":
		return "compute"
	case "cache":
		return "cache"
	}
	return "other"
}

// budgetLines lists, for one workload, the stages one update runs and
// how often. layer holds the merged per-layer metrics of a traced run
// (for the call counts), meanUs the ladder's mean self times.
func budgetLines(w workload, layer, meanUs map[string]float64) []budgetLine {
	var lines []budgetLine
	add := func(stage string, calls float64) {
		if calls > 0 {
			lines = append(lines, budgetLine{stage, stageGroup(stage), calls, meanUs[stage]})
		}
	}
	// A rollout is its own self time plus one Act and one Step per step.
	rollout := func(calls float64) {
		add("actor.rollout_self_us", calls)
		add("algo.act_us", calls*float64(w.ActorSteps))
		add("env.step_ns", calls*float64(w.ActorSteps))
	}
	// Trajectories per learner batch.
	tpb := math.Ceil(float64(w.BatchSize) / float64(w.ActorSteps))
	a, g := layer["live.actor_iters_per_update"], layer["stale.grads_per_update"]

	switch {
	case w.Name == "cache_mix":
		// One cycle, as cachemix.go issues it; client 0 alone publishes.
		add("cache.sub_fetch_us", 1)
		add("cache.enc_traj_us", 2)
		add("cache.put_traj_us", 2)
		add("cache.getn_traj_us", 1)
		add("cache.dec_traj_us", 2)
		add("cache.delete_us", 3)
		add("cache.enc_grad_us", 1)
		add("cache.put_grad_us", 1)
		add("cache.get_grad_us", 1)
		add("cache.dec_grad_us", 1)
		add("cache.publish_us", 0.5)

	case w.Name == "des_sweep":
		// The sweep's first config: real rollouts and gradients, weights
		// encoded and put to the in-process store; trajectories and
		// gradients are not serialized in the simulation.
		a, g = layer["des.first_config_actor_calls_per_update"], layer["des.first_config_learner_calls_per_update"]
		rollout(a)
		add("nn.set_weights_us", a+g)
		add("replay.flatten_us", g)
		add("algo.compute_ms", g)
		add("stale.offer_combine_us", g)
		add("optim.step_us", 1)
		add("cache.enc_weights_us", 1)
		add("cache.put_weights_us", 1)

	case w.Lockstep:
		// runLockstep: every actor iteration and every learner sweep does
		// a full weight fetch; the learner reads its batch key by key.
		add("cache.get_weights_us", a+g)
		add("cache.dec_weights_us", a+g)
		add("nn.set_weights_us", a+g)
		rollout(a)
		add("cache.enc_traj_us", a)
		add("cache.put_traj_us", a)
		add("cache.getn_traj_us", g)
		add("cache.dec_traj_us", g*tpb)
		add("cache.delete_us", g*tpb+g)
		add("replay.flatten_us", g)
		add("algo.compute_ms", g)
		add("cache.enc_grad_us", g)
		add("cache.put_grad_us", g)
		add("cache.get_grad_us", g)
		add("cache.dec_grad_us", g)
		add("stale.offer_combine_us", g)
		add("optim.step_us", 1)
		add("cache.enc_weights_us", 1)
		add("cache.put_weights_us", 1)

	default:
		// runAsync: workers poll the delta head every iteration; the head
		// has moved for at most one fetch per worker (4) per update.
		moved := math.Min(4, a+g)
		add("cache.sub_fetch_us", moved)
		add("cache.sub_skip_us", a+g-moved)
		add("nn.set_weights_us", a+g)
		rollout(a)
		add("cache.enc_traj_us", a)
		add("cache.put_traj_us", a)
		add("cache.getn_traj_us", g)
		add("cache.dec_traj_us", g*tpb)
		add("cache.delete_us", g*tpb+g)
		add("replay.flatten_us", g)
		add("algo.compute_ms", g)
		add("cache.enc_grad_us", g)
		add("cache.put_grad_us", g)
		add("cache.get_grad_us", g)
		add("cache.dec_grad_us", g)
		add("stale.offer_combine_us", g)
		add("optim.step_us", 1)
		add("cache.publish_us", 1)
	}
	return lines
}

// budget sums the lines and relates them to the measured time of one
// update. measuredUs is the wall time per update times the number of
// threads that run stages side by side (1 in lockstep and the DES, the
// two saturated cores in async mode, the two clients of cache_mix).
func budget(lines []budgetLine, measuredUs float64) (coverage, computeShare, cacheShare float64) {
	var total, compute, cacheUs float64
	for _, l := range lines {
		t := l.Calls * l.Us
		total += t
		switch l.Group {
		case "compute":
			compute += t
		case "cache":
			cacheUs += t
		}
	}
	if total == 0 || measuredUs == 0 {
		return 0, 0, 0
	}
	return total / measuredUs, compute / total, cacheUs / total
}
