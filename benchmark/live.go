package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"

	"stellaris/internal/live"
	"stellaris/internal/obs"
)

// liveOptions builds the live.Train options of a live workload: binary
// codec and (in async mode) delta weight broadcast are the defaults.
func liveOptions(w workload, seed uint64, updates int, t *tier, reg *obs.Registry) live.Options {
	return live.Options{
		CacheAddr: t.addr, Cluster: t.topo,
		Env: w.Env, Algo: "ppo", Hidden: w.Hidden,
		Actors: 2, Learners: 2,
		ActorSteps: w.ActorSteps, BatchSize: w.BatchSize,
		Updates: updates, Seed: seed,
		Lockstep: w.Lockstep,
		Obs:      reg,
	}
}

// runLive runs one of the three live.Train workloads.
func runLive(w workload, spec runSpec, res *runResult) error {
	updates := scaled(w.Units, spec.Scale)
	res.Params = map[string]any{
		"env": w.Env, "algo": "ppo", "hidden": w.Hidden, "actors": 2, "learners": 2,
		"actor_steps": w.ActorSteps, "batch_size": w.BatchSize, "updates": updates,
		"lockstep": w.Lockstep, "gomaxprocs": w.Procs, "shards": w.Shards, "followers": w.Shards > 1, "codec": "binary",
	}

	// Warm-up on a throwaway tier, so the tier under test starts empty.
	wt, err := startTier(w.Shards, spec.Seed, nil)
	if err != nil {
		return err
	}
	_, err = live.Train(liveOptions(w, spec.Seed, scaled(updates, warmupShare), wt, nil))
	wt.close()
	if err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}

	// The instrumented rerun hands live.Train a registry and instruments
	// the leader servers into a second one.
	var runReg, srvReg *obs.Registry
	if spec.Mode == modeTraced {
		runReg, srvReg = obs.NewRegistry(), obs.NewRegistry()
	}
	t, err := startTier(w.Shards, spec.Seed, srvReg)
	if err != nil {
		return err
	}
	defer t.close()
	opt := liveOptions(w, spec.Seed, updates, t, runReg)
	var rep *live.Report
	res.timed(func() { rep, err = live.Train(opt) })
	res.Attempted = updates
	if err != nil {
		res.Failed = updates
		res.check("train", false, err.Error())
		return nil
	}
	// The one externally timed call is the whole Train; a cycle here is
	// a policy update, so the cycle metrics are derived from the wall
	// time.
	res.UpdatesPerS = float64(rep.Updates) / res.WallS
	res.CyclesPerS = res.UpdatesPerS
	res.CycleSamples = 1
	res.CycleP50Ms = 1e3 * res.WallS / float64(rep.Updates)
	res.Failed = updates - rep.Updates + int(rep.CacheTimeouts)

	res.check("updates", rep.Updates == updates, fmt.Sprintf("%d of %d", rep.Updates, updates))
	res.check("cache_timeouts", rep.CacheTimeouts == 0, fmt.Sprint(rep.CacheTimeouts))
	finite := len(rep.FinalWeights) > 0
	for _, v := range rep.FinalWeights {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			finite = false
		}
	}
	res.check("weights_finite", finite, fmt.Sprintf("%d weights", len(rep.FinalWeights)))
	if w.Lockstep {
		res.Hash = liveHash(rep)
	}
	if spec.Mode == modeTraced {
		liveLayer(res.Layer, rep, srvReg.Snapshot(), t)
	}
	return nil
}

// liveHash fingerprints a lockstep run's outputs. It is printed, and
// compared between the untraced and the instrumented run; it is not
// compared to a committed value, because a kernel change may
// legitimately reorder a reduction.
func liveHash(rep *live.Report) string {
	h := sha256.New()
	var b [8]byte
	for _, v := range rep.FinalWeights {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	binary.LittleEndian.PutUint64(b[:], uint64(rep.Episodes))
	h.Write(b[:])
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(rep.MeanReturn))
	h.Write(b[:])
	return hex.EncodeToString(h.Sum(nil))
}

// liveLayer reads the (I) per-layer metrics out of an instrumented
// live run: the run's own registry (rep.Obs), the Report, the leader
// servers' registry and the replicas.
func liveLayer(out map[string]float64, rep *live.Report, srv *obs.Snapshot, t *tier) {
	updates := float64(rep.Updates)
	run := rep.Obs

	// live_iteration_seconds has factor-2 buckets, so its p50 is only a
	// bucket bound; the exact mean (sum ÷ count) over a role's workers
	// is reported instead.
	iters := map[string]float64{}
	for _, role := range []string{"actor", "learner", "param"} {
		count, sum := histTotals(run, "live_iteration_seconds", "role", role)
		iters[role] = count
		ms := 0.0
		if count > 0 {
			ms = 1e3 * sum / count
		}
		out["live."+role+"_iter_ms"] = ms
	}
	out["live.actor_iters_per_update"] = iters["actor"] / updates
	// Every actor iteration produces one trajectory; the lineage store
	// counts the ones a learner went on to consume.
	if iters["actor"] > 0 {
		out["live.traj_useful_ratio"] = counterSum(run, "lineage_events_total", "hop", "consumed") / iters["actor"]
	}
	out["live.drops_backpressure"] = counterSum(run, "live_dropped_payloads_total", "reason", "backpressure")
	out["live.drops_failed"] = counterSum(run, "live_dropped_payloads_total", "", "") - out["live.drops_backpressure"]

	out["stale.mean_staleness"] = rep.MeanStaleness
	grads, _ := histTotals(run, "live_gradient_staleness", "", "")
	out["stale.grads_per_update"] = grads / updates

	out["cache.ops_per_update"] = counterSum(srv, "cache_server_ops_total", "", "") / updates
	out["cache.wire_bytes_per_update"] = counterSum(srv, "cache_server_frame_bytes_total", "", "") / updates
	_, busy := histTotals(srv, "cache_server_op_seconds", "", "")
	out["cache.server_busy_s"] = busy

	out["cache.repl_applied_ops"] = float64(t.replicatedOps())
	out["cache.failovers"] = float64(rep.ShardFailovers)
	out["cache.fenced_writes"] = float64(rep.FencedWrites)
	out["cache.retries"] = float64(rep.CacheRetries)
	out["cache.timeouts"] = float64(rep.CacheTimeouts)
}

// counterSum adds up every child of a counter family whose label
// matches (label "" matches all children).
func counterSum(s *obs.Snapshot, name, label, value string) float64 {
	if s == nil {
		return 0
	}
	sum := 0.0
	for _, p := range s.Counters {
		if p.Name == name && (label == "" || p.Labels[label] == value) {
			sum += p.Value
		}
	}
	return sum
}

// histTotals adds up the exact count and sum of every child of a
// histogram family whose label matches (label "" matches all).
func histTotals(s *obs.Snapshot, name, label, value string) (count, sum float64) {
	if s == nil {
		return 0, 0
	}
	for _, p := range s.Histograms {
		if p.Name == name && (label == "" || p.Labels[label] == value) {
			count += float64(p.Count)
			sum += p.Sum
		}
	}
	return count, sum
}
