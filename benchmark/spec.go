package main

import (
	"fmt"
	"math"
)

// refSeconds is the default length of one run: the repeats of a run,
// each with its own set-up, are made until this much time has passed
// since the process started. BENCHMARK.json's run_seconds is the same
// number.
const refSeconds = 20

// minRepeats is how many repeats a run makes at least, however slow the
// box, so that the fastest are picked from a few.
const minRepeats = 4

// warmupShare is the untimed warm-up pass: the same workload at this
// share of its work count, run during set-up.
const warmupShare = 0.05

// ladderReps is how often the stage ladder repeats each stage (at
// scale 1; the tests run smaller); per-layer values are medians over
// these repetitions.
const ladderReps = 200

// A workload is one named set of inputs. The work count is part of the
// workload and is fixed: the Eq. 3 staleness threshold decays with the
// round index, so updates/s depends on how many updates are trained,
// and a rate is only comparable between two runs of the same count. A
// longer run makes more repeats of the same count, not longer ones.
type workload struct {
	Name string
	Why  string
	// Units is the work count of one repeat: policy updates for the live
	// workloads, cycles per client for cache_mix, policy updates per
	// config for des_sweep. A repeat lasts 0.5 to 3 s on the reference
	// box: the box changes speed in steps that last seconds to tens of
	// seconds, and only samples shorter than that can tell its fast state
	// from its slow one.
	Units int
	// Procs is the GOMAXPROCS the workload's processes run under, so a
	// result does not depend on how many cores the box happens to have.
	// lockstep_fat is serial by construction; on one P its goroutine
	// hand-offs stay on one thread, which is a fifth faster and half as
	// noisy as waking the other (virtual) core for every message.
	Procs int
	// Shards is the cache tier's shard count: 1 = one plain server,
	// 3 = three leader+follower pairs, 0 = no TCP tier (DES).
	Shards int
	// Shape of the model and payloads, shared by the workload itself
	// and its stage ladder.
	Env        string
	Hidden     int
	ActorSteps int
	BatchSize  int
	Lockstep   bool
}

var workloads = []workload{
	{
		Name: "async_1shard", Units: 200, Procs: 2, Shards: 1,
		Env: "hopper", Hidden: 64, ActorSteps: 64, BatchSize: 128,
		Why: "the paper's deployment shape on one cache server: compute kernels do most of the work, so kernel/nn/algo changes show here and wire changes must not",
	},
	{
		Name: "async_3shard", Units: 200, Procs: 2, Shards: 3,
		Env: "hopper", Hidden: 64, ActorSteps: 64, BatchSize: 128,
		Why: "same training on 3 fenced leader+follower shards: its gap to async_1shard is the cluster tax of routing, fencing, topology watch and replication",
	},
	{
		Name: "lockstep_fat", Units: 20, Procs: 1, Shards: 1, Lockstep: true,
		Env: "cartpole", Hidden: 256, ActorSteps: 8, BatchSize: 16,
		Why: "deterministic serial run with 1 MB weight messages and thin batches: the one live run where the wire path is a large share and outputs compare exactly",
	},
	{
		Name: "cache_mix", Units: 300, Procs: 2, Shards: 3,
		Env: "hopper", Hidden: 64, ActorSteps: 64, BatchSize: 128,
		Why: "no training, two clients replay one update's cache traffic with real payloads: the cache tier does all the work, so wire/codec/lock changes show here first and compute changes must not",
	},
	{
		Name: "des_sweep", Units: 8, Procs: 2, Shards: 0,
		Env: "hopper", Hidden: 64, ActorSteps: 128, BatchSize: 512,
		Why: "seven discrete-event simulations at the paper's small figure sizes, no TCP and no goroutines: kernels, core.Trainer, serverless, simclock and the only conv/im2col path",
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// scaled returns the work count at the given scale, at least 1. Every
// measured run has scale 1; the tests shrink the work counts.
func scaled(units int, scale float64) int {
	n := int(math.Round(float64(units) * scale))
	if n < 1 {
		n = 1
	}
	return n
}

// A metric is one named number the benchmark prints.
type metric struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
}

// endToEnd lists the end-to-end metrics in print order. Every workload
// reports every one (the driver contract reads each metric on each
// workload); the README's "native on" column says where a metric is a
// measurement of its own and where it is derived from the workload's
// single timed call.
var endToEnd = []metric{
	{"setup_s", "s", "lower"},
	{"updates_per_s", "1/s", "higher"},
	{"cycles_per_s", "1/s", "higher"},
	{"cycle_p50_ms", "ms", "lower"},
	{"wall_s", "s", "lower"},
	{"alloc_mb", "MB", "lower"},
}

// bound is the share of the baseline median by which an end-to-end
// metric may get worse before compare calls it a regression: about
// three times the quartile spread measured over ten runs on the
// reference box (README, "Measured repeatability"), capped at the 25 %
// the driver contract allows. Wall-clock metrics wander by 5-19 % from
// run to run there, whatever the workload; allocation volume repeats
// almost exactly where the work is deterministic and depends on how
// many trajectories the actors oversample where it is not.
func bound(workloadName, metricName string) float64 {
	switch metricName {
	case "alloc_mb":
		switch workloadName {
		case "lockstep_fat", "cache_mix":
			return 0.01
		case "des_sweep":
			return 0.15
		}
		return 0.10
	}
	return 0.25
}

// perLayer lists the per-layer metrics a traced run reports, in print
// order. Source (L) is the stage ladder, (I) the instrumented rerun, (P)
// the untraced run's process counters, (D) derived by the driver. A
// metric that does not exist on a workload (live.* on des_sweep, say)
// reads 0 there.
var perLayer = []metric{
	// tensor (L): kernels at the trunk's batch×hidden×hidden shape.
	{"tensor.matmul_us", "us", "lower"},
	{"tensor.matmul_abt_us", "us", "lower"},
	{"tensor.matmul_atb_us", "us", "lower"},
	{"tensor.gflops", "GFLOP/s", "higher"},
	// nn (L)
	{"nn.forward_us", "us", "lower"},
	{"nn.backward_us", "us", "lower"},
	{"nn.flatten_us", "us", "lower"},
	{"nn.set_weights_us", "us", "lower"},
	// algo, policy, replay, env (L)
	{"algo.compute_ms", "ms", "lower"},
	{"algo.act_us", "us", "lower"},
	{"replay.flatten_us", "us", "lower"},
	{"env.step_ns", "ns", "lower"},
	{"actor.rollout_self_us", "us", "lower"},
	// optim, stale, istrunc (L), and the behaviour guards (I)
	{"optim.step_us", "us", "lower"},
	{"stale.offer_combine_us", "us", "lower"},
	{"stale.mean_staleness", "versions", "lower"},
	{"stale.grads_per_update", "count", "lower"},
	// cache codec (L)
	{"cache.enc_traj_us", "us", "lower"},
	{"cache.dec_traj_us", "us", "lower"},
	{"cache.enc_grad_us", "us", "lower"},
	{"cache.dec_grad_us", "us", "lower"},
	{"cache.enc_weights_us", "us", "lower"},
	{"cache.dec_weights_us", "us", "lower"},
	{"cache.build_delta_us", "us", "lower"},
	// cache store + wire (L), and the server's view (I)
	{"cache.mem_putget_us", "us", "lower"},
	{"cache.rtt_small_us", "us", "lower"},
	{"cache.put_traj_us", "us", "lower"},
	{"cache.getn_traj_us", "us", "lower"},
	{"cache.put_grad_us", "us", "lower"},
	{"cache.get_grad_us", "us", "lower"},
	{"cache.get_weights_us", "us", "lower"},
	{"cache.put_weights_us", "us", "lower"},
	{"cache.delete_us", "us", "lower"},
	{"cache.ops_per_update", "count", "lower"},
	{"cache.wire_bytes_per_update", "B", "lower"},
	{"cache.server_busy_s", "s", "lower"},
	// cache delta (L), and the subscribers' hit ratio
	{"cache.publish_us", "us", "lower"},
	{"cache.sub_fetch_us", "us", "lower"},
	{"cache.sub_skip_us", "us", "lower"},
	{"cache.delta_hit_ratio", "ratio", "higher"},
	// cache cluster (L for the lag, I for the rest; the last four read 0
	// on a healthy tier)
	{"cache.repl_lag_ms", "ms", "lower"},
	{"cache.repl_applied_ops", "count", "lower"},
	{"cache.failovers", "count", "lower"},
	{"cache.fenced_writes", "count", "lower"},
	{"cache.retries", "count", "lower"},
	{"cache.timeouts", "count", "lower"},
	// live (I)
	{"live.actor_iter_ms", "ms", "lower"},
	{"live.learner_iter_ms", "ms", "lower"},
	{"live.param_iter_ms", "ms", "lower"},
	{"live.actor_iters_per_update", "count", "lower"},
	{"live.traj_useful_ratio", "ratio", "higher"},
	{"live.drops_backpressure", "count", "lower"},
	{"live.drops_failed", "count", "lower"},
	// core, serverless, simclock (L), and the simulated outputs (I)
	{"core.train_round_ms", "ms", "lower"},
	{"simclock.event_ns", "ns", "lower"},
	{"serverless.invoke_us", "us", "lower"},
	{"core.learner_invocations", "count", "lower"},
	{"serverless.cold_starts", "count", "lower"},
	{"des.virtual_learner_s", "s", "lower"},
	{"des.cost_usd", "USD", "lower"},
	// obs, lineage (L), and the cost of the instrumented rerun (D)
	{"obs.counter_inc_ns", "ns", "lower"},
	{"obs.hist_observe_ns", "ns", "lower"},
	{"lineage.record_ns", "ns", "lower"},
	{"trace.overhead_frac", "ratio", "lower"},
	// process (P)
	{"proc.cpu_s", "s", "lower"},
	{"proc.peak_rss_mb", "MB", "lower"},
	{"proc.gc_cycles", "count", "lower"},
	{"proc.gc_pause_ms", "ms", "lower"},
	// time budget (D)
	{"budget.coverage", "ratio", "higher"},
	{"budget.compute_share", "ratio", "lower"},
	{"budget.cache_share", "ratio", "lower"},
}
