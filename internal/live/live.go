// Package live runs Stellaris's actor/learner/parameter pipeline as
// real concurrent workers exchanging data through the TCP distributed
// cache — the deployment shape of the paper's implementation (§VII),
// with goroutines standing in for containers.
//
// Where internal/core simulates the serverless platform on a virtual
// clock (for reproducible cost/staleness experiments), this package is
// the *operational* mode: everything runs in real time, all payloads
// really serialize through the cache protocol, and staleness arises from
// genuine scheduling nondeterminism. It exists so a downstream user can
// train against a stellaris-cached deployment, and so the test suite
// exercises the full network path end to end.
//
// Crash safety has three layers (see DESIGN.md §"Crash recovery"):
// periodic checkpoints (Options.CheckpointDir / Resume) persist the full
// training state so a killed process resumes mid-run; worker supervision
// converts actor/learner panics and errors into bounded restarts; and a
// cache-mirrored checkpoint copy under ckpt.CacheKey survives the loss
// of the local disk. The deterministic single-threaded Lockstep mode
// additionally makes a seeded resume reproduce the uninterrupted run's
// trajectory bit for bit.
package live

import (
	"fmt"
	"time"

	"stellaris/internal/cache"
	"stellaris/internal/cache/cluster"
	"stellaris/internal/obs"
	"stellaris/internal/obs/lineage"
)

// Options configures a live training run.
type Options struct {
	// CacheAddr connects to an external stellaris-cached server; empty
	// starts an in-process server on a loopback port (still exercising
	// the full TCP path). Either way the run sees it as a one-shard
	// topology.
	CacheAddr string
	// Cluster, when set, connects every worker to a sharded cache
	// cluster instead of a single server (DESIGN.md §11): keys route by
	// consistent hash, and a shard whose leader dies fails over onto its
	// follower mid-run without aborting training. Mutually exclusive
	// with CacheAddr. A one-shard topology is the degenerate case and
	// behaves — byte for byte on the wire — like a single server, so
	// Lockstep determinism carries over unchanged.
	Cluster *cluster.Topology
	// Cache is the fault-tolerance policy of every run connection (each
	// a cache.ShardedClient). Zero fields take the cache's defaults; the
	// run fills Seed, Obs, Lineage and LineageName per connection
	// (DESIGN.md §11.6).
	Cache cache.DialOptions
	// Env names the environment; Hidden as in core.Config.
	Env    string
	Hidden int
	// Algo selects "ppo" (default) or "impact".
	Algo string //lint:allow reach benchmark-only: benchmark/live.go sets it
	// Seed drives all random streams.
	Seed uint64
	// Actors and Learners size the worker pools (defaults 2 and 2).
	Actors   int
	Learners int
	// Updates is the number of policy updates to train for.
	Updates int
	// ActorSteps and BatchSize as in core.Config.
	ActorSteps int
	BatchSize  int
	// LearningRate overrides Table III's α₀ (0 keeps it).
	LearningRate float64

	// CheckpointDir enables crash-safe training: every CheckpointEvery
	// policy updates the run persists its full state (weights, optimizer
	// moments, version counter, staleness-threshold state, RNG stream
	// positions in Lockstep mode) to this directory with atomic renames,
	// plus a mirrored copy in the cache under ckpt.CacheKey. Empty
	// disables checkpointing.
	CheckpointDir string
	// CheckpointEvery is the update interval between checkpoints;
	// defaults to one round of updates when CheckpointDir is set.
	CheckpointEvery int
	// Resume loads the newest valid checkpoint before training — from
	// CheckpointDir first, falling back to the cache mirror — and
	// continues from its version. A fingerprint mismatch (different env,
	// topology, seed, or hyperparameters) is an error; no checkpoint at
	// all silently starts fresh.
	Resume bool
	// Lockstep replaces the concurrent pipeline with a deterministic
	// single-threaded schedule (same wire path, fixed interleaving). A
	// seeded lockstep run killed at a checkpoint boundary and resumed
	// reproduces the uninterrupted run's weights bit for bit.
	Lockstep bool

	// RestartBudget is how many times one actor or learner may be
	// restarted after a panic or error before the run fails; default 8.
	RestartBudget int
	// panicHook, when set, is asked before every worker iteration and
	// triggers a panic on true. Deterministic fault injection for tests.
	panicHook func(role string, id int) bool
	// restartBackoff is the base delay before a worker restart, doubled
	// per consecutive restart up to 2s; default 50ms. Tests shorten it.
	restartBackoff time.Duration
	// maxStaleFallbacks bounds how many consecutive failed weight
	// fetches a worker tolerates (reusing its stale copy) before the
	// worker is restarted; default 50. Tests lower it.
	maxStaleFallbacks int
	// updatesPerRound is the policy updates in one round of Eq. 3's
	// schedule; default 8, the DES's. Tests shorten it.
	updatesPerRound int

	// FlightDir is where the supervisor writes flight-recorder dumps —
	// JSON postmortems holding the last lineage events recorded before a
	// worker panic-restart or a run failure (see DESIGN.md "Causal
	// tracing & flight recorder"). Defaults to CheckpointDir; with both
	// empty no dump file is written (the cache mirror under
	// "sys/flight/latest" still is, when tracing is on). Requires
	// Options.Obs — the flight recorder is the lineage store's ring.
	FlightDir string

	// Obs receives the run's metrics: the live_* families and the cache
	// client and shard event families the Report reads its counts from,
	// and — for an in-process server — cache_server_*. Families
	// accumulate, so a Registry should observe exactly one run. Nil keeps
	// the run's metrics private: the Report still reads them, but
	// lineage with its flight recorder, /buildinfo's run identity, the
	// server metrics and Report.Obs need a caller's registry. A caller
	// that serves the registry over HTTP (obs.Serve) owns that endpoint.
	Obs *obs.Registry
}

func (o Options) withDefaults() (Options, error) {
	if o.Env == "" {
		o.Env = "cartpole"
	}
	if o.Algo == "" {
		o.Algo = "ppo"
	}
	if o.Algo != "ppo" && o.Algo != "impact" {
		return o, fmt.Errorf("live: unknown algo %q", o.Algo)
	}
	if o.Cluster != nil {
		if o.CacheAddr != "" {
			return o, fmt.Errorf("live: CacheAddr and Cluster are mutually exclusive")
		}
		if err := o.Cluster.Validate(); err != nil {
			return o, err
		}
	}
	if o.Actors <= 0 {
		o.Actors = 2
	}
	if o.Learners <= 0 {
		o.Learners = 2
	}
	if o.Updates <= 0 {
		o.Updates = 8
	}
	if o.ActorSteps <= 0 {
		o.ActorSteps = 64
	}
	if o.BatchSize <= 0 {
		o.BatchSize = 128
	}
	if o.updatesPerRound <= 0 {
		o.updatesPerRound = 8
	}
	if o.maxStaleFallbacks <= 0 {
		o.maxStaleFallbacks = 50
	}
	if o.CheckpointDir != "" && o.CheckpointEvery <= 0 {
		o.CheckpointEvery = o.updatesPerRound
	}
	if o.FlightDir == "" {
		o.FlightDir = o.CheckpointDir
	}
	if o.RestartBudget <= 0 {
		o.RestartBudget = 8
	}
	if o.restartBackoff <= 0 {
		o.restartBackoff = 50 * time.Millisecond
	}
	return o, nil
}

// Report summarizes a live run.
type Report struct {
	Updates       int
	Episodes      int
	MeanReturn    float64
	MeanStaleness float64
	// MeanTrajectoryLag is how many versions behind its learner's weights
	// a consumed trajectory was sampled, averaged over every trajectory
	// consumed: the staleness the data carries into Eq. 2, where
	// MeanStaleness is what the gradients add (live_trajectory_lag).
	MeanTrajectoryLag float64
	Elapsed           time.Duration
	FinalWeights      []float64

	// Resilience counters: the cache events of every connection the run
	// opened, plus the workers' graceful-degradation fallbacks. All stay
	// zero on a healthy cache. The cache counters are read from the
	// run's registry (cache.RegistryStats), so they include closed
	// worker connections and the clients replaced on failover.
	//
	// CacheRetries/CacheReconnects/CacheTimeouts are the retry,
	// reconnect and timeout events of cache_client_events_total.
	CacheRetries    int64
	CacheReconnects int64
	CacheTimeouts   int64
	// StaleWeightReuses counts worker iterations that proceeded on a
	// previously fetched weight vector because the fetch failed.
	StaleWeightReuses int64
	// DroppedPayloads counts trajectories/gradients abandoned on any
	// shed-load path: retry exhaustion, corrupt decode, backpressure,
	// or a learner with no weights: the total of
	// live_dropped_payloads_total, which breaks it down by reason.
	DroppedPayloads int64
	// ShardFailovers counts shard leaders replaced by their follower
	// (cluster mode only), summed across every worker's connection —
	// each client fails over independently, so one dead leader typically
	// shows up here once per worker that hit it.
	ShardFailovers int64
	// WeightRegressions counts head-pointer regressions the weight
	// subscribers detected and reset through: after failover onto a
	// follower whose replicated head lagged the dead leader, the policy
	// version can move backwards, and the subscribers re-anchor rather
	// than silently serving an older vector as if it were newer.
	WeightRegressions int64
	// FencedWrites counts writes refused by a shard holding a newer
	// leadership term than the client's topology view — each one forced
	// a topology refresh before the retry (split-brain protection).
	FencedWrites int64

	// Crash-recovery accounting. ActorRestarts/LearnerRestarts count
	// supervisor restarts by role; CheckpointsWritten counts successful
	// checkpoint persists; Resumed/ResumedFromVersion report whether
	// (and where) the run picked up from a checkpoint.
	ActorRestarts      int64
	LearnerRestarts    int64
	CheckpointsWritten int64
	Resumed            bool
	ResumedFromVersion int

	// Causal-tracing summary (all zero without Options.Obs).
	// TraceEvents is the number of lineage events recorded;
	// MaxLineageDepth the deepest ancestry observed (weights=1 →
	// trajectory=2 → gradient=3); FlightDumps the number of
	// flight-recorder postmortems taken.
	TraceEvents     int64
	MaxLineageDepth int
	FlightDumps     int64
	// Lineage is the run's lineage store, for programmatic timeline and
	// chain queries (nil without Options.Obs).
	Lineage *lineage.Store

	// Obs is a final snapshot of Options.Obs taken after the pipeline
	// drained; nil when no registry was supplied.
	Obs *obs.Snapshot
}

// trajNote tells the data loader a trajectory landed in the cache.
type trajNote struct {
	key   string
	steps int
}

// gradNote tells the parameter worker a gradient landed in the cache.
type gradNote struct {
	key string
}

// Train runs the live pipeline to completion (or resumes it from a
// checkpoint when Options.Resume is set).
func Train(opt Options) (*Report, error) {
	opt, err := opt.withDefaults()
	if err != nil {
		return nil, err
	}
	r, loaded, err := newRun(opt)
	if err != nil {
		return nil, err
	}
	defer r.close()
	// A checkpoint may already cover the requested updates.
	switch {
	case int(r.version.Load()) >= opt.Updates:
	case opt.Lockstep:
		err = r.runLockstep(loaded)
	default:
		err = r.runAsync()
	}
	// Every connection is closed (close is idempotent) before the Report
	// reads their events.
	r.close()
	if err != nil {
		return nil, err
	}
	return r.buildReport(), nil
}

// publishWeights stores the run's current weight vector under version,
// then the head naming it (cache.WeightsPublisher), in both schedules.
// It retries through an extended outage, backing off between rounds,
// until stop is set or the budget (16 rounds on top of the client's own
// per-op retries) runs out. The first publish at start takes the same
// path, so a transient fault then does not end the run.
func (r *run) publishWeights(version int) error {
	meta := lineage.Meta{ID: lineage.WeightsID(version), Kind: lineage.KindWeights, Origin: "param"}
	var err error
	for round := 0; round < 16; round++ {
		if err = r.pub.Publish(version, r.weights, meta); err == nil {
			return nil
		}
		select {
		case <-r.done:
			return err
		case <-time.After(time.Duration(round+1) * 10 * time.Millisecond):
		}
	}
	return fmt.Errorf("live: publishing weights v%d failed persistently: %w", version, err)
}

// reseedWeights serves a worker's request (runState.reseed) for the
// weights the cache lost: it publishes the current version again, which
// every subscriber still holding it skips. Only r.weights' owner calls it.
func (r *run) reseedWeights() error {
	r.m.reseeds.Inc()
	return r.publishWeights(int(r.version.Load()))
}
