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
	"math"
	"sync"
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
	// the full TCP path).
	CacheAddr string
	// Cluster, when set, connects every worker to a sharded cache
	// cluster instead of a single server (DESIGN.md §11): keys route by
	// consistent hash, and a shard whose leader dies fails over onto its
	// follower mid-run without aborting training. Mutually exclusive
	// with CacheAddr. A one-shard topology is the degenerate case and
	// behaves — byte for byte on the wire — like a single server, so
	// Lockstep determinism carries over unchanged.
	Cluster *cluster.Topology
	// Env names the environment; FrameSize/Hidden as in core.Config.
	Env       string
	FrameSize int
	Hidden    int
	// Algo selects "ppo" (default) or "impact".
	Algo string
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
	// Stellaris knobs (defaults: d=0.96, v=3, ρ=1.0).
	DecayD          float64
	SmoothV         int
	Rho             float64
	UpdatesPerRound int
	// CacheOpTimeout bounds every cache round trip (SetDeadline on the
	// connection); default 5s.
	CacheOpTimeout time.Duration
	// CacheAttempts is the total tries per cache operation — transport
	// errors are retried with exponential backoff and jitter, protocol
	// errors are not. Default 4.
	CacheAttempts int
	// MaxStaleFallbacks bounds how many consecutive failed weight
	// fetches a worker tolerates (reusing its stale copy) before the
	// worker is restarted; default 50.
	MaxStaleFallbacks int

	// Cache robustness knobs (DESIGN.md §11). All default to off, and
	// withDefaults zeroes them under Lockstep: the deterministic schedule
	// must stay a pure function of the options, and hedging, evacuation,
	// breaker trips and budget denial each depend on wall-clock racing.
	//
	// CacheDegradeLatency arms the sharded client's gray-failure
	// detector: a shard whose latency EWMA crosses this threshold (or
	// whose windowed transport-error rate crosses one half) is evacuated
	// onto its follower exactly like a dead one. Zero disables; only
	// meaningful in cluster mode.
	CacheDegradeLatency time.Duration
	// CacheDegradeWindow is the detector's sliding observation window
	// (ops per shard); zero keeps the cache client's default (16).
	CacheDegradeWindow int
	// CacheHedgeReads races hot-path reads (weights head, batch gets)
	// against the follower once a shard's latency EWMA passes HALF of
	// CacheDegradeLatency. Requires CacheDegradeLatency and a cluster.
	CacheHedgeReads bool
	// CacheBreakerThreshold arms a per-shard circuit breaker: after this
	// many consecutive transport failures the shard fails fast locally
	// for a cooldown instead of burning timeouts. Zero disables.
	CacheBreakerThreshold int
	// CacheRetryRate caps the GLOBAL cache retry rate (tokens per
	// second) across every worker connection, so N workers hammering one
	// dead shard cannot multiply into a reconnect storm. Zero leaves
	// retries unbudgeted. First attempts are never metered.
	CacheRetryRate float64
	// CacheRetryBurst is the retry budget's bucket depth; defaults to
	// max(1, ceil(CacheRetryRate)) when a rate is set.
	CacheRetryBurst int

	// CheckpointDir enables crash-safe training: every CheckpointEvery
	// policy updates the run persists its full state (weights, optimizer
	// moments, version counter, staleness-threshold state, RNG stream
	// positions in Lockstep mode) to this directory with atomic renames,
	// plus a mirrored copy in the cache under ckpt.CacheKey. Empty
	// disables checkpointing.
	CheckpointDir string
	// CheckpointEvery is the update interval between checkpoints;
	// defaults to UpdatesPerRound when CheckpointDir is set.
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
	// RestartBackoff is the base delay before a worker restart, doubled
	// per consecutive restart up to 2s; default 50ms.
	RestartBackoff time.Duration
	// ChaosPanicRate injects a seeded panic into learner iterations with
	// the given probability — a built-in chaos drill for the supervision
	// layer. Zero (the default) injects nothing.
	ChaosPanicRate float64
	// panicHook, when set, is asked before every worker iteration and
	// triggers a panic on true. Deterministic fault injection for tests.
	panicHook func(role string, id int) bool

	// FlightDir is where the supervisor writes flight-recorder dumps —
	// JSON postmortems holding the last lineage events recorded before a
	// worker panic-restart or a run failure (see DESIGN.md "Causal
	// tracing & flight recorder"). Defaults to CheckpointDir; with both
	// empty no dump file is written (the cache mirror under
	// "sys/flight/latest" still is, when tracing is on). Requires
	// Options.Obs — the flight recorder is the lineage store's ring.
	FlightDir string

	// Obs receives the run's metrics (live_* families, cache client
	// events, and — for an in-process server — cache_server_*) and
	// policy-update spans. Families accumulate, so a Registry should
	// observe exactly one run. Nil disables instrumentation. A caller
	// that serves the registry over HTTP owns that endpoint, and so is
	// also the one to announce it to the fleet collector
	// (cache.StartHeartbeat, DESIGN.md §12.1).
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
	if o.DecayD == 0 {
		o.DecayD = 0.96
	}
	if o.SmoothV == 0 {
		o.SmoothV = 3
	}
	if o.Rho == 0 {
		o.Rho = 1.0
	}
	if o.UpdatesPerRound <= 0 {
		o.UpdatesPerRound = 8
	}
	if o.CacheOpTimeout == 0 {
		o.CacheOpTimeout = 5 * time.Second
	}
	if o.CacheAttempts <= 0 {
		o.CacheAttempts = 4
	}
	if o.MaxStaleFallbacks <= 0 {
		o.MaxStaleFallbacks = 50
	}
	if o.Lockstep {
		o.CacheDegradeLatency, o.CacheDegradeWindow, o.CacheHedgeReads = 0, 0, false
		o.CacheBreakerThreshold, o.CacheRetryRate, o.CacheRetryBurst = 0, 0, 0
	}
	if o.CacheRetryRate > 0 && o.CacheRetryBurst <= 0 {
		if o.CacheRetryBurst = int(math.Ceil(o.CacheRetryRate)); o.CacheRetryBurst < 1 {
			o.CacheRetryBurst = 1
		}
	}
	if o.CheckpointDir != "" && o.CheckpointEvery <= 0 {
		o.CheckpointEvery = o.UpdatesPerRound
	}
	if o.FlightDir == "" {
		o.FlightDir = o.CheckpointDir
	}
	if o.RestartBudget <= 0 {
		o.RestartBudget = 8
	}
	if o.RestartBackoff <= 0 {
		o.RestartBackoff = 50 * time.Millisecond
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

	// Resilience counters, aggregated over every cache client the run
	// opened plus the workers' graceful-degradation fallbacks. All stay
	// zero on a healthy cache.
	//
	// CacheRetries/CacheReconnects/CacheTimeouts mirror
	// cache.ClientStats summed across workers.
	CacheRetries    int64
	CacheReconnects int64
	CacheTimeouts   int64
	// StaleWeightReuses counts worker iterations that proceeded on a
	// previously fetched weight vector because the fetch failed.
	StaleWeightReuses int64
	// DroppedPayloads counts trajectories/gradients abandoned on any
	// shed-load path: retry exhaustion, corrupt decode, backpressure,
	// or a learner with no weights. Options.Obs breaks the same events
	// down by reason in live_dropped_payloads_total.
	DroppedPayloads int64
	// ShardFailovers counts shard leaders replaced by their follower
	// (cluster mode only), summed across every worker's sharded client —
	// each client fails over independently, so one dead leader typically
	// shows up here once per worker that hit it.
	ShardFailovers int64
	// WeightRegressions counts head-pointer regressions the delta weight
	// subscribers detected and reset through: after failover onto a
	// follower whose replicated head lagged the dead leader, the policy
	// version can move backwards, and the subscribers re-anchor rather
	// than silently serving an older vector as if it were newer.
	WeightRegressions int64
	// GrayFailovers is the subset of ShardFailovers triggered by the
	// gray-failure detector (alive-but-slow shard) rather than a
	// transport error.
	GrayFailovers int64
	// FencedWrites counts writes refused by a shard holding a newer
	// leadership term than the client's topology view — each one forced
	// a topology refresh before the retry (split-brain protection).
	FencedWrites int64
	// HedgedReads counts reads raced against a suspect shard's follower.
	HedgedReads int64
	// BreakerOpens counts per-shard circuit-breaker closed→open
	// transitions across the run's sharded clients.
	BreakerOpens int64
	// RetryBudgetExhausted counts retries denied by the shared
	// CacheRetryRate token bucket.
	RetryBudgetExhausted int64

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

	if int(r.version.Load()) >= opt.Updates {
		// The checkpoint already covers the requested updates; nothing to
		// train.
		return r.buildReport(), nil
	}
	if opt.Lockstep {
		err = r.runLockstep(loaded)
	} else {
		err = r.runAsync()
	}
	if err != nil {
		return nil, err
	}
	return r.buildReport(), nil
}

// clientPool tracks every cache connection a run opens — single-server
// clients or sharded cluster clients — so their fault-tolerance
// counters can be aggregated into the Report (counters stay readable
// after Close).
type clientPool struct {
	mu      sync.Mutex
	clients []cache.Conn
}

func (p *clientPool) add(c cache.Conn) {
	p.mu.Lock()
	p.clients = append(p.clients, c)
	p.mu.Unlock()
}

func (p *clientPool) stats() cache.ClientStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	var sum cache.ClientStats
	for _, c := range p.clients {
		s := c.Stats()
		sum.Retries += s.Retries
		sum.Reconnects += s.Reconnects
		sum.Timeouts += s.Timeouts
	}
	return sum
}

// shardedStats sums the resilience counters across the run's sharded
// clients; all-zero outside cluster mode. RetryBudgetExhausted is NOT
// summed here — the budget is shared, so it is read once from the run.
func (p *clientPool) shardedStats() cache.ShardedStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	var sum cache.ShardedStats
	for _, c := range p.clients {
		if sc, ok := c.(*cache.ShardedClient); ok {
			s := sc.ShardedStats()
			sum.Failovers += s.Failovers
			sum.GrayFailovers += s.GrayFailovers
			sum.FencedWrites += s.FencedWrites
			sum.HedgedReads += s.HedgedReads
			sum.BreakerOpens += s.BreakerOpens
		}
	}
	return sum
}

// publishWeights stores the run's current weight vector under version:
// through the delta publisher in async mode, as lockstep's single-key
// put otherwise. This is the one stage the two schedules do not share,
// on purpose: every dense publish through WeightsPublisher ships the
// vector twice (delta + snapshot), and routing lockstep through it was
// measured at 66.3 → 46.4 updates/s and 702 → 805 MB on lockstep_fat.
// That doubling is the publisher's to fix (ROADMAP item 1); until then
// lockstep keeps the plain put, and weightView the matching plain get.
func (r *run) publishWeights(version int) error {
	if r.pub != nil {
		return r.pub.Publish(version, r.weights, lineage.Meta{
			ID: lineage.WeightsID(version), Kind: lineage.KindWeights, Origin: "param",
		})
	}
	return putWeights(r.paramCli, version, r.weights)
}

// publishWeightsPersistent retries publishWeights through an extended
// outage, backing off between rounds, until stop is set or the budget
// (16 rounds on top of the client's own per-op retries) runs out.
func (r *run) publishWeightsPersistent(version int) error {
	var err error
	for round := 0; round < 16; round++ {
		if err = r.publishWeights(version); err == nil {
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

// putWeights stores a versioned weight vector under "weights/latest",
// stamped with the synthetic per-version trace identity. The lockstep
// schedule and tests use this single-key path; the async schedule
// publishes delta chains through cache.WeightsPublisher.
func putWeights(c cache.Cache, version int, w []float64) error {
	b, err := cache.EncodeWeights(&cache.WeightsMsg{
		Version: version, Weights: w,
		Trace: lineage.Meta{
			ID: lineage.WeightsID(version), Kind: lineage.KindWeights, Origin: "param",
		},
	})
	if err != nil {
		return err
	}
	err = c.Put(cache.KeyWeightsLatest, b)
	cache.Recycle(b)
	return err
}

// getWeights fetches the latest weights and their version with a plain
// full fetch (no delta reconstruction).
func getWeights(c cache.Cache) ([]float64, int, error) {
	raw, err := c.Get(cache.KeyWeightsLatest)
	if err != nil {
		return nil, 0, err
	}
	msg, err := cache.DecodeWeights(raw)
	if err != nil {
		return nil, 0, err
	}
	return msg.Weights, msg.Version, nil
}
