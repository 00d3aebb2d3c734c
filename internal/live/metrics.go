package live

import (
	"strconv"
	"time"

	"stellaris/internal/obs"
	"stellaris/internal/obs/lineage"
)

// Shed-load drop reasons (the label values of
// live_dropped_payloads_total). Every branch that abandons a trajectory
// or gradient goes through runState.shed with one of these;
// Report.DroppedPayloads is their total.
const (
	dropPutFailed    = "put-failed"    // cache Put exhausted its retries
	dropDecodeFailed = "decode-failed" // payload corrupted in transit/storage
	dropBackpressure = "backpressure"  // downstream queue full, load shed
	dropNoWeights    = "no-weights"    // learner had no weights to train with
	dropGetFailed    = "get-failed"    // cache Get exhausted its retries
)

// Flight-dump triggers (the label values of live_flight_dumps_total).
const (
	flightPanicRestart = "panic-restart" // a supervised worker panicked
	flightFail         = "fail"          // the run failed
)

var (
	dropReasons   = []string{dropPutFailed, dropDecodeFailed, dropBackpressure, dropNoWeights, dropGetFailed}
	flightReasons = []string{flightPanicRestart, flightFail}
)

// liveMetrics is the run's view into an obs registry, and the one store
// of what the Report counts: drops, stale-weight reuses, restarts,
// checkpoint writes, flight dumps and consumed-trajectory lag, and —
// through every run connection dialed with reg — the cache events.
// newRun builds it on Options.Obs, or on a private registry without one.
type liveMetrics struct {
	reg *obs.Registry

	iterSeconds   *obs.HistogramVec // live_iteration_seconds{role,worker}
	queueDepth    *obs.GaugeVec     // live_queue_depth{queue}
	staleness     *obs.Histogram    // live_staleness
	gradStaleness *obs.Histogram    // live_gradient_staleness
	policyLag     *obs.Histogram    // live_actor_policy_lag
	trajLag       *obs.Histogram    // live_trajectory_lag
	drops         *obs.CounterVec   // live_dropped_payloads_total{reason}
	staleReuse    *obs.Counter      // live_stale_weight_reuses_total
	reseeds       *obs.Counter      // live_weight_reseeds_total
	updates       *obs.Counter      // live_updates_total

	// Crash-recovery families.
	restarts         *obs.CounterVec // live_worker_restarts_total{role}
	recoverySeconds  *obs.Histogram  // live_recovery_seconds
	ckptWrites       *obs.Counter    // live_checkpoint_writes_total
	ckptWriteSeconds *obs.Histogram  // live_checkpoint_write_seconds
	ckptLoads        *obs.Counter    // live_checkpoint_loads_total
	ckptEvents       *obs.CounterVec // live_checkpoint_events_total{event}
	flightDumps      *obs.CounterVec // live_flight_dumps_total{reason}
}

// newLiveMetrics registers the run's families on reg (nil: a private
// registry).
func newLiveMetrics(reg *obs.Registry) *liveMetrics {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	m := &liveMetrics{
		reg: reg,
		iterSeconds: reg.HistogramVec("live_iteration_seconds",
			"wall time of one worker loop iteration", obs.LatencyBuckets, "role", "worker"),
		queueDepth: reg.GaugeVec("live_queue_depth",
			"channel occupancy sampled every 20ms", "queue"),
		staleness: reg.Histogram("live_staleness",
			"mean gradient staleness per policy update (versions)", obs.CountBuckets),
		gradStaleness: reg.Histogram("live_gradient_staleness",
			"staleness of each aggregated gradient (versions)", obs.CountBuckets),
		policyLag: reg.Histogram("live_actor_policy_lag",
			"global version minus the version an actor fetched", obs.CountBuckets),
		trajLag: reg.Histogram("live_trajectory_lag",
			"learner's weights version minus the version a consumed trajectory was sampled under", obs.CountBuckets),
		drops: reg.CounterVec("live_dropped_payloads_total",
			"trajectories/gradients shed, by reason", "reason"),
		staleReuse: reg.Counter("live_stale_weight_reuses_total",
			"iterations that reused a stale weight vector after a failed fetch"),
		reseeds: reg.Counter("live_weight_reseeds_total",
			"current weights re-published because a worker found none in the cache"),
		updates: reg.Counter("live_updates_total",
			"policy updates applied"),
		restarts: reg.CounterVec("live_worker_restarts_total",
			"supervisor worker restarts, by role", "role"),
		recoverySeconds: reg.Histogram("live_recovery_seconds",
			"time from worker failure to restarted worker ready", obs.LatencyBuckets),
		ckptWrites: reg.Counter("live_checkpoint_writes_total",
			"checkpoints persisted to the checkpoint directory"),
		ckptWriteSeconds: reg.Histogram("live_checkpoint_write_seconds",
			"checkpoint encode+write+rename latency", obs.LatencyBuckets),
		ckptLoads: reg.Counter("live_checkpoint_loads_total",
			"checkpoints restored at resume"),
		ckptEvents: reg.CounterVec("live_checkpoint_events_total",
			"checkpoint lifecycle events (mirror, mirror-failed, write-failed, mirror-corrupt)", "event"),
		flightDumps: reg.CounterVec("live_flight_dumps_total",
			"flight-recorder postmortem dumps, by trigger (panic-restart, fail)", "reason"),
	}
	// Pre-create the labeled children so every exposition lists them all,
	// zeros included: dashboards can tell "none" from "not instrumented".
	for _, reason := range dropReasons {
		m.drops.With(reason)
	}
	m.restarts.With("actor")
	m.restarts.With("learner")
	return m
}

// total sums a labeled counter family over the given label values.
func total(v *obs.CounterVec, labels []string) int64 {
	var n int64
	for _, l := range labels {
		n += v.With(l).Value()
	}
	return n
}

// iterHist resolves one worker's live_iteration_seconds child. Workers
// call it once at start-up and observe on the result, keeping the label
// lookup off the per-iteration path.
func (m *liveMetrics) iterHist(role string, worker int) *obs.Histogram {
	return m.iterSeconds.With(role, strconv.Itoa(worker))
}

// runState is what every worker shares beyond its own stage: the
// metrics and the lineage store (lin; nil when tracing is off), so the
// shed paths (runState.shed, stage.go) record a drop in both at once,
// and reseed, a worker's request for the weights again (weightView.fetch).
type runState struct {
	m      *liveMetrics
	lin    *lineage.Store
	reseed chan struct{}
}

// sampleQueues polls channel occupancy into live_queue_depth until done
// is closed.
func sampleQueues(m *liveMetrics, done <-chan struct{},
	trajCh chan trajNote, batchCh chan []string, gradCh chan gradNote) {
	traj := m.queueDepth.With("traj")
	batch := m.queueDepth.With("batch")
	grad := m.queueDepth.With("grad")
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-done:
			return
		case <-tick.C:
		}
		traj.Set(float64(len(trajCh)))
		batch.Set(float64(len(batchCh)))
		grad.Set(float64(len(gradCh)))
	}
}
