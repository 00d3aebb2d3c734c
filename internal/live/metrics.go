package live

import (
	"strconv"
	"sync/atomic"
	"time"

	"stellaris/internal/obs"
	"stellaris/internal/obs/lineage"
)

// Shed-load drop reasons (the label values of
// live_dropped_payloads_total). Every branch that abandons a trajectory
// or gradient must go through runState.shed with one of these so the
// aggregate Report.DroppedPayloads and the per-reason counters agree.
const (
	dropPutFailed    = "put-failed"    // cache Put exhausted its retries
	dropDecodeFailed = "decode-failed" // payload corrupted in transit/storage
	dropBackpressure = "backpressure"  // downstream queue full, load shed
	dropNoWeights    = "no-weights"    // learner had no weights to train with
	dropGetFailed    = "get-failed"    // cache Get exhausted its retries
)

// liveMetrics is the run's view into an obs registry. A nil *liveMetrics
// is valid and disables every method, so un-instrumented runs pay only a
// nil check on the hot paths.
type liveMetrics struct {
	iterSeconds   *obs.HistogramVec // live_iteration_seconds{role,worker}
	queueDepth    *obs.GaugeVec     // live_queue_depth{queue}
	staleness     *obs.Histogram    // live_staleness
	gradStaleness *obs.Histogram    // live_gradient_staleness
	policyLag     *obs.Histogram    // live_actor_policy_lag
	trajLag       *obs.Histogram    // live_trajectory_lag
	drops         *obs.CounterVec   // live_dropped_payloads_total{reason}
	staleReuse    *obs.Counter      // live_stale_weight_reuses_total
	updates       *obs.Counter      // live_updates_total
	tracer        *obs.Tracer

	// Crash-recovery families.
	restarts         *obs.CounterVec // live_worker_restarts_total{role}
	recoverySeconds  *obs.Histogram  // live_recovery_seconds
	ckptWrites       *obs.Counter    // live_checkpoint_writes_total
	ckptWriteSeconds *obs.Histogram  // live_checkpoint_write_seconds
	ckptLoads        *obs.Counter    // live_checkpoint_loads_total
	ckptEvents       *obs.CounterVec // live_checkpoint_events_total{event}
	flightDumps      *obs.CounterVec // live_flight_dumps_total{reason}
}

func newLiveMetrics(reg *obs.Registry) *liveMetrics {
	if reg == nil {
		return nil
	}
	m := &liveMetrics{
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
		updates: reg.Counter("live_updates_total",
			"policy updates applied"),
		tracer: reg.Tracer(),
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
	// Pre-create the reason children so every exposition shows all five
	// counters (zero included) — dashboards can tell "no drops" from
	// "not instrumented". Same for the supervisor's two roles.
	for _, reason := range []string{dropPutFailed, dropDecodeFailed, dropBackpressure, dropNoWeights, dropGetFailed} {
		m.drops.With(reason)
	}
	m.restarts.With("actor")
	m.restarts.With("learner")
	return m
}

// iterHist resolves one worker's live_iteration_seconds child. Workers
// call it once at start-up and observe on the result, keeping the label
// lookup off the per-iteration path; nil when the run is un-instrumented.
func (m *liveMetrics) iterHist(role string, worker int) *obs.Histogram {
	if m == nil {
		return nil
	}
	return m.iterSeconds.With(role, strconv.Itoa(worker))
}

// runState bundles the counters every worker shares. It exists so the
// shed paths (runState.shed, stage.go) count drops exactly once in the
// Report aggregate, the labeled registry family and the lineage store
// (lin; nil when tracing is off).
type runState struct {
	staleReuses  atomic.Int64
	dropped      atomic.Int64
	lagSum, lagN atomic.Int64 // Report.MeanTrajectoryLag, summed by the learners
	m            *liveMetrics
	lin          *lineage.Store
}

// drop records one shed payload under reason.
func (s *runState) drop(reason string) {
	s.dropped.Add(1)
	if s.m != nil {
		s.m.drops.With(reason).Inc()
	}
}

// staleReuse records one iteration that fell back to stale weights.
func (s *runState) staleReuse() {
	s.staleReuses.Add(1)
	if s.m != nil {
		s.m.staleReuse.Inc()
	}
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
