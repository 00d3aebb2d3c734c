package live

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"stellaris/internal/algo"
	"stellaris/internal/cache"
	"stellaris/internal/cache/cluster"
	"stellaris/internal/ckpt"
	"stellaris/internal/env"
	"stellaris/internal/istrunc"
	"stellaris/internal/obs"
	"stellaris/internal/obs/lineage"
	"stellaris/internal/optim"
	"stellaris/internal/rng"
	"stellaris/internal/stale"
)

// topologyWatchEvery is how often async-mode cluster connections poll
// the shared topology document for promotions other clients published.
const topologyWatchEvery = 250 * time.Millisecond

// run bundles the state shared by a live training run's workers,
// supervisor, and checkpointer. It is built once by newRun, driven by
// runAsync or runLockstep, and summarized by buildReport.
type run struct {
	opt Options
	m   *liveMetrics
	st  *runState

	// lin is the causal-tracing store (nil without Options.Obs); every
	// worker, both cache endpoints, and the supervisor record into it.
	// Its bounded ring doubles as the flight recorder (see flightDump).
	lin       *lineage.Store
	flightSeq atomic.Int64

	srv *cache.Server
	// dial opens one run connection, named for its lineage hops.
	dial     func(name string) (*cache.ShardedClient, error)
	paramCli cache.Conn
	// paramIter is the parameter step's live_iteration_seconds child.
	paramIter *obs.Histogram

	// subs registers every weight subscriber the workers open so their
	// head-regression counters (failover artifacts) can be folded into
	// the Report after the pipeline drains.
	subMu sync.Mutex
	subs  []*cache.WeightsSub

	// pub publishes every new weight vector, then its head.
	pub *cache.WeightsPublisher

	template env.Env
	root     *rng.RNG
	alg      algo.Algorithm
	opti     optim.Optimizer
	tracker  *istrunc.Tracker
	agg      *stale.Stellaris

	// weights is the master parameter vector; owned by the parameter
	// worker (async) or the single pipeline thread (lockstep), as are
	// absorb's gradient receive buffer, its combined-gradient vector and
	// gradVecs: the vectors of gradients whose group has been combined,
	// which the next gradients are decoded into (the aggregator queues
	// the ones not yet combined).
	weights  []float64
	gradBuf  []byte
	combined []float64
	gradVecs [][]float64

	version  atomic.Int64
	episodes atomic.Int64
	retMu    sync.Mutex
	returns  []float64

	// staleSum/staleN accumulate Report.MeanStaleness; owned by the
	// updating thread, read by buildReport after the pipeline drains.
	staleSum float64
	staleN   int

	// halt sets stop, then closes done, once. Loops test the flag and
	// whatever blocks selects on the channel: a halted run waits for
	// its work in flight and for no timer.
	stop  atomic.Bool
	done  chan struct{}
	errCh chan error

	// Rollout admission (runAsync): waiting counts the trajectories
	// admitted and not yet taken by a learner — in progress, in trajCh,
	// with the loader, in batchCh — and idle the learners blocked on
	// batchCh. Both are zero again once a run has drained.
	waiting, idle atomic.Int64

	// Crash-recovery accounting.
	lastCkpt    int64
	resumed     bool
	resumedFrom int64

	start time.Time
}

// newRun performs all setup shared by both pipeline modes: cache server
// or connection, algorithm, optimizer, initial weights, and — when
// Options.Resume is set — checkpoint restore. The returned *ckpt
// checkpoint is non-nil exactly when a checkpoint was applied (lockstep
// resume needs its worker states).
func newRun(opt Options) (*run, *ckpt.Checkpoint, error) {
	m := newLiveMetrics(opt.Obs)
	r := &run{
		opt:       opt,
		m:         m,
		st:        &runState{m: m, reseed: make(chan struct{}, 1)},
		paramIter: m.iterHist("param", 0),
		done:      make(chan struct{}),
		errCh:     make(chan error, opt.Actors+opt.Learners+2),
		start:     time.Now(),
	}

	// Causal tracing rides on the obs registry: the lineage store shares
	// its clock (so SetClock swaps propagate), feeds the lineage_*
	// metric families, and backs /trace.chrome.json via SetTraceSource.
	if opt.Obs != nil {
		r.lin = lineage.New(opt.Obs.Now, lineage.Options{
			Hooks: obs.LineageHooks(opt.Obs, obs.LatencyBuckets),
		})
		r.st.lin = r.lin
		opt.Obs.SetTraceSource(r.lin)
		opt.Obs.SetInfo("config_fingerprint", r.fingerprint().Hash())
		opt.Obs.SetInfo("mode", map[bool]string{true: "lockstep", false: "async"}[opt.Lockstep])
	}

	// Cache: a sharded cluster, or one shard — an external server or an
	// in-process TCP server.
	topo := opt.Cluster
	if topo == nil {
		addr := opt.CacheAddr
		if addr == "" {
			r.srv = cache.NewServer(nil)
			if opt.Obs != nil {
				r.srv.Instrument(opt.Obs)
			}
			r.srv.InstrumentLineage(r.lin)
			var err error
			if addr, err = r.srv.Listen("127.0.0.1:0"); err != nil {
				return nil, nil, err
			}
		}
		topo = &cluster.Topology{Version: 1, Shards: []cluster.Shard{{ID: 0, Addr: addr}}}
	}
	// One connection per worker keeps request streams independent. Every
	// connection shares Options.Cache and records its events into the
	// run's registry, where the Report reads them.
	var dialSeq atomic.Uint64
	r.dial = func(name string) (*cache.ShardedClient, error) {
		dopts := opt.Cache
		dopts.Seed = opt.Seed + dialSeq.Add(1)
		dopts.Obs, dopts.Lineage, dopts.LineageName = m.reg, r.lin, name
		sc, err := cache.DialSharded(topo, dopts)
		if err != nil {
			return nil, err
		}
		// Promotions performed by other workers propagate through the
		// shared topology document. Lockstep keeps the watch off: its
		// wire schedule must stay a pure function of the options, and
		// with one worker there is nobody to learn promotions from.
		if opt.Cluster != nil && !opt.Lockstep {
			sc.StartTopologyWatch(topologyWatchEvery)
		}
		return sc, nil
	}

	template, err := env.NewSized(opt.Env, opt.FrameSize)
	if err != nil {
		r.close()
		return nil, nil, err
	}
	r.template = template
	r.root = rng.New(opt.Seed)
	continuous := template.ActionSpace().Continuous
	if opt.Algo == "impact" {
		r.alg = algo.NewIMPACT(continuous)
	} else {
		r.alg = algo.NewPPO(continuous)
	}
	master := algo.NewModelHidden(template, opt.Hidden, opt.Seed)
	r.weights = master.WeightSlab()

	r.opti, err = optim.New(r.alg.Hyper().Optimizer, r.alg.Hyper().LearningRate)
	if err != nil {
		r.close()
		return nil, nil, err
	}
	if opt.LearningRate > 0 {
		r.opti.SetLR(opt.LearningRate)
	}
	r.tracker = istrunc.New(opt.Rho, true)
	r.agg = stale.NewStellaris()
	r.agg.D, r.agg.V = opt.DecayD, opt.SmoothV
	r.agg.UpdatesPerRound = opt.UpdatesPerRound
	r.agg.MaxQueue = 4 * opt.Learners

	paramCli, err := r.dial("param")
	if err != nil {
		r.close()
		return nil, nil, err
	}
	r.paramCli = paramCli
	r.pub = &cache.WeightsPublisher{C: r.paramCli}

	var loaded *ckpt.Checkpoint
	if opt.Resume {
		loaded, err = r.loadCheckpoint()
		if err != nil {
			r.close()
			return nil, nil, err
		}
		if loaded != nil {
			if err := r.applyCheckpoint(loaded); err != nil {
				r.close()
				return nil, nil, err
			}
		}
	}

	r.recordWeightsProduced(int(r.version.Load()), nil)
	if err := r.publishWeights(int(r.version.Load())); err != nil {
		r.close()
		return nil, nil, err
	}

	return r, loaded, nil
}

// close releases the run's own resources (the parameter client and the
// in-process server). Worker clients close with their goroutines.
func (r *run) close() {
	if r.paramCli != nil {
		_ = r.paramCli.Close()
	}
	if r.srv != nil {
		_ = r.srv.Close()
	}
}

// fail records a fatal worker error AND stops the pipeline: without the
// stop, Train would wait forever on a parameter worker whose feeders
// have all died (e.g. the cache going away permanently). The first fail
// also takes a flight-recorder dump so the postmortem ships with the
// events that preceded it.
func (r *run) fail(err error) {
	select {
	case r.errCh <- err:
	default:
	}
	if r.halt() {
		r.flightDump(flightFail)
	}
}

// halt stops the pipeline and reports whether this call was the one
// that did.
func (r *run) halt() bool {
	if r.stop.Swap(true) {
		return false
	}
	close(r.done)
	return true
}

// trackSub registers a weight subscriber for the Report's
// regression accounting and returns it, so creation sites stay
// one-liners.
func (r *run) trackSub(s *cache.WeightsSub) *cache.WeightsSub {
	r.subMu.Lock()
	r.subs = append(r.subs, s)
	r.subMu.Unlock()
	return s
}

// subRegressions sums head-pointer regressions across every registered
// subscriber. Called after the pipeline drains, when the owning workers
// have stopped.
func (r *run) subRegressions() int64 {
	r.subMu.Lock()
	defer r.subMu.Unlock()
	var n int64
	for _, s := range r.subs {
		n += s.Stats().Regressions
	}
	return n
}

// noteEpisode folds one finished episode's return into the report state.
func (r *run) noteEpisode(ret float64) {
	r.episodes.Add(1)
	r.retMu.Lock()
	r.returns = append(r.returns, ret)
	if len(r.returns) > 256 {
		r.returns = r.returns[len(r.returns)-256:]
	}
	r.retMu.Unlock()
}

// fingerprint derives the configuration identity embedded in (and
// validated against) checkpoints.
func (r *run) fingerprint() ckpt.Fingerprint {
	o := r.opt
	return ckpt.Fingerprint{
		Env: o.Env, Algo: o.Algo,
		Hidden: o.Hidden, FrameSize: o.FrameSize,
		Actors: o.Actors, Learners: o.Learners,
		ActorSteps: o.ActorSteps, BatchSize: o.BatchSize,
		UpdatesPerRound: o.UpdatesPerRound, SmoothV: o.SmoothV,
		Seed:   o.Seed,
		DecayD: o.DecayD, Rho: o.Rho, LearningRate: o.LearningRate,
	}
}

// ckptEnabled reports whether this run writes checkpoints.
func (r *run) ckptEnabled() bool { return r.opt.CheckpointDir != "" }

// buildCheckpoint captures the current training state. Callers own the
// weights/optimizer/aggregator at capture time (the parameter worker in
// async mode, the pipeline thread in lockstep mode). actors/learners
// carry per-worker replay state and are nil in async mode.
func (r *run) buildCheckpoint(mode ckpt.Mode, actors, learners []ckpt.WorkerState) *ckpt.Checkpoint {
	v := r.version.Load()
	aggSt := r.agg.ExportState()
	trSt := r.tracker.ExportState()
	c := &ckpt.Checkpoint{
		Mode:       mode,
		Fp:         r.fingerprint(),
		Version:    v,
		Round:      v / int64(r.opt.UpdatesPerRound),
		Weights:    append([]float64(nil), r.weights...),
		Opt:        r.opti.State(),
		DeltaMax:   aggSt.DeltaMax,
		StaleSum:   r.staleSum,
		StaleN:     int64(r.staleN),
		GroupMin:   trSt.GroupMin,
		GroupCount: int64(trSt.Count),
		Episodes:   r.episodes.Load(),
		Actors:     actors,
		Learners:   learners,
	}
	for _, e := range aggSt.Queue {
		c.Queue = append(c.Queue, ckpt.QueuedGrad{
			LearnerID:   e.LearnerID,
			BornVersion: e.BornVersion,
			Samples:     e.Samples,
			MeanRatio:   e.MeanRatio,
			KL:          e.KL,
			Grad:        e.Grad,
		})
	}
	r.retMu.Lock()
	c.Returns = append([]float64(nil), r.returns...)
	r.retMu.Unlock()
	return c
}

// writeCheckpoint persists c to the checkpoint directory and mirrors it
// into the cache under ckpt.CacheKey. Failures are reported through the
// checkpoint-event counters but never abort training: a run that cannot
// checkpoint is still a run worth finishing.
func (r *run) writeCheckpoint(c *ckpt.Checkpoint) {
	start := time.Now()
	if _, err := ckpt.WriteDir(r.opt.CheckpointDir, c); err != nil {
		r.m.ckptEvents.With("write-failed").Inc()
	} else {
		r.m.ckptWrites.Inc()
		r.m.ckptWriteSeconds.Observe(time.Since(start).Seconds())
	}
	if err := r.paramCli.Put(ckpt.CacheKey, ckpt.Encode(c)); err != nil {
		r.m.ckptEvents.With("mirror-failed").Inc()
	} else {
		r.m.ckptEvents.With("mirror").Inc()
	}
}

// loadCheckpoint finds the newest resumable checkpoint: the checkpoint
// directory first (skipping corrupt generations), then the cache mirror
// — which covers the fresh-container case where the local disk is gone
// but the cache survived. A nil return with nil error means "no
// checkpoint anywhere, start fresh".
func (r *run) loadCheckpoint() (*ckpt.Checkpoint, error) {
	if r.opt.CheckpointDir != "" {
		c, _, err := ckpt.LoadLatest(r.opt.CheckpointDir)
		if err == nil {
			return c, nil
		}
		if !errors.Is(err, ckpt.ErrNoCheckpoint) {
			return nil, err
		}
	}
	raw, err := r.paramCli.Get(ckpt.CacheKey)
	if err != nil {
		var nf cache.ErrNotFound
		if errors.As(err, &nf) {
			return nil, nil
		}
		return nil, fmt.Errorf("live: reading checkpoint mirror: %w", err)
	}
	c, err := ckpt.Decode(raw)
	if err != nil {
		// A corrupt mirror must not block a fresh start: the disk path
		// already missed, so treat the mirror as absent.
		r.m.ckptEvents.With("mirror-corrupt").Inc()
		return nil, nil
	}
	return c, nil
}

// applyCheckpoint restores the run's training state from c, after
// validating that the checkpoint belongs to this configuration and
// pipeline mode.
func (r *run) applyCheckpoint(c *ckpt.Checkpoint) error {
	if err := c.Fp.Validate(r.fingerprint()); err != nil {
		return err
	}
	if r.opt.Lockstep && c.Mode != ckpt.ModeLockstep {
		return fmt.Errorf("live: cannot resume a %v checkpoint in lockstep mode (worker states missing)", c.Mode)
	}
	if len(c.Weights) != len(r.weights) {
		return fmt.Errorf("live: checkpoint has %d weights, model has %d", len(c.Weights), len(r.weights))
	}
	if err := r.opti.Restore(c.Opt); err != nil {
		return fmt.Errorf("live: restoring optimizer: %w", err)
	}
	copy(r.weights, c.Weights)
	r.version.Store(c.Version)
	st := stale.StellarisState{DeltaMax: c.DeltaMax}
	for i := range c.Queue {
		q := c.Queue[i]
		st.Queue = append(st.Queue, &stale.Entry{
			LearnerID:   q.LearnerID,
			BornVersion: q.BornVersion,
			Grad:        q.Grad,
			Samples:     q.Samples,
			MeanRatio:   q.MeanRatio,
			KL:          q.KL,
		})
	}
	r.agg.RestoreState(st)
	r.tracker.RestoreState(istrunc.TrackerState{GroupMin: c.GroupMin, Count: int(c.GroupCount)})
	r.staleSum, r.staleN = c.StaleSum, int(c.StaleN)
	r.episodes.Store(c.Episodes)
	r.returns = append([]float64(nil), c.Returns...)
	r.lastCkpt = c.Version
	r.resumed = true
	r.resumedFrom = c.Version
	r.m.ckptLoads.Inc()
	return nil
}

// buildReport assembles the run summary after the pipeline has drained.
// Its event counts are read from the run's metrics, whichever registry
// holds them.
func (r *run) buildReport() *Report {
	m := r.m
	cs := cache.RegistryStats(m.reg)
	rep := &Report{
		Updates:            int(r.version.Load()),
		Episodes:           int(r.episodes.Load()),
		Elapsed:            time.Since(r.start),
		FinalWeights:       r.weights,
		CacheRetries:       cs.Retries,
		CacheReconnects:    cs.Reconnects,
		CacheTimeouts:      cs.Timeouts,
		ShardFailovers:     cs.Failovers,
		FencedWrites:       cs.FencedWrites,
		StaleWeightReuses:  m.staleReuse.Value(),
		DroppedPayloads:    total(m.drops, dropReasons),
		WeightRegressions:  r.subRegressions(),
		ActorRestarts:      m.restarts.With("actor").Value(),
		LearnerRestarts:    m.restarts.With("learner").Value(),
		CheckpointsWritten: m.ckptWrites.Value(),
		FlightDumps:        total(m.flightDumps, flightReasons),
		Resumed:            r.resumed,
		ResumedFromVersion: int(r.resumedFrom),
	}
	if r.lin != nil {
		ls := r.lin.Stats()
		rep.TraceEvents = ls.Events
		rep.MaxLineageDepth = ls.MaxDepth
		rep.Lineage = r.lin
	}
	if r.opt.Obs != nil {
		rep.Obs = r.opt.Obs.Snapshot()
	}
	if r.staleN > 0 {
		rep.MeanStaleness = r.staleSum / float64(r.staleN)
	}
	if n := m.trajLag.Count(); n > 0 {
		// The lags are integers, so the float sum is exact: the same bits
		// as an integer sum.
		rep.MeanTrajectoryLag = m.trajLag.Sum() / float64(n)
	}
	r.retMu.Lock()
	if len(r.returns) > 0 {
		var s float64
		for _, ret := range r.returns {
			s += ret
		}
		rep.MeanReturn = s / float64(len(r.returns))
	}
	r.retMu.Unlock()
	return rep
}
