package core

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"

	"stellaris/internal/algo"
	"stellaris/internal/autoscale"
	"stellaris/internal/env"
	"stellaris/internal/istrunc"
	"stellaris/internal/metrics"
	"stellaris/internal/obs"
	"stellaris/internal/obs/lineage"
	"stellaris/internal/profile"
	"stellaris/internal/replay"
	"stellaris/internal/rng"
	"stellaris/internal/serverless"
	"stellaris/internal/simclock"
	"stellaris/internal/stale"
	"stellaris/internal/tensor"

	"stellaris/internal/optim"
)

// Latency-breakdown component names (Fig. 14).
const (
	CompActorSample = "actor_sample"
	CompPolicyPull  = "policy_pull"
	CompDataLoad    = "data_load"
	CompGradCompute = "grad_compute"
	CompGradSubmit  = "grad_submit"
	CompAggregate   = "aggregate"
	CompBroadcast   = "broadcast"
)

// BreakdownComponents lists the Fig. 14 components in reporting order.
var BreakdownComponents = []string{
	CompActorSample, CompPolicyPull, CompDataLoad,
	CompGradCompute, CompGradSubmit, CompAggregate, CompBroadcast,
}

// Result is the output of one training run.
type Result struct {
	Config Config
	// Rounds holds the per-round CSV rows (artifact schema).
	Rounds *metrics.Recorder
	// Staleness is the distribution of gradient staleness at
	// aggregation (Fig. 3b).
	Staleness *metrics.Histogram
	// KLTrace is KL(π_{k+1} ‖ π_k) per update when TrackKL is set
	// (Fig. 3c).
	KLTrace []float64
	// FinalReward is the mean reward over the last rounds (training
	// quality, the paper's headline metric).
	FinalReward float64
	// TotalCostUSD is the training cost under the paper's model.
	TotalCostUSD float64
	// WallSec is elapsed virtual time.
	WallSec float64
	// LearnerUtilization is the busy fraction of learner slots
	// (Fig. 3a's GPU utilization).
	LearnerUtilization float64
	// LearnerTime is total virtual time spent inside learner functions
	// (Fig. 3a's total learning time).
	LearnerTime float64
	// Breakdown is per-component latency (Fig. 14).
	Breakdown *metrics.Breakdown
	// Episodes is the number of completed episodes.
	Episodes int
	// LearnerInvocations counts learner function executions.
	LearnerInvocations int
	// ColdStarts counts cold container starts across pools.
	ColdStarts int
	// Profile summarizes per-function-kind execution statistics
	// collected by the §VII profiler.
	Profile []profile.Summary
	// FinalWeights is the trained policy+critic weight vector, loadable
	// via Config.InitWeights or evaluated with Evaluate.
	FinalWeights []float64
	// Obs is a final snapshot of Config.Obs taken when the run finished;
	// nil when no registry was supplied. Timestamps are virtual seconds.
	Obs *obs.Snapshot
	// Lineage is the run's causal-trace store (virtual-clock timestamps,
	// per-invocation dollar costs attached); nil without Config.Obs.
	Lineage *lineage.Store
}

type pendingBatch struct {
	batch *replay.Batch
	srcs  []string // trace IDs of the batched trajectories
}

// burst is one actor sampling burst running as a future.
type burst struct {
	done chan struct{}      // closed once traj is set
	traj *replay.Trajectory // read only after <-done
}

// Trainer runs one configuration to completion on a private DES. One
// goroutine — the caller of Run — owns every piece of DES state: clock,
// platform, tracker, aggregator, lineage, recorder, master weights and
// all RNG parents. The real math of a learner function or a sampling
// burst is pure compute, so it runs beside the event loop as a future
// (see start) and is joined when that invocation's virtual-time
// completion event fires. The outputs cannot depend on how the futures
// are scheduled: a future reads only what was fixed when it was
// dispatched (its replica's weights, its private batch or its actor's
// env/RNG/episode, its own RNG, the Truncation and Extra values), every
// join sits at a virtual-time event, and finished episodes are recorded
// in dispatch order (settleEpisodes), not in completion order.
type Trainer struct {
	cfg   Config
	clock *simclock.Clock
	plat  *serverless.Platform
	lat   *serverless.LatencyModel

	alg algo.Algorithm
	// Replica pool: a future takes a model for as long as it computes.
	// Replicas are built on demand, at most cap(idle) of them (GOMAXPROCS
	// at construction); with all of them busy the event loop waits for
	// one, which is the only back-pressure on the futures.
	newModel func() *algo.Model
	idle     chan *algo.Model
	built    int
	inflight sync.WaitGroup // every future started and not yet finished
	bursts   []*burst       // sampling bursts whose episodes are unrecorded, dispatch order
	kl       *algo.Model    // the event loop's own model for the KL probe (TrackKL only)

	master []float64
	// target is IMPACT's surrogate target network. In-flight learners
	// read the slice they were dispatched with, so a refresh replaces
	// the slice and never writes into it.
	target  []float64
	opt     optim.Optimizer
	aggPol  stale.Policy
	tracker *istrunc.Tracker
	version int

	envs       []env.Env
	actorRngs  []*rng.RNG
	actorEp    []algo.Episode
	learnerRng *rng.RNG
	timeRng    *rng.RNG

	activeActors int
	parked       []int

	recent   []float64 // ring of recent episode returns
	recentAt int
	recentN  int
	episodes int

	pendingTraj  []*replay.Trajectory
	pendingSteps int
	outstanding  map[int]int
	gated        []pendingBatch
	waiting      []int
	learnerSeq   int

	roundStart    float64
	invokedRound  int
	roundStaleSum float64
	roundUpdates  int
	learnerTime   float64

	rec       *metrics.Recorder
	hist      *metrics.Histogram
	breakdown *metrics.Breakdown
	m         *coreMetrics
	lin       *lineage.Store
	trajSeq   []int
	klTrace   []float64
	probe     [][]float64
	prof      *profile.Set

	batchSize   int
	trajBytes   int // wire size of one sampling burst's trajectory
	targetEvery int
	klCoef      float64 // adaptive KL coefficient (RLlib-style)
	done        bool
	runErr      error
}

// NewTrainer validates cfg and assembles a trainer.
func NewTrainer(cfg Config) (*Trainer, error) {
	cfg, err := cfg.Normalize()
	if err != nil {
		return nil, err
	}
	t := &Trainer{
		cfg:         cfg,
		clock:       simclock.New(),
		outstanding: make(map[int]int),
		rec:         metrics.NewRecorder(),
		hist:        metrics.NewHistogram(),
		breakdown:   metrics.NewBreakdown(BreakdownComponents...),
		prof:        profile.NewSet(),
		lat:         serverless.DefaultLatencyModel(),
	}

	// Environments: one per actor plus one template for model shapes.
	template, err := env.NewSized(cfg.Env, cfg.FrameSize)
	if err != nil {
		return nil, err
	}
	root := rng.New(cfg.Seed)
	t.envs = make([]env.Env, cfg.NumActors)
	t.actorRngs = make([]*rng.RNG, cfg.NumActors)
	t.actorEp = make([]algo.Episode, cfg.NumActors)
	for i := range t.envs {
		e, err := env.NewSized(cfg.Env, cfg.FrameSize)
		if err != nil {
			return nil, err
		}
		t.envs[i] = e
		t.actorRngs[i] = root.Split(uint64(1000 + i))
	}
	t.learnerRng = root.Split(2)
	t.timeRng = root.Split(3)

	// Algorithm and model.
	continuous := template.ActionSpace().Continuous
	switch cfg.Algo {
	case "ppo":
		t.alg = algo.NewPPO(continuous)
	case "impact":
		t.alg = algo.NewIMPACT(continuous)
	}
	t.newModel = func() *algo.Model { return algo.NewModelHidden(template, cfg.Hidden, cfg.Seed) }
	t.idle = make(chan *algo.Model, runtime.GOMAXPROCS(0))
	first := t.newModel()
	t.idle <- first
	t.built = 1
	t.master = first.Weights()
	// Sized from shapes: the submit latency is drawn when a burst is
	// dispatched, before its trajectory exists. Per step: observation,
	// action, behaviour distribution row, reward and log-probability.
	actionDim := 1
	if as := template.ActionSpace(); as.Continuous {
		actionDim = as.Dim
	}
	t.trajBytes = 8 * (template.ObsDim() + actionDim + first.Dist.ParamDim() + 2) * cfg.ActorSteps
	if cfg.InitWeights != nil {
		if len(cfg.InitWeights) != len(t.master) {
			return nil, fmt.Errorf("core: InitWeights length %d != model's %d",
				len(cfg.InitWeights), len(t.master))
		}
		copy(t.master, cfg.InitWeights)
	}
	if t.alg.NeedsTarget() {
		t.target = append([]float64(nil), t.master...)
		f := t.alg.Hyper().TargetUpdateFreq
		if f <= 0 {
			f = 1
		}
		t.targetEvery = int(math.Max(1, math.Round(1/f)))
	}
	t.opt, err = optim.New(t.alg.Hyper().Optimizer, t.alg.Hyper().LearningRate)
	if err != nil {
		return nil, err
	}
	if cfg.LearningRate > 0 {
		t.opt.SetLR(cfg.LearningRate)
	}
	t.klCoef = t.alg.Hyper().KLCoeff
	t.batchSize = cfg.BatchSize
	if t.batchSize <= 0 {
		t.batchSize = t.alg.Hyper().BatchSize
	}

	// Aggregation policy and truncation tracker.
	switch cfg.Aggregator {
	case AggStellaris:
		s := stale.NewStellaris()
		s.D, s.V = cfg.DecayD, cfg.SmoothV
		s.UpdatesPerRound = cfg.UpdatesPerRound
		s.MaxQueue = stale.Backstop(cfg.LearnerSlots())
		t.aggPol = s
	case AggSoftsync:
		t.aggPol = stale.NewSoftsync(cfg.LearnerSlots())
	case AggSSP:
		t.aggPol = stale.NewSSP(sspBound)
	case AggAsync:
		t.aggPol = stale.NewPureAsync()
	case AggSync:
		group := cfg.SyncGroup
		if cfg.SyncActors {
			// Synchronous actors emit a fixed number of batches per
			// wave; a larger barrier would deadlock the round.
			perWave := cfg.NumActors * cfg.ActorSteps / t.batchSize
			if perWave < 1 {
				perWave = 1
			}
			if group > perWave {
				group = perWave
			}
		}
		t.aggPol = stale.NewFullSync(group)
	}
	t.tracker = istrunc.New(cfg.Rho, !cfg.DisableTruncation)

	// Platform pools sized to the testbed (§VIII-A).
	learnerInst, actorInst := serverless.P32xlarge, serverless.C6a32xlarge
	if cfg.HPC {
		learnerInst, actorInst = serverless.P316xlarge, serverless.Hpc7a96xlarge
	}
	learnerVMs := ceilDiv(cfg.GPUs, learnerInst.GPUs)
	actorVMs := ceilDiv(cfg.NumActors, actorInst.CPUCores)
	t.plat = serverless.NewPlatform(t.clock, t.lat, cfg.Seed^0x5e77a215,
		serverless.PoolConfig{
			Kind:             "learner",
			Instance:         learnerInst,
			Instances:        learnerVMs,
			SlotsPerInstance: cfg.LearnersPerGPU * learnerInst.GPUs,
			Serverless:       cfg.ServerlessLearners,
		},
		serverless.PoolConfig{
			Kind:             "parameter",
			Instance:         learnerInst,
			Instances:        1,
			SlotsPerInstance: max(2, learnerInst.GPUs),
			Serverless:       true,
		},
		serverless.PoolConfig{
			Kind:             "actor",
			Instance:         actorInst,
			Instances:        actorVMs,
			SlotsPerInstance: actorInst.CPUCores,
			Serverless:       cfg.ServerlessActors,
		},
	)

	if cfg.Obs != nil {
		// The registry follows the virtual clock for the rest of the run:
		// snapshot timestamps and trace spans read in virtual seconds.
		cfg.Obs.SetClock(t.clock.Now)
		t.m = newCoreMetrics(cfg.Obs)
		t.plat.Instrument(cfg.Obs)
		// Causal tracing rides the same virtual clock, so trace
		// timestamps line up with every other DES observation.
		t.lin = lineage.New(cfg.Obs.Now, lineage.Options{
			Hooks: obs.LineageHooks(cfg.Obs, obs.VirtualBuckets),
		})
		cfg.Obs.SetTraceSource(t.lin)
		cfg.Obs.SetInfo("mode", "des")
	}
	t.trajSeq = make([]int, cfg.NumActors)

	// KL probe states (Fig. 3c) from a short random rollout.
	if cfg.TrackKL {
		t.kl = t.newModel()
		pr := root.Split(4)
		e, _ := env.NewSized(cfg.Env, cfg.FrameSize)
		obs := e.Reset(pr)
		for i := 0; i < 16; i++ {
			t.probe = append(t.probe, obs)
			var a []float64
			if as := e.ActionSpace(); as.Continuous {
				a = make([]float64, as.Dim)
				for j := range a {
					a[j] = 2*pr.Float64() - 1
				}
			} else {
				a = []float64{float64(pr.Intn(as.N))}
			}
			next, _, done := e.Step(a)
			if done {
				next = e.Reset(pr)
			}
			obs = next
		}
	}
	return t, nil
}

func ceilDiv(a, b int) int {
	if b <= 0 {
		b = 1
	}
	return (a + b - 1) / b
}

// Run executes the configured training and returns its result.
func (t *Trainer) Run() (*Result, error) {
	// No future outlives Run, whichever way it returns.
	defer t.inflight.Wait()
	// Publish the initial policy and pre-warm containers (§VII).
	t.publishWeights(0)
	t.plat.Prewarm("learner", t.cfg.LearnerSlots())
	t.plat.Prewarm("parameter", 1)
	if t.cfg.ServerlessActors {
		t.plat.Prewarm("actor", t.cfg.NumActors)
	}

	t.activeActors = t.cfg.NumActors
	for id := 0; id < t.activeActors; id++ {
		t.scheduleActor(id)
	}
	deadline := t.cfg.maxVirtualHours * 3600
	t.clock.RunUntil(deadline)
	if t.runErr != nil {
		return nil, t.runErr
	}
	if !t.done {
		if t.clock.Pending() == 0 {
			return nil, fmt.Errorf("core: training stalled at round %d/%d (aggregator %q waiting for work that cannot arrive)",
				t.version, t.cfg.Rounds, t.aggPol.Name())
		}
		return nil, fmt.Errorf("core: exceeded %v virtual hours at round %d/%d",
			t.cfg.maxVirtualHours, t.version, t.cfg.Rounds)
	}

	t.settleEpisodes()
	learnerStats := t.plat.PoolStats("learner")
	res := &Result{
		Config:             t.cfg,
		Rounds:             t.rec,
		Staleness:          t.hist,
		KLTrace:            t.klTrace,
		FinalReward:        t.rec.FinalReward(5),
		TotalCostUSD:       t.plat.TotalCost(),
		WallSec:            t.clock.Now(),
		LearnerUtilization: learnerStats.Utilization,
		LearnerTime:        t.learnerTime,
		Breakdown:          t.breakdown,
		Episodes:           t.episodes,
		LearnerInvocations: learnerStats.Invocations,
		ColdStarts:         learnerStats.ColdStarts,
	}
	res.Profile = t.prof.Summaries()
	res.FinalWeights = append([]float64(nil), t.master...)
	if t.cfg.Obs != nil {
		res.Obs = t.cfg.Obs.Snapshot()
		res.Lineage = t.lin
	}
	for _, kind := range t.plat.Kinds() {
		if kind != "learner" {
			s := t.plat.PoolStats(kind)
			res.ColdStarts += s.ColdStarts
		}
	}
	return res, nil
}

// publishWeights records the birth of the current policy version and its
// put (the paper's Redis hop, which the DES charges as latency and does
// not perform). costUSD is the parameter invocation's bill attributed to
// the new version's birth (zero for the initial, un-invoked publish).
func (t *Trainer) publishWeights(costUSD float64) {
	wid := lineage.WeightsID(t.version)
	t.lin.Record(lineage.Event{
		Trace: wid, Kind: lineage.KindWeights, Hop: lineage.HopProduced,
		Actor: "parameter", CostUSD: costUSD,
	})
	t.lin.Record(lineage.Event{
		Trace: wid, Kind: lineage.KindWeights, Hop: lineage.HopPut, Actor: "parameter",
	})
}

func (t *Trainer) fail(err error) {
	if t.runErr == nil {
		t.runErr = err
	}
	t.done = true
	t.clock.Stop()
}

// ---- Compute futures ----

// start runs compute on its own goroutine, on a pool replica loaded with
// the current master weights, and returns the channel that is closed
// when compute has returned and the replica is back in the pool. The
// real math happens there; the DES charges its modeled duration
// separately. compute must touch nothing the event loop can still
// write. When the replica rejects the master weights the run fails and
// start returns nil.
func (t *Trainer) start(compute func(m *algo.Model)) (done chan struct{}) {
	m := t.takeReplica()
	if err := m.SetWeights(t.master); err != nil {
		t.idle <- m
		t.fail(err)
		return nil
	}
	done = make(chan struct{})
	t.inflight.Add(1)
	go func() {
		defer t.inflight.Done()
		compute(m)
		t.idle <- m
		close(done)
	}()
	return done
}

// takeReplica returns an idle replica, building one while the pool is
// below its size and otherwise waiting for a future to finish.
func (t *Trainer) takeReplica() *algo.Model {
	select {
	case m := <-t.idle:
		return m
	default:
	}
	if t.built < cap(t.idle) {
		t.built++
		return t.newModel()
	}
	return <-t.idle
}

// settleEpisodes joins every sampling burst dispatched so far and
// records its finished episodes, burst by burst in dispatch order —
// the order an eager rollout at dispatch would have recorded them in.
// It runs before every read of the episode count or the reward window.
func (t *Trainer) settleEpisodes() {
	for i, b := range t.bursts {
		<-b.done
		for _, ret := range b.traj.EpisodeReturns {
			t.recordEpisode(ret)
		}
		t.bursts[i] = nil
	}
	t.bursts = t.bursts[:0]
}

// ---- Actors (workflow step 1) ----

// scheduleActor starts one sampling burst for actor id: pull the latest
// policy, collect ActorSteps transitions, submit the trajectory. The
// environment interaction runs as a future under the master policy of
// this moment; actor id's env, RNG and episode belong to that future
// until it is joined, and every path that schedules id again joins it
// first.
func (t *Trainer) scheduleActor(id int) {
	if t.done {
		return
	}
	pulled := t.version
	b := &burst{}
	e, r, ep := t.envs[id], t.actorRngs[id], &t.actorEp[id]
	b.done = t.start(func(m *algo.Model) {
		b.traj = m.Rollout(e, r, ep, t.cfg.ActorSteps, nil)
	})
	if b.done == nil {
		return
	}
	t.bursts = append(t.bursts, b)
	tid := fmt.Sprintf("traj/%d/%d", id, t.trajSeq[id])
	t.trajSeq[id]++
	aname := fmt.Sprintf("actor/%d", id)

	params := len(t.master)
	pull := t.lat.TransferTime(8*params, t.timeRng)
	sample := t.lat.ActorTime(t.cfg.ActorSteps, params, t.timeRng)
	submit := t.lat.TransferTime(t.trajBytes, t.timeRng)
	t.observe(CompPolicyPull, pull)
	t.observe(CompActorSample, sample)
	t.observe(CompDataLoad, submit)
	t.prof.For("actor").Observe(pull+sample+submit, t.clock.Now())

	t.plat.InvokeFixed("actor", pull+sample+submit, func(inv serverless.Invocation) {
		if t.done {
			return
		}
		<-b.done
		traj := b.traj
		traj.ActorID, traj.PolicyVersion = id, pulled
		traj.Trace = lineage.Meta{
			ID: tid, Kind: lineage.KindTrajectory,
			Origin: aname, Parent: lineage.WeightsID(pulled),
		}
		t.lin.Record(lineage.Event{
			Trace: tid, Kind: lineage.KindTrajectory, Hop: lineage.HopProduced,
			Actor: aname, Ref: lineage.WeightsID(pulled), CostUSD: inv.CostUSD,
		})
		t.lin.Record(lineage.Event{
			Trace: tid, Kind: lineage.KindTrajectory, Hop: lineage.HopPut, Actor: aname,
		})
		t.handleTrajectory(traj)
		if id >= t.activeActors {
			// The autoscaler shrank the fleet: this actor parks until
			// a scale-up wakes it.
			t.parked = append(t.parked, id)
			return
		}
		if t.cfg.SyncActors && t.version == pulled {
			// Fig. 1(a): synchronous actors wait for the next policy.
			t.waiting = append(t.waiting, id)
			return
		}
		t.scheduleActor(id)
	})
}

func (t *Trainer) recordEpisode(ret float64) {
	t.episodes++
	if len(t.recent) < t.cfg.EvalWindow {
		t.recent = append(t.recent, ret)
	} else {
		t.recent[t.recentAt] = ret
		t.recentAt = (t.recentAt + 1) % t.cfg.EvalWindow
	}
	t.recentN++
}

func (t *Trainer) meanRecentReward() float64 {
	if len(t.recent) == 0 {
		return 0
	}
	return tensor.Mean(t.recent)
}

// ---- Data loader + learner functions (workflow step 2) ----

// handleTrajectory is the GPU data loader: it batches accumulated
// trajectories and invokes learner functions whenever a full batch is
// available.
func (t *Trainer) handleTrajectory(traj *replay.Trajectory) {
	if len(traj.Steps) == 0 {
		return
	}
	t.pendingTraj = append(t.pendingTraj, traj)
	t.pendingSteps += len(traj.Steps)
	for t.pendingSteps >= t.batchSize {
		var take []*replay.Trajectory
		var srcs []string
		steps := 0
		for len(t.pendingTraj) > 0 && steps < t.batchSize {
			tr := t.pendingTraj[0]
			t.pendingTraj = t.pendingTraj[1:]
			steps += len(tr.Steps)
			take = append(take, tr)
			srcs = append(srcs, tr.Trace.ID)
		}
		t.pendingSteps -= steps
		batch, err := replay.Flatten(take)
		if err != nil {
			t.fail(err)
			return
		}
		t.dispatchLearner(batch, srcs)
	}
}

// oldestOutstanding returns the minimum born version among in-flight
// learner functions.
func (t *Trainer) oldestOutstanding() (int, bool) {
	oldest, ok := 0, false
	for _, born := range t.outstanding {
		if !ok || born < oldest {
			oldest, ok = born, true
		}
	}
	return oldest, ok
}

// dispatchLearner invokes one serverless learner function over batch.
// The gradient math starts now, as a future, against the current policy
// (the function input pins the policy ID at invocation, §IV step 2);
// it is joined when the function's modeled execution completes.
func (t *Trainer) dispatchLearner(batch *replay.Batch, srcs []string) {
	if t.done {
		return
	}
	if ssp, ok := t.aggPol.(*stale.SSP); ok {
		if oldest, has := t.oldestOutstanding(); has && !ssp.CanDispatch(oldest, t.version) {
			t.gated = append(t.gated, pendingBatch{batch: batch, srcs: srcs})
			return
		}
	}
	id := t.learnerSeq
	t.learnerSeq++
	born := t.version
	t.outstanding[id] = born
	t.invokedRound++
	gid := fmt.Sprintf("grad/%d", id)
	lname := fmt.Sprintf("learner/%d", id)
	for _, src := range srcs {
		if src == "" {
			continue
		}
		t.lin.Record(lineage.Event{
			Trace: src, Kind: lineage.KindTrajectory, Hop: lineage.HopFetched, Actor: lname,
		})
		t.lin.Record(lineage.Event{
			Trace: src, Kind: lineage.KindTrajectory, Hop: lineage.HopConsumed,
			Actor: lname, Ref: gid,
		})
	}

	var extra algo.Extra
	if t.alg.NeedsTarget() {
		extra.TargetWeights = t.target
	}
	extra.KLCoeff = t.klCoef
	trunc := t.tracker.View()
	r := t.learnerRng.Split(uint64(id))
	var g *algo.Grad
	computed := t.start(func(m *algo.Model) {
		g = t.alg.Compute(m, batch, trunc, extra, r)
		// The gradient is the replica's own, and the replica goes back to
		// the pool: the copy is what the aggregator will queue.
		g.Data = slices.Clone(g.Data)
	})
	if computed == nil {
		return
	}

	params := len(t.master)
	pull := t.lat.TransferTime(8*params, t.timeRng)
	load := t.lat.TransferTime(8*batch.Len()*len(batch.Obs[0]), t.timeRng)
	compute := t.lat.GradientTime(params, batch.Len(), t.timeRng)
	t.observe(CompPolicyPull, pull)
	t.observe(CompDataLoad, load)
	t.observe(CompGradCompute, compute)

	// Gradient submission uses the hierarchical data-passing tier
	// (§V-B) selected once the learner's placement is known: shared
	// memory when co-located with the parameter function (VM 0), RPC
	// across VMs.
	dur := func(inv serverless.Invocation) float64 {
		submit := t.lat.TierTime(submitTier(inv.VM), 8*params, t.timeRng)
		t.observe(CompGradSubmit, submit)
		total := pull + load + compute + submit
		t.learnerTime += total
		// Feed the profiler (§VII) and keep the warm pool sized to the
		// estimated concurrency so later invocations start warm.
		t.prof.For("learner").Observe(total, t.clock.Now())
		if want := t.prof.For("learner").Concurrency(); want > 0 {
			if have := t.plat.WarmCount("learner"); have < want {
				t.plat.Prewarm("learner", min(want, t.cfg.LearnerSlots())-have)
			}
		}
		return total
	}

	t.plat.Invoke("learner", dur, func(inv serverless.Invocation) {
		delete(t.outstanding, id)
		if t.done {
			return
		}
		<-computed
		t.lin.Record(lineage.Event{
			Trace: gid, Kind: lineage.KindGradient, Hop: lineage.HopProduced,
			Actor: lname, Ref: lineage.WeightsID(born), CostUSD: inv.CostUSD,
		})
		if g.Stats.Truncated > 0 {
			t.lin.Record(lineage.Event{
				Trace: gid, Kind: lineage.KindGradient, Hop: lineage.HopTruncated,
				Actor: lname, Detail: fmt.Sprintf("%d importance ratios capped", g.Stats.Truncated),
			})
		}
		t.lin.Record(lineage.Event{
			Trace: gid, Kind: lineage.KindGradient, Hop: lineage.HopPut, Actor: lname,
		})
		t.tracker.Observe(g.Stats.MeanRatio)
		entry := &stale.Entry{
			LearnerID:   id,
			BornVersion: born,
			Grad:        g.Data,
			Samples:     g.Stats.Samples,
			MeanRatio:   g.Stats.MeanRatio,
			KL:          g.Stats.KL,
			Enqueued:    t.clock.Now(),
			Trace:       gid,
		}
		if group := t.aggPol.Offer(entry, t.version); group != nil {
			t.tracker.ResetGroup()
			t.invokeParameter(group)
		}
		t.retryGated()
	})
}

// submitTier selects the data-passing tier for a learner on the given
// VM. The parameter function is hosted on learner VM 0 (§VII runs both
// function kinds on the same GPU instances).
func submitTier(vm int) serverless.Tier {
	if vm == 0 {
		return serverless.TierShm
	}
	return serverless.TierRPC
}

// retryGated re-attempts SSP-gated dispatches after state changes.
func (t *Trainer) retryGated() {
	if len(t.gated) == 0 {
		return
	}
	gated := t.gated
	t.gated = nil
	for _, p := range gated {
		t.dispatchLearner(p.batch, p.srcs)
	}
}

// ---- Parameter function (workflow step 3) ----

// invokeParameter schedules the parameter function over an admitted
// aggregation group.
func (t *Trainer) invokeParameter(group []*stale.Entry) {
	params := len(t.master)
	agg := t.lat.AggregateTime(len(group), params, t.timeRng)
	broadcast := t.lat.TransferTime(8*params, t.timeRng)
	t.observe(CompAggregate, agg)
	t.observe(CompBroadcast, broadcast)
	t.prof.For("parameter").Observe(agg+broadcast, t.clock.Now())
	t.plat.InvokeFixed("parameter", agg+broadcast, func(inv serverless.Invocation) {
		t.applyUpdate(group, inv.CostUSD)
	})
}

// applyUpdate performs the staleness-weighted aggregation (Eq. 4), the
// optimizer step, and round bookkeeping. costUSD is the parameter
// invocation's bill, attributed to the new weight version.
func (t *Trainer) applyUpdate(group []*stale.Entry, costUSD float64) {
	if t.done {
		return
	}
	comb := stale.Combine(t.aggPol, group, t.version)
	t.adaptKLCoeff(group)

	var prevProbe []*paramRow
	if t.cfg.TrackKL {
		prevProbe = t.probeParams()
	}

	t.opt.Step(t.master, comb.Grad)
	t.version++
	if t.lin != nil {
		wid := lineage.WeightsID(t.version)
		for i, e := range group {
			if e.Trace == "" {
				continue
			}
			var detail string
			if i < len(comb.Stalenesses) {
				detail = fmt.Sprintf("staleness %d", comb.Stalenesses[i])
			}
			t.lin.Record(lineage.Event{
				Trace: e.Trace, Kind: lineage.KindGradient, Hop: lineage.HopAggregated,
				Actor: "parameter", Ref: wid, Detail: detail,
			})
		}
	}
	t.hist.ObserveAll(comb.Stalenesses)
	if t.m != nil {
		for _, s := range comb.Stalenesses {
			t.m.staleness.Observe(float64(s))
		}
		t.m.updates.Inc()
	}
	t.roundStaleSum += comb.MeanStaleness
	t.roundUpdates++

	if t.cfg.TrackKL {
		newProbe := t.probeParams()
		t.klTrace = append(t.klTrace, meanKL(t.kl, prevProbe, newProbe))
	}

	if t.alg.NeedsTarget() && t.version%t.targetEvery == 0 {
		t.target = append([]float64(nil), t.master...)
	}
	t.publishWeights(costUSD)

	// A training round is UpdatesPerRound policy updates; close the
	// round's CSV row at the boundary.
	if t.version%t.cfg.UpdatesPerRound == 0 {
		t.settleEpisodes()
		now := t.clock.Now()
		if t.m != nil {
			// The round's duration, the Fig. 14 denominator.
			t.m.roundSeconds.Observe(now - t.roundStart)
		}
		t.rec.Add(metrics.Round{
			Round:       t.version/t.cfg.UpdatesPerRound - 1,
			DurationSec: now - t.roundStart,
			Learners:    t.invokedRound,
			Episodes:    t.episodes,
			Reward:      t.meanRecentReward(),
			Staleness:   t.roundStaleSum / float64(t.roundUpdates),
			CostUSD:     t.plat.TotalCost(),
			WallSec:     now,
		})
		t.roundStart = now
		t.invokedRound = 0
		t.roundStaleSum = 0
		t.roundUpdates = 0
		t.autoscaleActors()
	}

	budgetSpent := t.cfg.WallBudgetSec > 0 && t.clock.Now() >= t.cfg.WallBudgetSec
	if t.version >= t.cfg.Rounds*t.cfg.UpdatesPerRound || budgetSpent {
		t.done = true
		t.clock.Stop()
		return
	}
	// Wake synchronous actors blocked on the update.
	if len(t.waiting) > 0 {
		waiting := t.waiting
		t.waiting = nil
		for _, id := range waiting {
			t.scheduleActor(id)
		}
	}
	t.retryGated()
}

// autoscaleActors consults the configured controller at a round boundary
// and grows or shrinks the active actor fleet. Shrinking is lazy (actors
// park after their in-flight burst); growing wakes parked actors
// immediately.
func (t *Trainer) autoscaleActors() {
	if t.cfg.Autoscale == nil {
		return
	}
	want := t.cfg.Autoscale.Decide(autoscale.Signals{
		Round:              t.version/t.cfg.UpdatesPerRound - 1,
		ActiveActors:       t.activeActors,
		MaxActors:          t.cfg.NumActors,
		LearnerUtilization: t.plat.Utilization("learner"),
		LearnerQueueDepth:  t.plat.QueueDepth("learner"),
		PendingSteps:       t.pendingSteps,
		BatchSize:          t.batchSize,
	})
	if want > t.cfg.NumActors {
		want = t.cfg.NumActors
	}
	if want < 1 {
		want = 1
	}
	t.activeActors = want
	// Wake parked actors whose id is back in range.
	stillParked := t.parked[:0]
	for _, id := range t.parked {
		if id < t.activeActors {
			t.scheduleActor(id)
		} else {
			stillParked = append(stillParked, id)
		}
	}
	t.parked = stillParked
}

// adaptKLCoeff is the RLlib-style adaptive KL controller the paper's
// tuned PPO/IMPACT configurations rely on: the coefficient grows when
// the measured update KL overshoots the target (Table III: 0.01) and
// shrinks when it undershoots, keeping asynchronous updates near the
// trust region.
func (t *Trainer) adaptKLCoeff(group []*stale.Entry) {
	target := t.alg.Hyper().KLTarget
	base := t.alg.Hyper().KLCoeff
	if target <= 0 || base <= 0 {
		return
	}
	var kl float64
	for _, e := range group {
		kl += e.KL
	}
	kl /= float64(len(group))
	switch {
	case kl > 2*target:
		t.klCoef *= 1.5
	case kl < target/2:
		t.klCoef /= 1.5
	}
	if t.klCoef > 100*base {
		t.klCoef = 100 * base
	}
	if t.klCoef < base/100 {
		t.klCoef = base / 100
	}
}

// paramRow pairs a probe observation with its distribution parameters.
type paramRow struct{ params []float64 }

// probeParams evaluates the current policy's distribution parameters on
// the probe states.
func (t *Trainer) probeParams() []*paramRow {
	if err := t.kl.SetWeights(t.master); err != nil {
		t.fail(err)
		return nil
	}
	rows := make([]*paramRow, 0, len(t.probe))
	for _, obs := range t.probe {
		in := tensor.MatFrom(1, len(obs), obs)
		out := t.kl.Policy.Forward(in)
		p := make([]float64, out.Cols)
		copy(p, out.Row(0))
		rows = append(rows, &paramRow{params: p})
	}
	return rows
}

// meanKL averages KL(new ‖ old) over probe rows.
func meanKL(m *algo.Model, oldRows, newRows []*paramRow) float64 {
	if len(oldRows) == 0 || len(oldRows) != len(newRows) {
		return 0
	}
	var s float64
	for i := range oldRows {
		s += m.Dist.KL(newRows[i].params, oldRows[i].params)
	}
	return s / float64(len(oldRows))
}
