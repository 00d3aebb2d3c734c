package live

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stellaris/internal/cache"
	"stellaris/internal/leaktest"
	"stellaris/internal/obs"
)

// lockOpts is the lockstep configuration shared by the determinism
// tests: small enough to run in milliseconds, large enough to cross two
// checkpoint boundaries and exercise post-warmup staleness queueing.
func lockOpts(dir string) Options {
	return Options{
		Env: "cartpole", Seed: 11,
		Actors: 2, Learners: 2,
		Updates: 12, ActorSteps: 16, BatchSize: 32,
		Hidden: 16, LearningRate: 0.0003,
		UpdatesPerRound: 4,
		Lockstep:        true,
		CheckpointDir:   dir,
		CheckpointEvery: 4,
	}
}

func weightsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestLockstepDeterministic is the foundation the resume proof stands
// on: two identical seeded lockstep runs must agree bit for bit.
func TestLockstepDeterministic(t *testing.T) {
	leaktest.Check(t)
	r1, err := Train(lockOpts(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Train(lockOpts(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	if !weightsEqual(r1.FinalWeights, r2.FinalWeights) {
		t.Fatal("identical seeded lockstep runs diverged")
	}
	if r1.MeanStaleness != r2.MeanStaleness || r1.Episodes != r2.Episodes {
		t.Fatalf("run summaries diverged: %+v vs %+v", r1, r2)
	}
}

// TestLockstepResumeBitIdentical is the crash-recovery regression test
// from the issue: a seeded run killed after round k and resumed from its
// checkpoint must reproduce the uninterrupted run's final weights and
// staleness accounting exactly.
func TestLockstepResumeBitIdentical(t *testing.T) {
	// Run A: uninterrupted, 12 updates, checkpoints at 4 and 8.
	a, err := Train(lockOpts(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}

	// Run B1: identical configuration, "killed" after 10 updates — past
	// the checkpoint at version 8, which is where recovery will restart.
	dirB := t.TempDir()
	optB := lockOpts(dirB)
	optB.Updates = 10
	if _, err := Train(optB); err != nil {
		t.Fatal(err)
	}

	// Run B2: resume from B1's checkpoint directory and finish the job.
	optB2 := lockOpts(dirB)
	optB2.Resume = true
	b2, err := Train(optB2)
	if err != nil {
		t.Fatal(err)
	}
	if !b2.Resumed {
		t.Fatal("run did not resume from checkpoint")
	}
	if b2.ResumedFromVersion != 8 {
		t.Fatalf("resumed from version %d, want 8", b2.ResumedFromVersion)
	}
	if b2.Updates != a.Updates {
		t.Fatalf("resumed run completed %d updates, uninterrupted did %d", b2.Updates, a.Updates)
	}
	if !weightsEqual(a.FinalWeights, b2.FinalWeights) {
		t.Fatal("resumed run's final weights differ from the uninterrupted run")
	}
	if a.MeanStaleness != b2.MeanStaleness {
		t.Fatalf("MeanStaleness diverged: %v vs %v", a.MeanStaleness, b2.MeanStaleness)
	}
	if a.Episodes != b2.Episodes || a.MeanReturn != b2.MeanReturn {
		t.Fatalf("episode accounting diverged: %d/%v vs %d/%v",
			a.Episodes, a.MeanReturn, b2.Episodes, b2.MeanReturn)
	}
}

func TestResumeFingerprintMismatch(t *testing.T) {
	dir := t.TempDir()
	opt := tinyOpts()
	opt.CheckpointDir = dir
	opt.CheckpointEvery = 2
	if _, err := Train(opt); err != nil {
		t.Fatal(err)
	}

	bad := opt
	bad.Resume = true
	bad.Hidden = 8 // checkpointed run used 16
	if _, err := Train(bad); err == nil || !strings.Contains(err.Error(), "hidden") {
		t.Fatalf("resume with wrong hidden size: err = %v, want fingerprint mismatch naming the field", err)
	}

	// An async-mode checkpoint cannot seed a lockstep resume: the worker
	// RNG states it would need were never captured.
	lk := opt
	lk.Resume = true
	lk.Lockstep = true
	lk.UpdatesPerRound = opt.UpdatesPerRound
	if _, err := Train(lk); err == nil || !strings.Contains(err.Error(), "lockstep") {
		t.Fatalf("lockstep resume of async checkpoint: err = %v, want mode error", err)
	}
}

func TestAsyncCheckpointAndResume(t *testing.T) {
	leaktest.Check(t)
	dir := t.TempDir()
	opt := tinyOpts()
	opt.CheckpointDir = dir
	opt.CheckpointEvery = 2

	rep1, err := Train(opt)
	if err != nil {
		t.Fatal(err)
	}
	if rep1.CheckpointsWritten == 0 {
		t.Fatal("checkpointing enabled but none written")
	}
	if rep1.Resumed {
		t.Fatal("fresh run claims to have resumed")
	}

	// Resume and train further: picks up from the newest checkpoint.
	opt2 := opt
	opt2.Resume = true
	opt2.Updates = 8
	rep2, err := Train(opt2)
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.Resumed || rep2.ResumedFromVersion < 2 {
		t.Fatalf("resume report: %+v", rep2)
	}
	if rep2.Updates < 8 {
		t.Fatalf("resumed run completed %d updates, want >= 8", rep2.Updates)
	}

	// Resuming a run whose checkpoint already covers the requested
	// updates returns its state without training.
	opt3 := opt
	opt3.Resume = true
	rep3, err := Train(opt3)
	if err != nil {
		t.Fatal(err)
	}
	if !rep3.Resumed || rep3.Updates < opt3.Updates {
		t.Fatalf("completed-run resume: %+v", rep3)
	}
	if rep3.CheckpointsWritten != 0 {
		t.Fatalf("no-op resume wrote %d checkpoints", rep3.CheckpointsWritten)
	}
}

// TestResumeFromCacheMirror loses the checkpoint directory entirely and
// recovers from the copy mirrored into the cache under ckpt.CacheKey —
// the fresh-container scenario.
func TestResumeFromCacheMirror(t *testing.T) {
	srv := cache.NewServer(nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	opt := tinyOpts()
	opt.CacheAddr = addr
	opt.CheckpointDir = t.TempDir()
	opt.CheckpointEvery = 2
	if _, err := Train(opt); err != nil {
		t.Fatal(err)
	}

	// "New container": empty checkpoint dir, same cache.
	opt2 := opt
	opt2.CheckpointDir = t.TempDir()
	opt2.Resume = true
	opt2.Updates = 6
	rep, err := Train(opt2)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Resumed || rep.ResumedFromVersion < 2 {
		t.Fatalf("mirror resume report: %+v", rep)
	}
	if rep.Updates < 6 {
		t.Fatalf("mirror-resumed run completed %d updates, want >= 6", rep.Updates)
	}
}

func TestSupervisorRestartsWorkers(t *testing.T) {
	leaktest.Check(t)
	var actorPanics, learnerPanics atomic.Int64
	opt := tinyOpts()
	opt.Updates = 2
	opt.restartBackoff = time.Millisecond
	opt.panicHook = func(role string, id int) bool {
		switch role {
		case "actor":
			return actorPanics.Add(1) == 1
		case "learner":
			return learnerPanics.Add(1) <= 2
		}
		return false
	}
	rep, err := Train(opt)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ActorRestarts < 1 {
		t.Fatalf("ActorRestarts = %d, want >= 1", rep.ActorRestarts)
	}
	if rep.LearnerRestarts < 1 {
		t.Fatalf("LearnerRestarts = %d, want >= 1", rep.LearnerRestarts)
	}
	if rep.Updates < opt.Updates {
		t.Fatalf("run did not recover: %d/%d updates", rep.Updates, opt.Updates)
	}
}

func TestSupervisorBudgetExhausted(t *testing.T) {
	opt := tinyOpts()
	opt.RestartBudget = 2
	opt.restartBackoff = time.Millisecond
	opt.panicHook = func(role string, id int) bool { return role == "actor" }
	_, err := Train(opt)
	if err == nil || !strings.Contains(err.Error(), "restart budget") {
		t.Fatalf("err = %v, want restart-budget exhaustion", err)
	}
}

// TestHaltInterruptsRestartBackoff: a run that takes its last update
// while a learner sits in a restart backoff returns when its work in
// flight is done, not when the backoff is.
func TestHaltInterruptsRestartBackoff(t *testing.T) {
	leaktest.Check(t)
	reg := obs.NewRegistry()
	updates := reg.Counter("live_updates_total", "policy updates applied")
	opt := tinyOpts()
	opt.Obs = reg
	opt.restartBackoff = 2 * time.Second
	crashed := make(chan struct{}) // closed as learner 1 goes down; no rollout starts before
	var once sync.Once
	opt.panicHook = func(role string, id int) bool {
		if role == "learner" && id == 1 {
			once.Do(func() { close(crashed) })
			return true
		}
		<-crashed
		return false
	}
	returned := make(chan error, 1)
	go func() {
		rep, err := Train(opt)
		if err == nil && rep.LearnerRestarts != 1 {
			err = fmt.Errorf("LearnerRestarts = %d, want learner 1 parked in its first backoff", rep.LearnerRestarts)
		}
		returned <- err
	}()
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	var lastUpdate time.Time // when the counter was first seen at opt.Updates
	for {
		select {
		case err := <-returned:
			if err != nil {
				t.Fatal(err)
			}
			if tail := time.Since(lastUpdate); !lastUpdate.IsZero() && tail > 500*time.Millisecond {
				t.Fatalf("Train returned %v after its last update", tail)
			}
			return
		case <-tick.C:
			if lastUpdate.IsZero() && updates.Value() >= int64(opt.Updates) {
				lastUpdate = time.Now()
			}
		}
	}
}

// TestRecoveryObsMetrics checks the crash-recovery observability bar:
// restarts by role, recovery latency, and checkpoint counters all land
// in the registry.
func TestRecoveryObsMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	var learnerPanics atomic.Int64
	opt := tinyOpts()
	opt.Updates = 2
	opt.Obs = reg
	opt.CheckpointDir = t.TempDir()
	opt.CheckpointEvery = 1
	opt.restartBackoff = time.Millisecond
	opt.panicHook = func(role string, id int) bool {
		return role == "learner" && learnerPanics.Add(1) <= 2
	}
	rep, err := Train(opt)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Obs == nil {
		t.Fatal("Report.Obs missing")
	}
	p, ok := rep.Obs.Find("live_worker_restarts_total", map[string]string{"role": "learner"})
	if !ok || int64(p.Value) != rep.LearnerRestarts || p.Value == 0 {
		t.Fatalf("live_worker_restarts_total{role=learner} = %+v (ok=%v), report says %d", p, ok, rep.LearnerRestarts)
	}
	// The actor child exists (pre-created) and stayed zero.
	if p, ok := rep.Obs.Find("live_worker_restarts_total", map[string]string{"role": "actor"}); !ok || p.Value != 0 {
		t.Fatalf("live_worker_restarts_total{role=actor} = %+v (ok=%v), want present and zero", p, ok)
	}
	h, ok := rep.Obs.FindHistogram("live_recovery_seconds", nil)
	if !ok || h.Count == 0 {
		t.Fatalf("live_recovery_seconds: %+v ok=%v", h, ok)
	}
	w, ok := rep.Obs.Find("live_checkpoint_writes_total", nil)
	if !ok || int64(w.Value) != rep.CheckpointsWritten || w.Value == 0 {
		t.Fatalf("live_checkpoint_writes_total = %+v (ok=%v), report says %d", w, ok, rep.CheckpointsWritten)
	}
	wh, ok := rep.Obs.FindHistogram("live_checkpoint_write_seconds", nil)
	if !ok || wh.Count == 0 {
		t.Fatalf("live_checkpoint_write_seconds: %+v ok=%v", wh, ok)
	}
}

// TestReportSameWithoutRegistry: the Report reads its counts from the
// run's metrics, which live in a private registry when Options.Obs is
// nil, so a caller registry must change none of them. Lockstep pins the
// outputs bit for bit; it never consults panicHook, so an async leg with
// a deterministic one (the first actor and the first learner iteration
// panic) pins the restart counts.
func TestReportSameWithoutRegistry(t *testing.T) {
	leaktest.Check(t)
	counts := func(r *Report) [10]int64 {
		return [10]int64{
			int64(r.Updates), int64(r.Episodes), r.StaleWeightReuses, r.DroppedPayloads,
			r.ActorRestarts, r.LearnerRestarts, r.CheckpointsWritten,
			int64(math.Float64bits(r.MeanTrajectoryLag)), int64(math.Float64bits(r.MeanStaleness)),
			int64(math.Float64bits(r.MeanReturn)),
		}
	}
	train := func(opt Options, reg *obs.Registry) *Report {
		t.Helper()
		opt.Obs = reg
		opt.CheckpointDir = t.TempDir()
		rep, err := Train(opt)
		if err != nil {
			t.Fatal(err)
		}
		if (rep.Obs != nil) != (reg != nil) {
			t.Fatalf("Report.Obs = %v with registry %v", rep.Obs != nil, reg != nil)
		}
		return rep
	}

	bare, traced := train(lockOpts(""), nil), train(lockOpts(""), obs.NewRegistry())
	if counts(bare) != counts(traced) || bare.FlightDumps != traced.FlightDumps {
		t.Fatalf("lockstep Report counts differ: %v without a registry, %v with one", counts(bare), counts(traced))
	}
	if bare.CheckpointsWritten == 0 {
		t.Fatal("no checkpoint written: the comparison covers nothing")
	}
	for i := range bare.FinalWeights {
		if math.Float64bits(bare.FinalWeights[i]) != math.Float64bits(traced.FinalWeights[i]) {
			t.Fatalf("final weight %d: %v without a registry, %v with one", i, bare.FinalWeights[i], traced.FinalWeights[i])
		}
	}

	async := func(reg *obs.Registry) *Report {
		var actors, learners atomic.Int64
		opt := tinyOpts()
		opt.CheckpointEvery = 2
		opt.restartBackoff = time.Millisecond
		opt.panicHook = func(role string, id int) bool {
			if role == "actor" {
				return actors.Add(1) == 1
			}
			return learners.Add(1) == 1
		}
		return train(opt, reg)
	}
	bare, traced = async(nil), async(obs.NewRegistry())
	for _, rep := range []*Report{bare, traced} {
		if rep.ActorRestarts != 1 || rep.LearnerRestarts != 1 || rep.CheckpointsWritten != 2 {
			t.Fatalf("async: %d actor and %d learner restarts, %d checkpoints; want 1, 1, 2",
				rep.ActorRestarts, rep.LearnerRestarts, rep.CheckpointsWritten)
		}
	}
	// The flight recorder is the lineage store's ring, which needs a
	// caller registry: a dump per panic with one, none without.
	if bare.FlightDumps != 0 || traced.FlightDumps != 2 {
		t.Fatalf("flight dumps: %d without a registry, %d with one; want 0, 2", bare.FlightDumps, traced.FlightDumps)
	}
}

// TestChaosPanicsAndCacheBounce is the end-to-end chaos drill:
// periodic learner panics AND a full cache-server restart mid-run, onto
// an empty store. The run must complete, the supervisor must have
// restarted learners, the client must have ridden through the bounce,
// and learning must not have been destroyed. What the restart lost is
// shed or produced again; the weights come back because the parameter
// worker re-publishes them when a worker finds none.
func TestChaosPanicsAndCacheBounce(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos drill skipped in -short")
	}

	train := func(opt Options) *Report {
		t.Helper()
		rep, err := Train(opt)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	base := tinyOpts()
	base.Updates = 6
	base.ActorSteps = 16
	base.BatchSize = 32
	baseline := train(base)

	srv := cache.NewServer(cache.NewMemCache())
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	// Bounce worker: once training is underway (version >= 2 visible in
	// the cache), hard-restart the server on an empty store.
	bounced := make(chan struct{})
	var srv2 *cache.Server
	go func() {
		defer close(bounced)
		cli, err := cache.DialWith(addr, cache.DialOptions{
			OpTimeout: 200 * time.Millisecond, Attempts: 40, Seed: 99,
		})
		if err != nil {
			t.Error(err)
			return
		}
		for {
			raw, err := cli.Get("weights/latest")
			if err == nil {
				if msg, err := cache.DecodeWeights(raw); err == nil && msg.Version >= 2 {
					break
				}
			}
			time.Sleep(5 * time.Millisecond)
		}
		cli.Close()
		srv.Close()
		time.Sleep(150 * time.Millisecond)
		srv2 = cache.NewServer(cache.NewMemCache())
		for i := 0; i < 100; i++ {
			if _, err = srv2.Listen(addr); err == nil {
				return
			}
			time.Sleep(20 * time.Millisecond)
		}
		t.Errorf("rebinding %s: %v", addr, err)
	}()

	var learnerIters atomic.Int64
	opt := base
	// The bounce fires once v2 is visible; a run only six updates long
	// could finish before the server went down (2 in 10 runs at 40e6ccc).
	opt.Updates = 4 * base.Updates
	opt.CacheAddr = addr
	opt.CheckpointDir = t.TempDir()
	opt.CheckpointEvery = 2
	opt.Cache.OpTimeout = 250 * time.Millisecond
	opt.Cache.Attempts = 10
	opt.RestartBudget = 1000
	opt.restartBackoff = time.Millisecond
	opt.panicHook = func(role string, id int) bool {
		if role != "learner" {
			return false
		}
		// ~10% of learner iterations panic; the early one guarantees at
		// least one restart even on a machine fast enough to finish the
		// run in a handful of iterations.
		n := learnerIters.Add(1)
		return n == 3 || n%10 == 0
	}
	rep := train(opt)
	<-bounced
	if srv2 != nil {
		srv2.Close()
	}

	if rep.Updates < opt.Updates {
		t.Fatalf("chaos run completed %d/%d updates", rep.Updates, opt.Updates)
	}
	if rep.LearnerRestarts == 0 {
		t.Fatal("no learner restarts despite injected panics")
	}
	if rep.CacheReconnects == 0 {
		t.Fatal("no cache reconnects despite the server bounce")
	}
	if rep.CheckpointsWritten == 0 {
		t.Fatal("no checkpoints written during chaos run")
	}
	if math.IsNaN(rep.MeanReturn) || rep.MeanReturn < 0.25*baseline.MeanReturn {
		t.Fatalf("chaos run mean return %v collapsed vs fault-free baseline %v",
			rep.MeanReturn, baseline.MeanReturn)
	}
}

// TestWeightsReseededAfterKeyspaceLoss: the cache loses the weights
// mid-run, as a server restarted onto an empty store would, and a
// learner restart leaves a worker with no copy to fall back on. A
// worker's fetch asks, the parameter worker publishes the current
// weights again, and the run completes. The run has one learner, and
// every update of it falls in the warmup round, so each gradient is
// one update: before it drops the keys the hook waits until the
// parameter worker has absorbed every gradient produced, and no
// publish still in flight can put them back before a worker looks.
func TestWeightsReseededAfterKeyspaceLoss(t *testing.T) {
	leaktest.Check(t)
	mem := cache.NewMemCache()
	srv := cache.NewServer(mem)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	opt := tinyOpts()
	opt.Learners = 1
	opt.Updates = 8 // one warmup round at the default UpdatesPerRound
	opt.CacheAddr = addr
	opt.restartBackoff = time.Millisecond
	var r *run
	var calls, losses atomic.Int64
	opt.panicHook = func(role string, id int) bool {
		if role != "learner" {
			return false
		}
		// From the third iteration on, every other one, so that each
		// restarted learner takes a step, until a re-seed has been seen.
		n := calls.Add(1)
		if n < 3 || n%2 == 0 || r.m.reseeds.Value() > 0 {
			return false
		}
		steps := r.m.iterHist("learner", id)
		for r.m.updates.Value()+r.m.drops.With(dropBackpressure).Value() < steps.Count() {
			if r.stop.Load() {
				return false // the last gradient will never be absorbed
			}
			runtime.Gosched()
		}
		for _, k := range []string{cache.KeyWeightsLatest, cache.KeyWeightsHead} {
			if err := mem.Delete(k); err != nil {
				t.Error(err)
			}
		}
		losses.Add(1)
		return true
	}
	opt, err = opt.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	r, _, err = newRun(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	if err := r.runAsync(); err != nil {
		t.Fatal(err)
	}
	rep := r.buildReport()
	if rep.Updates < opt.Updates {
		t.Fatalf("completed %d/%d updates", rep.Updates, opt.Updates)
	}
	if losses.Load() == 0 || rep.LearnerRestarts != losses.Load() {
		t.Fatalf("%d keyspace losses, %d learner restarts; want as many, at least one", losses.Load(), rep.LearnerRestarts)
	}
	if n := r.m.reseeds.Value(); n == 0 {
		t.Fatal("the weights were lost and never re-published")
	}
}
