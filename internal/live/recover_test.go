package live

import (
	"fmt"
	"math"
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
	opt.RestartBackoff = time.Millisecond
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
	opt.RestartBackoff = time.Millisecond
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
	opt.RestartBackoff = 2 * time.Second
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
	opt.RestartBackoff = time.Millisecond
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

// TestChaosPanicsAndCacheBounce is the end-to-end chaos drill from the
// issue: periodic learner panics AND a full cache-server restart (with
// durable state) mid-run. The run must complete, the supervisor must
// have restarted learners, the client must have ridden through the
// bounce, and learning must not have been destroyed.
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

	dir := t.TempDir()
	store, err := cache.NewPersistentMemCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv := cache.NewServer(store)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	// Bounce worker: once training is underway (version >= 2 visible in
	// the cache), hard-restart the server — durable state and all.
	bounced := make(chan struct{})
	var srv2 *cache.Server
	var store2 *cache.MemCache
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
		store.Close()
		time.Sleep(150 * time.Millisecond)
		store2, err = cache.NewPersistentMemCache(dir)
		if err != nil {
			t.Error(err)
			return
		}
		srv2 = cache.NewServer(store2)
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
	opt.CacheAddr = addr
	opt.CheckpointDir = t.TempDir()
	opt.CheckpointEvery = 2
	opt.CacheOpTimeout = 250 * time.Millisecond
	opt.CacheAttempts = 10
	opt.RestartBudget = 1000
	opt.RestartBackoff = time.Millisecond
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
	if store2 != nil {
		store2.Close()
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
