package live

import (
	"testing"

	"stellaris/internal/algo"
	"stellaris/internal/cache"
	"stellaris/internal/env"
	"stellaris/internal/istrunc"
	"stellaris/internal/rng"
)

// newTestRun is the bare run the stage constructors need: options,
// shared counters, algorithm and IS tracker, no cache and no pipeline.
func newTestRun(t *testing.T, opt Options) *run {
	t.Helper()
	opt, err := opt.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	template, err := env.NewSized(opt.Env, opt.FrameSize)
	if err != nil {
		t.Fatal(err)
	}
	return &run{
		opt: opt, st: &runState{}, template: template,
		alg:     algo.NewPPO(template.ActionSpace().Continuous),
		tracker: istrunc.New(opt.Rho, true),
	}
}

// newTestActor builds an actor over an in-process MemCache so iterate
// can run without the Train pipeline.
func newTestActor(t *testing.T, c cache.Cache, globalVersion int64) *actor {
	t.Helper()
	r := newTestRun(t, Options{ActorSteps: 8, MaxStaleFallbacks: 2, Hidden: 16})
	r.version.Store(globalVersion)
	a, err := r.newActor(0, workerName("actor", 0, 0), c, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestActorStampsFetchedVersion is the regression test for the headline
// staleness-accounting bug: trajectories must carry the version of the
// weights the rollout actually ran with, not the global version counter
// (which the parameter worker advances concurrently). With the counter
// ahead at 9 and the cache serving v3, the old code stamped 9 — making
// every trajectory look fresh and zeroing out staleness decay.
func TestActorStampsFetchedVersion(t *testing.T) {
	mem := cache.NewMemCache()
	a := newTestActor(t, mem, 9)
	if err := putWeights(mem, 3, a.model.Weights()); err != nil {
		t.Fatal(err)
	}
	note, ok, err := a.iterate()
	if err != nil || !ok {
		t.Fatalf("iterate: ok=%v err=%v", ok, err)
	}
	raw, err := mem.Get(note.key)
	if err != nil {
		t.Fatal(err)
	}
	traj, err := cache.DecodeTrajectory(raw)
	if err != nil {
		t.Fatal(err)
	}
	if traj.PolicyVersion != 3 {
		t.Fatalf("trajectory stamped version %d, want fetched version 3 (global counter was 9)", traj.PolicyVersion)
	}
}

// TestActorStaleFallbackKeepsFetchedVersion covers the degraded path:
// when the fetch fails and the actor reuses its stale weight copy, the
// trajectory must carry that copy's version.
func TestActorStaleFallbackKeepsFetchedVersion(t *testing.T) {
	mem := cache.NewMemCache()
	a := newTestActor(t, mem, 7)
	if err := putWeights(mem, 2, a.model.Weights()); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := a.iterate(); err != nil || !ok {
		t.Fatalf("warm-up iterate: ok=%v err=%v", ok, err)
	}
	// Weights vanish: the next iterate degrades to the stale copy.
	if err := mem.Delete("weights/latest"); err != nil {
		t.Fatal(err)
	}
	note, ok, err := a.iterate()
	if err != nil || !ok {
		t.Fatalf("fallback iterate: ok=%v err=%v", ok, err)
	}
	raw, err := mem.Get(note.key)
	if err != nil {
		t.Fatal(err)
	}
	traj, err := cache.DecodeTrajectory(raw)
	if err != nil {
		t.Fatal(err)
	}
	if traj.PolicyVersion != 2 {
		t.Fatalf("stale-fallback trajectory stamped %d, want saved version 2", traj.PolicyVersion)
	}
	if got := a.state.staleReuses.Load(); got != 1 {
		t.Fatalf("stale reuses = %d, want 1", got)
	}
}

// TestActorFailsAfterMaxStaleFallbacks pins the abort bound when no
// weights were ever fetched.
func TestActorFailsAfterMaxStaleFallbacks(t *testing.T) {
	a := newTestActor(t, cache.NewMemCache(), 0) // empty cache: every fetch fails
	for i := 0; i < a.opt.MaxStaleFallbacks; i++ {
		if _, ok, err := a.iterate(); ok || err != nil {
			t.Fatalf("fallback %d: ok=%v err=%v", i, ok, err)
		}
	}
	if _, _, err := a.iterate(); err == nil {
		t.Fatalf("no error after %d+1 consecutive failed fetches", a.opt.MaxStaleFallbacks)
	}
}
