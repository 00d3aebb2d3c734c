package live

import (
	"fmt"
	"strings"
	"testing"

	"stellaris/internal/cache"
	"stellaris/internal/leaktest"
)

func tinyOpts() Options {
	return Options{
		Env: "cartpole", Seed: 5,
		Actors: 2, Learners: 2,
		Updates: 4, ActorSteps: 32, BatchSize: 64,
		Hidden: 16, LearningRate: 0.0003,
	}
}

func TestLiveTrainCompletes(t *testing.T) {
	leaktest.Check(t)
	rep, err := Train(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Updates < 4 {
		t.Fatalf("completed %d updates, want >= 4", rep.Updates)
	}
	if rep.Episodes == 0 {
		t.Fatal("no episodes completed")
	}
	if rep.MeanReturn <= 0 {
		t.Fatalf("mean return %v", rep.MeanReturn)
	}
	if len(rep.FinalWeights) == 0 {
		t.Fatal("no final weights")
	}
	if rep.Elapsed <= 0 {
		t.Fatal("no elapsed time")
	}
}

func TestLiveTrainWeightsEvolve(t *testing.T) {
	opt := tinyOpts()
	rep, err := Train(opt)
	if err != nil {
		t.Fatal(err)
	}
	// The trained weights must differ from a fresh initialization with
	// the same seed (updates actually happened).
	rep2, err := Train(Options{
		Env: opt.Env, Seed: opt.Seed, Actors: 1, Learners: 1,
		Updates: 1, ActorSteps: 16, BatchSize: 16, Hidden: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.FinalWeights) != len(rep2.FinalWeights) {
		t.Fatal("architectures diverged")
	}
	same := true
	for i := range rep.FinalWeights {
		if rep.FinalWeights[i] != rep2.FinalWeights[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("weights identical across different runs")
	}
}

func TestLiveTrainExternalCache(t *testing.T) {
	leaktest.Check(t)
	srv := cache.NewServer(nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	opt := tinyOpts()
	opt.CacheAddr = addr
	opt.Updates = 2
	rep, err := Train(opt)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Updates < 2 {
		t.Fatalf("external-cache run completed %d updates", rep.Updates)
	}
}

// TestLiveTrainPublishesVectorThenHead pins the async weight broadcast:
// after a run the cache holds the vector and its head and nothing else
// under weights (no per-version delta keys), subscribers answered some
// fetches from an unchanged head, and none read the vector more often
// than once per published version plus once per regression.
func TestLiveTrainPublishesVectorThenHead(t *testing.T) {
	leaktest.Check(t)
	mem := cache.NewMemCache()
	srv := cache.NewServer(mem)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	opt := tinyOpts()
	opt.CacheAddr = addr
	opt.Updates = 8
	opt, err = opt.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	r, _, err := newRun(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	if err := r.runAsync(); err != nil {
		t.Fatal(err)
	}
	keys, err := mem.Keys("weights")
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 2 || keys[0] != cache.KeyWeightsHead || keys[1] != cache.KeyWeightsLatest {
		t.Fatalf("weight keys after the run: %v, want the head and the vector only", keys)
	}
	versions := r.version.Load() + 1
	var skipped int64
	for i, s := range r.subs {
		st := s.Stats()
		skipped += st.Skipped
		if st.FullFetches > versions+st.Regressions {
			t.Fatalf("subscriber %d read the vector %d times for %d versions: %+v", i, st.FullFetches, versions, st)
		}
	}
	if skipped == 0 {
		t.Fatalf("no fetch was answered from an unchanged head across %d subscribers", len(r.subs))
	}
}

// stampRecorder notes, from every trajectory and gradient put, which
// worker ran on which weights version: in a healthy lockstep run each
// fetch is followed by exactly one such put stamped with what it
// returned.
type stampRecorder struct {
	cache.Conn
	t     *testing.T
	puts  int64
	pairs map[string]bool // "actor 0 v3", "learner 1 v2"
}

func (c *stampRecorder) Put(key string, val []byte) error {
	switch {
	case strings.HasPrefix(key, "traj/"):
		tr, err := cache.DecodeTrajectory(val)
		if err != nil {
			c.t.Fatal(err)
		}
		c.puts++
		c.pairs[fmt.Sprintf("actor %d v%d", tr.ActorID, tr.PolicyVersion)] = true
	case strings.HasPrefix(key, "grad/"):
		g, err := cache.DecodeGrad(val)
		if err != nil {
			c.t.Fatal(err)
		}
		c.puts++
		c.pairs[fmt.Sprintf("learner %d v%d", g.LearnerID, g.BornVersion)] = true
	}
	return c.Conn.Put(key, val)
}

// TestLockstepReadsEachVersionOncePerWorker: lockstep publishes and
// fetches through the same publisher and subscribers as async, so a
// worker reads the vector once per (worker, version) it ran on and
// answers every other fetch from the unchanged head.
func TestLockstepReadsEachVersionOncePerWorker(t *testing.T) {
	opt, err := lockOpts("").withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	r, loaded, err := newRun(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	rec := &stampRecorder{Conn: r.paramCli, t: t, pairs: map[string]bool{}}
	r.paramCli = rec
	if err := r.runLockstep(loaded); err != nil {
		t.Fatal(err)
	}
	var reads, fetches int64
	for _, s := range r.subs {
		st := s.Stats()
		reads += st.FullFetches
		fetches += st.FullFetches + st.Skipped
	}
	if fetches != rec.puts {
		t.Fatalf("%d fetches for %d stamped puts", fetches, rec.puts)
	}
	if reads != int64(len(rec.pairs)) {
		t.Fatalf("%d vector reads for %d (worker, version) pairs", reads, len(rec.pairs))
	}
	if reads >= fetches {
		t.Fatalf("every one of %d fetches read the vector", fetches)
	}
}

func TestLiveTrainIMPACT(t *testing.T) {
	opt := tinyOpts()
	opt.Algo = "impact"
	opt.Updates = 2
	rep, err := Train(opt)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Updates < 2 {
		t.Fatalf("IMPACT live run completed %d updates", rep.Updates)
	}
}

func TestLiveOptionsValidation(t *testing.T) {
	if _, err := Train(Options{Algo: "dqn", Updates: 1}); err == nil {
		t.Fatal("invalid algo accepted")
	}
	if _, err := Train(Options{Env: "no-such-env", Updates: 1}); err == nil {
		t.Fatal("invalid env accepted")
	}
}

func TestLiveTrainBadCacheAddr(t *testing.T) {
	opt := tinyOpts()
	opt.CacheAddr = "127.0.0.1:1" // nothing listens on port 1
	if _, err := Train(opt); err == nil {
		t.Fatal("unreachable cache accepted")
	}
}

func TestLiveDefaults(t *testing.T) {
	o, err := Options{}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if o.Env != "cartpole" || o.Algo != "ppo" || o.Actors != 2 ||
		o.Learners != 2 || o.DecayD != 0.96 || o.SmoothV != 3 || o.Rho != 1.0 {
		t.Fatalf("defaults wrong: %+v", o)
	}
}

func TestLiveStalenessObserved(t *testing.T) {
	opt := tinyOpts()
	opt.Updates = 6
	opt.Learners = 3
	rep, err := Train(opt)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MeanStaleness < 0 {
		t.Fatalf("negative staleness %v", rep.MeanStaleness)
	}
}
