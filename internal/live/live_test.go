package live

import (
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

// TestLiveTrainBinaryDeltaBroadcast pins that the async path actually
// exercises the delta weight broadcast: the head pointer and at least
// one delta key must exist in the cache after a run.
func TestLiveTrainBinaryDeltaBroadcast(t *testing.T) {
	srv := cache.NewServer(nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	opt := tinyOpts()
	opt.CacheAddr = addr
	rep, err := Train(opt)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Updates < 4 {
		t.Fatalf("run completed %d updates", rep.Updates)
	}
	cli, err := cache.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.Get(cache.KeyWeightsHead); err != nil {
		t.Fatalf("no weights head pointer after the run: %v", err)
	}
	keys, err := cli.Keys("weights.delta/")
	if err != nil || len(keys) == 0 {
		t.Fatalf("no delta keys after the run: %v %v", keys, err)
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
