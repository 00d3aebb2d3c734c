package baselines

import (
	"testing"

	"stellaris/internal/core"
)

func base() core.Config {
	return core.Config{Env: "cartpole", Seed: 1, Rounds: 1, UpdatesPerRound: 2,
		NumActors: 4, ActorSteps: 32, BatchSize: 128, Hidden: 16}
}

func TestVanillaIsSyncServerful(t *testing.T) {
	c := Vanilla(base())
	if c.Aggregator != core.AggSync || c.ServerlessLearners || c.ServerlessActors {
		t.Fatalf("vanilla config %+v", c)
	}
	if !c.DisableTruncation {
		t.Fatal("vanilla baseline must not use Stellaris truncation")
	}
}

func TestMinionsRLSingleLearnerServerlessActors(t *testing.T) {
	c := MinionsRLLike(base())
	if !c.ServerlessActors || !c.ServerlessLearners {
		t.Fatal("MinionsRL must be serverless")
	}
	if c.LearnerSlots() != 1 || c.SyncGroup != 1 {
		t.Fatalf("MinionsRL must have a single centralized learner: %+v", c)
	}
}

func TestPARRLUsesHPC(t *testing.T) {
	c := PARRLLike(base())
	if !c.HPC || c.Aggregator != core.AggSync {
		t.Fatalf("PAR-RL config %+v", c)
	}
}

func TestStellarisOnOverridesLearners(t *testing.T) {
	c := StellarisOn(Vanilla(base()))
	if c.Aggregator != core.AggStellaris || !c.ServerlessLearners || c.DisableTruncation {
		t.Fatalf("StellarisOn config %+v", c)
	}
	// Actor placement inherited from the baseline.
	if c.ServerlessActors {
		t.Fatal("StellarisOn changed actor placement of a serverful baseline")
	}
	c2 := StellarisOn(MinionsRLLike(base()))
	if !c2.ServerlessActors {
		t.Fatal("StellarisOn dropped MinionsRL's serverless actors")
	}
}

func TestBaselinesTrainEndToEnd(t *testing.T) {
	for name, mk := range map[string]func(core.Config) core.Config{
		"vanilla":   Vanilla,
		"minionsrl": MinionsRLLike,
		"parrl":     PARRLLike,
	} {
		cfg := mk(base())
		tr, err := core.NewTrainer(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err := tr.Run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res.Rounds.Rows) == 0 {
			t.Fatalf("%s recorded no rounds", name)
		}
		// And the Stellaris integration of each baseline.
		str, err := core.NewTrainer(StellarisOn(cfg))
		if err != nil {
			t.Fatalf("%s+stellaris: %v", name, err)
		}
		if _, err := str.Run(); err != nil {
			t.Fatalf("%s+stellaris: %v", name, err)
		}
	}
}
