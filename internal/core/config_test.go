package core

import "testing"

func TestNormalizeDefaults(t *testing.T) {
	c, err := Config{}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if c.Env != "hopper" || c.Algo != "ppo" || c.Rounds != 50 ||
		c.UpdatesPerRound != 8 || c.NumActors != 8 || c.ActorSteps != 128 {
		t.Fatalf("defaults wrong: %+v", c)
	}
	if c.Aggregator != AggStellaris || c.DecayD != 0.96 || c.SmoothV != 3 || c.Rho != 1.0 {
		t.Fatalf("Stellaris parameter defaults wrong: %+v", c)
	}
	if c.GPUs != 1 || c.LearnersPerGPU != 4 || c.LearnerSlots() != 4 {
		t.Fatalf("capacity defaults wrong: %+v", c)
	}
	if c.SyncGroup != 4 || c.maxVirtualHours != 48 {
		t.Fatalf("sizing defaults wrong: %+v", c)
	}
}

func TestNormalizeErrors(t *testing.T) {
	cases := []Config{
		{Algo: "dqn"},
		{Aggregator: "mystery"},
		{DecayD: 1.5},
		{DecayD: -0.1},
		{Rho: -1},
		{LearningRate: -0.001},
	}
	for i, c := range cases {
		if _, err := c.Normalize(); err == nil {
			t.Fatalf("case %d accepted: %+v", i, c)
		}
	}
}

func TestNormalizePreservesExplicit(t *testing.T) {
	c, err := Config{
		Env: "cartpole", Algo: "impact", Rounds: 7, NumActors: 3,
		Aggregator: AggSSP, SyncGroup: 5, GPUs: 2, LearnersPerGPU: 2,
	}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if c.Rounds != 7 || c.NumActors != 3 || c.SyncGroup != 5 || c.LearnerSlots() != 4 {
		t.Fatalf("explicit values clobbered: %+v", c)
	}
}
