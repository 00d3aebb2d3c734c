package core

import (
	"math"
	"testing"

	"stellaris/internal/autoscale"
	"stellaris/internal/leaktest"
)

// tinyConfig is a fast CartPole training config for integration tests.
func tinyConfig() Config {
	return Config{
		Env: "cartpole", Algo: "ppo", Seed: 3,
		Rounds: 2, UpdatesPerRound: 4,
		NumActors: 4, ActorSteps: 32, BatchSize: 128, Hidden: 16,
		LearningRate: 0.0003,
	}
}

func runCfg(t *testing.T, cfg Config) *Result {
	t.Helper()
	res, err := runJoined(t, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestTrainerCompletesRounds(t *testing.T) {
	res := runCfg(t, tinyConfig())
	if len(res.Rounds.Rows) != 2 {
		t.Fatalf("recorded %d rounds, want 2", len(res.Rounds.Rows))
	}
	if res.Episodes == 0 {
		t.Fatal("no episodes completed")
	}
	if res.TotalCostUSD <= 0 {
		t.Fatal("no cost accrued")
	}
	if res.WallSec <= 0 {
		t.Fatal("no virtual time elapsed")
	}
	if res.LearnerInvocations == 0 {
		t.Fatal("no learner invocations")
	}
	for _, row := range res.Rounds.Rows {
		if math.IsNaN(row.Reward) {
			t.Fatal("NaN reward row")
		}
		if row.CostUSD < 0 || row.DurationSec < 0 {
			t.Fatalf("bad row %+v", row)
		}
	}
}

func TestTrainerDeterministicPerSeed(t *testing.T) {
	a := runCfg(t, tinyConfig())
	b := runCfg(t, tinyConfig())
	if a.FinalReward != b.FinalReward || a.TotalCostUSD != b.TotalCostUSD ||
		a.WallSec != b.WallSec || a.Episodes != b.Episodes {
		t.Fatalf("same seed diverged: %+v vs %+v", a.FinalReward, b.FinalReward)
	}
	rowsA, rowsB := a.Rounds.Rows, b.Rounds.Rows
	for i := range rowsA {
		if rowsA[i] != rowsB[i] {
			t.Fatalf("round row %d differs", i)
		}
	}
	cfg := tinyConfig()
	cfg.Seed = 99
	c := runCfg(t, cfg)
	if c.FinalReward == a.FinalReward && c.WallSec == a.WallSec {
		t.Fatal("different seeds produced identical runs")
	}
}

func TestTrainerAllAggregators(t *testing.T) {
	if testing.Short() {
		t.Skip("five full trainer runs; skipped in -short")
	}
	for _, agg := range []AggregatorKind{AggStellaris, AggSoftsync, AggSSP, AggAsync, AggSync} {
		cfg := tinyConfig()
		cfg.Aggregator = agg
		res := runCfg(t, cfg)
		if len(res.Rounds.Rows) == 0 {
			t.Fatalf("%s recorded no rounds", agg)
		}
	}
}

func TestTrainerIMPACT(t *testing.T) {
	cfg := tinyConfig()
	cfg.Algo = "impact"
	res := runCfg(t, cfg)
	if len(res.Rounds.Rows) != 2 {
		t.Fatalf("IMPACT rounds %d", len(res.Rounds.Rows))
	}
}

func TestTrainerSyncActors(t *testing.T) {
	cfg := tinyConfig()
	cfg.SyncActors = true
	cfg.Aggregator = AggSync
	res := runCfg(t, cfg)
	if len(res.Rounds.Rows) != 2 {
		t.Fatalf("sync-actor rounds %d", len(res.Rounds.Rows))
	}
}

func TestTrainerServerlessCheaperThanServerful(t *testing.T) {
	cfg := tinyConfig()
	cfg.ServerlessLearners = true
	cfg.ServerlessActors = true
	sl := runCfg(t, cfg)
	cfg.ServerlessLearners = false
	cfg.ServerlessActors = false
	sf := runCfg(t, cfg)
	if sl.TotalCostUSD >= sf.TotalCostUSD {
		t.Fatalf("serverless $%v not cheaper than serverful $%v",
			sl.TotalCostUSD, sf.TotalCostUSD)
	}
}

func TestTrainerWallBudgetStops(t *testing.T) {
	leaktest.Check(t)
	cfg := tinyConfig()
	cfg.Rounds = 1000
	cfg.WallBudgetSec = 3
	res := runCfg(t, cfg)
	// Must stop within the budget plus one round of slack.
	if res.WallSec > 10 {
		t.Fatalf("budgeted run used %vs", res.WallSec)
	}
}

func TestTrainerTrackKL(t *testing.T) {
	cfg := tinyConfig()
	cfg.TrackKL = true
	res := runCfg(t, cfg)
	if len(res.KLTrace) != cfg.Rounds*cfg.UpdatesPerRound {
		t.Fatalf("KL trace has %d entries, want %d",
			len(res.KLTrace), cfg.Rounds*cfg.UpdatesPerRound)
	}
	for _, kl := range res.KLTrace {
		if kl < 0 || math.IsNaN(kl) {
			t.Fatalf("bad KL %v", kl)
		}
	}
}

func TestTrainerStalenessHistogramPopulated(t *testing.T) {
	cfg := tinyConfig()
	cfg.Aggregator = AggAsync
	res := runCfg(t, cfg)
	if res.Staleness.Total() == 0 {
		t.Fatal("staleness histogram empty")
	}
}

func TestTrainerBreakdownCoversComponents(t *testing.T) {
	res := runCfg(t, tinyConfig())
	shares := res.Breakdown.Shares()
	var sum float64
	for _, s := range shares {
		sum += s
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("breakdown shares sum to %v", sum)
	}
	if res.Breakdown.Total(CompGradCompute) <= 0 ||
		res.Breakdown.Total(CompActorSample) <= 0 {
		t.Fatal("core components not accounted")
	}
}

func TestTrainerHPCInstances(t *testing.T) {
	cfg := tinyConfig()
	cfg.HPC = true
	cfg.GPUs = 8
	res := runCfg(t, cfg)
	if len(res.Rounds.Rows) != 2 {
		t.Fatal("HPC run incomplete")
	}
}

func TestTrainerImageEnv(t *testing.T) {
	if testing.Short() {
		t.Skip("CNN forward/backward passes dominate the package runtime; skipped in -short")
	}
	cfg := tinyConfig()
	cfg.Env = "invaders"
	cfg.FrameSize = 20
	cfg.BatchSize = 64
	cfg.ActorSteps = 16
	res := runCfg(t, cfg)
	if len(res.Rounds.Rows) != 2 {
		t.Fatal("image-env run incomplete")
	}
}

func TestTrainerInvalidEnv(t *testing.T) {
	leaktest.Check(t)
	cfg := tinyConfig()
	cfg.Env = "not-an-env"
	if _, err := NewTrainer(cfg); err == nil {
		t.Fatal("invalid env accepted")
	}
}

func TestTrainerLearnerUtilizationBounds(t *testing.T) {
	res := runCfg(t, tinyConfig())
	if res.LearnerUtilization < 0 || res.LearnerUtilization > 1 {
		t.Fatalf("utilization %v out of [0,1]", res.LearnerUtilization)
	}
}

func TestTrainerEqualRowsEpisodesMonotone(t *testing.T) {
	res := runCfg(t, tinyConfig())
	prev := 0
	for _, row := range res.Rounds.Rows {
		if row.Episodes < prev {
			t.Fatal("episode counter decreased")
		}
		prev = row.Episodes
	}
}

func TestTrainerFailureInjection(t *testing.T) {
	cfg := tinyConfig()
	cfg.FailureRate = 0.15
	res := runCfg(t, cfg)
	if res.Failures == 0 {
		t.Fatal("no failures injected at 15% rate")
	}
	// Training still completes all rounds despite retries.
	if len(res.Rounds.Rows) != cfg.Rounds {
		t.Fatalf("rounds %d with failures", len(res.Rounds.Rows))
	}
}

func TestTrainerFailureRateValidation(t *testing.T) {
	cfg := tinyConfig()
	cfg.FailureRate = 1.5
	if _, err := NewTrainer(cfg); err == nil {
		t.Fatal("invalid failure rate accepted")
	}
}

func TestTrainerHierarchicalPassingFaster(t *testing.T) {
	// With multiple learner VMs, hierarchical passing must not be
	// slower than forcing every gradient through the cache.
	mk := func(cacheOnly bool) float64 {
		cfg := tinyConfig()
		cfg.GPUs = 2
		cfg.CacheOnlyPassing = cacheOnly
		res := runCfg(t, cfg)
		return res.Breakdown.Total(CompGradSubmit)
	}
	hier := mk(false)
	cache := mk(true)
	if hier > cache {
		t.Fatalf("hierarchical submit time %v exceeds cache-only %v", hier, cache)
	}
}

func TestTrainerProfileSummaries(t *testing.T) {
	res := runCfg(t, tinyConfig())
	if len(res.Profile) != 3 {
		t.Fatalf("profile kinds %d, want actor/learner/parameter", len(res.Profile))
	}
	for _, s := range res.Profile {
		if s.Count == 0 || s.Mean <= 0 {
			t.Fatalf("profile %q not populated: %+v", s.Kind, s)
		}
	}
}

func TestTrainerColdStartsBounded(t *testing.T) {
	// Pre-warming plus keep-alive should hold cold starts to roughly
	// one per container, not one per invocation.
	res := runCfg(t, tinyConfig())
	if res.ColdStarts > res.LearnerInvocations {
		t.Fatalf("%d cold starts for %d learner invocations",
			res.ColdStarts, res.LearnerInvocations)
	}
}

func TestTrainerAutoscale(t *testing.T) {
	cfg := tinyConfig()
	cfg.NumActors = 8
	cfg.Rounds = 3
	// A schedule that shrinks to 2 actors after round 0 must still
	// complete training and must cut the actor-sampling volume.
	cfg.Autoscale = autoscale.NewSchedule(func(round int) int { return 2 })
	scaled := runCfg(t, cfg)
	cfg.Autoscale = nil
	static := runCfg(t, cfg)
	if len(scaled.Rounds.Rows) != cfg.Rounds {
		t.Fatalf("autoscaled run recorded %d rounds", len(scaled.Rounds.Rows))
	}
	sInv := scaled.Profile[0] // "actor" (summaries sorted by kind)
	tInv := static.Profile[0]
	if sInv.Kind != "actor" || tInv.Kind != "actor" {
		t.Fatalf("profile order unexpected: %+v", scaled.Profile)
	}
	if sInv.Count >= tInv.Count {
		t.Fatalf("autoscaled actor bursts %d not fewer than static %d", sInv.Count, tInv.Count)
	}
}

func TestTrainerAutoscaleUtilizationCompletes(t *testing.T) {
	cfg := tinyConfig()
	cfg.NumActors = 8
	cfg.Autoscale = autoscale.NewUtilization()
	cfg.ServerlessActors = true
	res := runCfg(t, cfg)
	if len(res.Rounds.Rows) != cfg.Rounds {
		t.Fatalf("utilization-scaled run recorded %d rounds", len(res.Rounds.Rows))
	}
}

func TestTrainerWarmStartFromWeights(t *testing.T) {
	first := runCfg(t, tinyConfig())
	cfg := tinyConfig()
	cfg.InitWeights = first.FinalWeights
	second := runCfg(t, cfg)
	if len(second.Rounds.Rows) != cfg.Rounds {
		t.Fatal("warm-started run incomplete")
	}
	// Wrong length is rejected.
	cfg.InitWeights = first.FinalWeights[:10]
	if _, err := NewTrainer(cfg); err == nil {
		t.Fatal("short InitWeights accepted")
	}
}

func TestEvaluateGreedy(t *testing.T) {
	res := runCfg(t, tinyConfig())
	rep, err := Evaluate(tinyConfig(), res.FinalWeights, 4, 9)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Episodes != 4 || len(rep.Returns) != 4 {
		t.Fatalf("eval report %+v", rep)
	}
	if rep.MeanReturn <= 0 || rep.MeanLength <= 0 {
		t.Fatalf("degenerate eval %+v", rep)
	}
	// Architecture mismatch is rejected.
	if _, err := Evaluate(tinyConfig(), res.FinalWeights[:5], 2, 1); err == nil {
		t.Fatal("short weights accepted by Evaluate")
	}
}
