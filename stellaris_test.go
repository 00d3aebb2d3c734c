package stellaris_test

import (
	"os"
	"testing"

	"stellaris"
)

func TestTrainSmoke(t *testing.T) {
	res, err := stellaris.Train(stellaris.Config{
		Env: "cartpole", Algo: "ppo", Seed: 1,
		Rounds: 2, UpdatesPerRound: 2,
		NumActors: 4, ActorSteps: 32, BatchSize: 128, Hidden: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds.Rows) != 2 {
		t.Fatalf("rounds %d", len(res.Rounds.Rows))
	}
	if res.TotalCostUSD <= 0 || res.Episodes == 0 {
		t.Fatalf("result not populated: %+v", res)
	}
}

func TestTrainInvalidConfig(t *testing.T) {
	if _, err := stellaris.Train(stellaris.Config{Algo: "nope"}); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestAggregatorConstantsExported(t *testing.T) {
	kinds := []stellaris.AggregatorKind{
		stellaris.AggStellaris, stellaris.AggSoftsync, stellaris.AggSSP,
		stellaris.AggAsync, stellaris.AggSync,
	}
	seen := map[stellaris.AggregatorKind]bool{}
	for _, k := range kinds {
		if k == "" || seen[k] {
			t.Fatalf("bad aggregator constant %q", k)
		}
		seen[k] = true
	}
}

func TestSaveLoadWeightsRoundTrip(t *testing.T) {
	res, err := stellaris.Train(stellaris.Config{
		Env: "cartpole", Seed: 2, Rounds: 1, UpdatesPerRound: 2,
		NumActors: 4, ActorSteps: 32, BatchSize: 128, Hidden: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/ck.bin"
	if err := stellaris.SaveWeights(path, 7, res.FinalWeights); err != nil {
		t.Fatal(err)
	}
	version, w, err := stellaris.LoadWeights(path)
	if err != nil {
		t.Fatal(err)
	}
	if version != 7 || len(w) != len(res.FinalWeights) {
		t.Fatalf("loaded version %d, %d weights", version, len(w))
	}
	for i := range w {
		if w[i] != res.FinalWeights[i] {
			t.Fatal("weights corrupted through checkpoint")
		}
	}
	// Warm start + evaluate through the public API.
	rep, err := stellaris.Evaluate(stellaris.Config{Env: "cartpole", Hidden: 16}, w, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Episodes != 3 {
		t.Fatalf("eval episodes %d", rep.Episodes)
	}
}

func TestLoadWeightsMissingFile(t *testing.T) {
	if _, _, err := stellaris.LoadWeights("/nonexistent/ck.bin"); err == nil {
		t.Fatal("missing checkpoint accepted")
	}
	// Nor is a file that is not an SLB1 weights payload: the gob encoding
	// an early build wrote (frozen here: WeightsMsg{7, [1 2]}), an empty
	// file, a truncated header — each an error, never a panic.
	for name, content := range map[string]string{
		"gob":              "0\x7f\x03\x01\x01\nWeightsMsg\x01\xff\x80\x00\x01\x02\x01\aVersion\x01\x04\x00\x01\aWeights\x01\xff\x82\x00\x00\x00\x17\xff\x81\x02\x01\x01\t[]float64\x01\xff\x82\x00\x01\b\x00\x00\v\xff\x80\x01\x0e\x01\x02\xfe\xf0?@\x00",
		"empty":            "",
		"truncated header": "SLB1\x01\x01\x00",
	} {
		path := t.TempDir() + "/ck.bin"
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		if v, w, err := stellaris.LoadWeights(path); err == nil {
			t.Errorf("%s: accepted as version %d with %d weights", name, v, len(w))
		}
	}
}

func TestLiveTrainFacade(t *testing.T) {
	rep, err := stellaris.LiveTrain(stellaris.LiveOptions{
		Env: "cartpole", Seed: 3, Actors: 2, Learners: 1,
		Updates: 2, ActorSteps: 16, BatchSize: 32, Hidden: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Updates < 2 {
		t.Fatalf("live facade completed %d updates", rep.Updates)
	}
}
