package core

import (
	"math"
	"runtime"
	"slices"
	"testing"

	"stellaris/internal/algo"
	"stellaris/internal/autoscale"
	"stellaris/internal/env"
	"stellaris/internal/leaktest"
	"stellaris/internal/rng"
)

// runJoined trains cfg and, whichever way Run returned, checks that
// every compute future was joined: all replicas built are back in the
// pool the moment Run is.
func runJoined(t *testing.T, cfg Config) (*Result, error) {
	t.Helper()
	tr, err := NewTrainer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tr.Run()
	if len(tr.idle) != tr.built {
		t.Fatalf("Run returned with %d of %d replicas still in a future", tr.built-len(tr.idle), tr.built)
	}
	return res, err
}

// sameBits compares two float vectors bit for bit.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestFuturesDeterministicAcrossPoolWidths trains each config with a
// one-replica pool (every future finishes before the next starts) and a
// four-replica pool (futures overlap and finish in any order) and
// requires the same outputs to the bit. Under -race it is also the
// test that several futures and the event loop run at once.
func TestFuturesDeterministicAcrossPoolWidths(t *testing.T) {
	leaktest.Check(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))

	rows := []struct {
		name string
		cfg  func() Config // built per run: a controller may keep state
	}{
		{"ppo/hopper", func() Config {
			c := tinyConfig()
			c.Env, c.TrackKL = "hopper", true
			return c
		}},
		{"impact", func() Config {
			// TargetUpdateFreq 1: the target network is refreshed at every
			// update, under the learners dispatched before it.
			c := tinyConfig()
			c.Algo = "impact"
			return c
		}},
		{"invaders-cnn", func() Config {
			c := tinyConfig()
			c.Env, c.FrameSize, c.BatchSize, c.ActorSteps = "invaders", 20, 32, 8
			c.Rounds, c.UpdatesPerRound = 1, 3
			return c
		}},
		{"sync-actors", func() Config {
			c := tinyConfig()
			c.SyncActors, c.Aggregator = true, AggSync
			return c
		}},
		{"ssp", func() Config {
			// Gated batches are dispatched later, from a completion event.
			c := tinyConfig()
			c.Aggregator = AggSSP
			c.NumActors, c.BatchSize, c.GPUs, c.LearnersPerGPU = 8, 32, 1, 1
			return c
		}},
		{"autoscale", func() Config {
			// Parks six of eight actors after round 0, wakes them after 1.
			c := tinyConfig()
			c.NumActors, c.Rounds = 8, 3
			c.Autoscale = &autoscale.Schedule{Fn: func(round int) int {
				if round%2 == 0 {
					return 2
				}
				return 8
			}}
			return c
		}},
		{"wall-budget", func() Config {
			// Stops early with futures outstanding.
			c := tinyConfig()
			c.Rounds, c.WallBudgetSec = 1000, 3
			return c
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			var res [2]*Result
			for i, procs := range []int{1, 4} {
				runtime.GOMAXPROCS(procs)
				r, err := runJoined(t, row.cfg())
				if err != nil {
					t.Fatalf("GOMAXPROCS %d: %v", procs, err)
				}
				res[i] = r
			}
			a, b := res[0], res[1]
			if !sameBits(a.FinalWeights, b.FinalWeights) {
				t.Error("FinalWeights differ")
			}
			if !sameBits(a.KLTrace, b.KLTrace) {
				t.Error("KLTrace differs")
			}
			if !sameBits([]float64{a.TotalCostUSD, a.LearnerTime, a.WallSec}, []float64{b.TotalCostUSD, b.LearnerTime, b.WallSec}) {
				t.Errorf("cost/learner time/wall differ: %v %v %v vs %v %v %v",
					a.TotalCostUSD, a.LearnerTime, a.WallSec, b.TotalCostUSD, b.LearnerTime, b.WallSec)
			}
			if a.Episodes != b.Episodes {
				t.Errorf("Episodes %d vs %d", a.Episodes, b.Episodes)
			}
			if len(a.Rounds.Rows) != len(b.Rounds.Rows) {
				t.Fatalf("%d vs %d round rows", len(a.Rounds.Rows), len(b.Rounds.Rows))
			}
			for i := range a.Rounds.Rows {
				if a.Rounds.Rows[i] != b.Rounds.Rows[i] {
					t.Errorf("round row %d: %+v vs %+v", i, a.Rounds.Rows[i], b.Rounds.Rows[i])
				}
			}
			va, pa := a.Staleness.PDF()
			vb, pb := b.Staleness.PDF()
			if a.Staleness.Total() != b.Staleness.Total() || !slices.Equal(va, vb) || !sameBits(pa, pb) {
				t.Error("staleness histograms differ")
			}
		})
	}
}

// TestTrainerRunErrorJoinsFutures covers the error return: the virtual
// deadline passes with every actor's first burst still computing.
func TestTrainerRunErrorJoinsFutures(t *testing.T) {
	leaktest.Check(t)
	cfg := tinyConfig()
	cfg.maxVirtualHours = 1e-9
	if _, err := runJoined(t, cfg); err == nil {
		t.Fatal("run past its virtual deadline returned no error")
	}
}

// TestTrajBytesFromShapes pins the shape-derived trajectory size to the
// formula it replaced, which measured a sampled trajectory.
func TestTrajBytesFromShapes(t *testing.T) {
	for _, name := range []string{"hopper", "cartpole", "invaders"} {
		cfg := tinyConfig()
		cfg.Env, cfg.FrameSize = name, 20
		tr, err := NewTrainer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		e, err := env.NewSized(cfg.Env, cfg.FrameSize)
		if err != nil {
			t.Fatal(err)
		}
		traj := tr.newModel().Rollout(e, rng.New(1), &algo.Episode{}, tr.cfg.ActorSteps, nil)
		s := traj.Steps[0]
		want := 8 * (len(s.Obs) + len(s.Action) + len(s.DistParams) + 2) * len(traj.Steps)
		if tr.trajBytes != want {
			t.Errorf("%s: trajBytes %d, measured %d", name, tr.trajBytes, want)
		}
	}
}
