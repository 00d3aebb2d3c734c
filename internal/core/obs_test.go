package core

import (
	"math"
	"testing"

	"stellaris/internal/obs"
)

// TestTrainerObsVirtualClock checks the DES-mode registry wiring: the
// registry follows the virtual clock, the Fig. 14 component histograms
// and the staleness mirror agree with the run's own accounting, and
// the round durations add up to the virtual timeline.
func TestTrainerObsVirtualClock(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := tinyConfig()
	cfg.Obs = reg
	res := runCfg(t, cfg)

	if res.Obs == nil {
		t.Fatal("Result.Obs missing despite Config.Obs")
	}
	// Snapshot timestamp is virtual seconds, matching the run's wall.
	if math.Abs(res.Obs.TimeSec-res.WallSec) > 1e-9 {
		t.Fatalf("snapshot at %v virtual seconds, run ended at %v", res.Obs.TimeSec, res.WallSec)
	}
	if p, ok := res.Obs.Find("des_updates_total", nil); !ok ||
		int(p.Value) != cfg.Rounds*cfg.UpdatesPerRound {
		t.Fatalf("des_updates_total = %+v (ok=%v), want %d", p, ok, cfg.Rounds*cfg.UpdatesPerRound)
	}

	// Component histograms mirror the Fig. 14 breakdown totals exactly.
	for _, comp := range BreakdownComponents {
		h, ok := res.Obs.FindHistogram("des_component_seconds", map[string]string{"component": comp})
		if !ok {
			t.Fatalf("missing des_component_seconds{component=%q}", comp)
		}
		want := res.Breakdown.Total(comp)
		if math.Abs(h.Sum-want) > 1e-9*math.Max(1, math.Abs(want)) {
			t.Fatalf("component %q: histogram sum %v, breakdown total %v", comp, h.Sum, want)
		}
	}

	// The staleness histogram mirrors the Fig. 3b metrics histogram.
	h, ok := res.Obs.FindHistogram("des_staleness", nil)
	if !ok || h.Count != int64(res.Staleness.Total()) {
		t.Fatalf("des_staleness count %d (ok=%v), metrics histogram has %d", h.Count, ok, res.Staleness.Total())
	}

	// Platform instrumentation rode along.
	if p, ok := res.Obs.Find("serverless_invocations_total", map[string]string{"kind": "learner"}); !ok ||
		int(p.Value) != res.LearnerInvocations {
		t.Fatalf("serverless_invocations_total{kind=learner} = %+v (ok=%v), want %d", p, ok, res.LearnerInvocations)
	}

	// One round duration per round, and together they span the virtual
	// timeline up to the last round's row.
	rh, ok := res.Obs.FindHistogram("des_round_seconds", nil)
	if !ok || rh.Count != int64(cfg.Rounds) {
		t.Fatalf("des_round_seconds count %d (ok=%v), want %d rounds", rh.Count, ok, cfg.Rounds)
	}
	rows := res.Rounds.Rows
	if last := rows[len(rows)-1].WallSec; math.Abs(rh.Sum-last) > 1e-9 {
		t.Fatalf("des_round_seconds sum %v, last round ended at %v virtual seconds", rh.Sum, last)
	}
}
