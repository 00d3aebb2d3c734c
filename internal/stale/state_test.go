package stale

import (
	"testing"
)

// A restored aggregator must make the same aggregation decisions as the
// original: same β_k anchor (δ_max) and the same queued gradients.
func TestStellarisStateRoundTrip(t *testing.T) {
	s := NewStellaris()
	s.UpdatesPerRound = 2 // leave warmup quickly
	// Warmup offers measure δ_max.
	s.Offer(&Entry{LearnerID: 0, BornVersion: 0, Grad: []float64{1}}, 0)
	s.Offer(&Entry{LearnerID: 1, BornVersion: 0, Grad: []float64{1}}, 1)
	// Post-warmup offer that queues (high staleness vs tight β).
	s.D = 0.01
	if g := s.Offer(&Entry{LearnerID: 0, BornVersion: 0, Grad: []float64{2}, MeanRatio: 1}, 9); g != nil {
		t.Fatalf("expected offer to queue, aggregated %d", len(g))
	}
	if len(s.queue) != 1 {
		t.Fatalf("queue length %d", len(s.queue))
	}

	st := s.ExportState()
	// Mutating the source must not alias the snapshot.
	s.queue[0].Grad[0] = 99
	if st.Queue[0].Grad[0] == 99 {
		t.Fatal("exported queue aliases the aggregator")
	}

	r := NewStellaris()
	r.D, r.V, r.UpdatesPerRound = s.D, s.V, s.UpdatesPerRound
	r.RestoreState(st)
	if r.deltaMax != st.DeltaMax {
		t.Fatalf("deltaMax %v vs %v", r.deltaMax, st.DeltaMax)
	}
	if len(r.queue) != 1 {
		t.Fatalf("restored queue length %d", len(r.queue))
	}
	// The restored queue must flush under the same conditions: a fresh
	// low-staleness offer brings the mean under β or hits MaxQueue the
	// same way on both instances.
	g := r.Offer(&Entry{LearnerID: 2, BornVersion: 9, Grad: []float64{3}}, 9)
	s.RestoreState(st) // reset source to the snapshot too
	g2 := s.Offer(&Entry{LearnerID: 2, BornVersion: 9, Grad: []float64{3}}, 9)
	if (g == nil) != (g2 == nil) {
		t.Fatal("restored aggregator diverged from source")
	}
	if g != nil && len(g) != len(g2) {
		t.Fatalf("group sizes diverged: %d vs %d", len(g), len(g2))
	}
}
