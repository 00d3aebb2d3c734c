package autoscale

import (
	"testing"
	"testing/quick"
)

func sig(active, max int, util float64, queue, pending int) Signals {
	return Signals{
		ActiveActors: active, MaxActors: max,
		LearnerUtilization: util, LearnerQueueDepth: queue,
		PendingSteps: pending, BatchSize: 512,
	}
}

func TestStatic(t *testing.T) {
	c := &Static{N: 12}
	if got := c.Decide(sig(4, 32, 0.5, 0, 0)); got != 12 {
		t.Fatalf("static -> %d", got)
	}
	// Clamped to the ceiling.
	if got := c.Decide(sig(4, 8, 0.5, 0, 0)); got != 8 {
		t.Fatalf("static clamp -> %d", got)
	}
	// Zero keeps the current count.
	if got := (&Static{}).Decide(sig(4, 8, 0.5, 0, 0)); got != 4 {
		t.Fatalf("static(0) -> %d", got)
	}
}

func TestUtilizationGrowsWhenStarved(t *testing.T) {
	c := NewUtilization()
	got := c.Decide(sig(8, 32, 0.2, 0, 100))
	if got <= 8 {
		t.Fatalf("starved learners should grow actors, got %d", got)
	}
}

func TestUtilizationShrinksWhenQueued(t *testing.T) {
	c := NewUtilization()
	got := c.Decide(sig(8, 32, 0.6, 5, 0))
	if got >= 8 {
		t.Fatalf("deep learner queue should shrink actors, got %d", got)
	}
}

func TestUtilizationShrinksWhenSaturated(t *testing.T) {
	c := NewUtilization()
	got := c.Decide(sig(8, 32, 0.97, 0, 0))
	if got >= 8 {
		t.Fatalf("saturated learners should shrink actors, got %d", got)
	}
}

func TestUtilizationHoldsInBand(t *testing.T) {
	c := NewUtilization()
	if got := c.Decide(sig(8, 32, 0.7, 0, 0)); got != 8 {
		t.Fatalf("in-band utilization should hold, got %d", got)
	}
}

func TestUtilizationNeverBelowOne(t *testing.T) {
	c := NewUtilization()
	if got := c.Decide(sig(1, 32, 0.99, 9, 0)); got != 1 {
		t.Fatalf("actor count dropped to %d", got)
	}
}

func TestSchedule(t *testing.T) {
	c := &Schedule{Fn: func(round int) int { return 2 * (round + 1) }}
	if got := c.Decide(Signals{Round: 2, MaxActors: 100, ActiveActors: 1}); got != 6 {
		t.Fatalf("schedule -> %d", got)
	}
	// Nil function holds.
	if got := (&Schedule{}).Decide(sig(5, 10, 0, 0, 0)); got != 5 {
		t.Fatalf("nil schedule -> %d", got)
	}
}

func TestDecisionsAlwaysInRangeProperty(t *testing.T) {
	controllers := []Controller{&Static{N: 7}, NewUtilization(), &Schedule{Fn: func(r int) int { return r * 3 }}}
	f := func(active, max uint8, util float64, queue, pending uint8) bool {
		s := Signals{
			ActiveActors:       int(active%32) + 1,
			MaxActors:          int(max%32) + 1,
			LearnerUtilization: util,
			LearnerQueueDepth:  int(queue % 8),
			PendingSteps:       int(pending) * 10,
			BatchSize:          256,
		}
		for _, c := range controllers {
			got := c.Decide(s)
			if got < 1 || got > maxOf(s.MaxActors, s.ActiveActors) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func maxOf(a, b int) int {
	if a > b {
		return a
	}
	return b
}
