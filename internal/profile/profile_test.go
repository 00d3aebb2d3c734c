package profile

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
)

func TestEstimatorBasics(t *testing.T) {
	e := NewEstimator(0.5)
	if e.Count() != 0 || e.EWMA() != 0 || e.Rate() != 0 || e.Concurrency() != 0 {
		t.Fatal("fresh estimator not zero")
	}
	e.Observe(2, 0)
	if e.EWMA() != 2 || e.Mean() != 2 {
		t.Fatalf("first observation: ewma %v mean %v", e.EWMA(), e.Mean())
	}
	e.Observe(4, 1)
	if e.EWMA() != 3 { // 0.5*4 + 0.5*2
		t.Fatalf("ewma %v, want 3", e.EWMA())
	}
	if e.Mean() != 3 {
		t.Fatalf("mean %v, want 3", e.Mean())
	}
}

func TestEstimatorRateLittlesLaw(t *testing.T) {
	e := NewEstimator(0.2)
	// One 2-second invocation arriving every 0.5s → λ=2/s, W≈2 → L≈4.
	for i := 0; i < 100; i++ {
		e.Observe(2, float64(i)*0.5)
	}
	if r := e.Rate(); math.Abs(r-2) > 0.05 {
		t.Fatalf("rate %v, want ~2", r)
	}
	if c := e.Concurrency(); c != 4 {
		t.Fatalf("concurrency %d, want 4", c)
	}
}

func TestEstimatorAlphaValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("alpha 0 accepted")
		}
	}()
	NewEstimator(0)
}

func TestEstimatorMonotoneCountProperty(t *testing.T) {
	f := func(durs []float64) bool {
		e := NewEstimator(0.3)
		at := 0.0
		n := 0
		for _, d := range durs {
			if d <= 0 || math.IsNaN(d) || math.IsInf(d, 0) {
				continue
			}
			e.Observe(d, at)
			at += 0.1
			n++
			if e.Count() != n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSetAndSummaries(t *testing.T) {
	s := NewSet()
	s.For("learner").Observe(1, 0)
	s.For("learner").Observe(1, 1)
	s.For("actor").Observe(3, 0)
	sums := s.Summaries()
	if len(sums) != 2 || sums[0].Kind != "actor" || sums[1].Kind != "learner" {
		t.Fatalf("summaries %+v", sums)
	}
	if sums[1].Count != 2 || sums[1].Mean != 1 {
		t.Fatalf("learner summary %+v", sums[1])
	}
	if s.For("learner") != s.For("learner") {
		t.Fatal("For not idempotent")
	}
}

func TestSetConcurrent(t *testing.T) {
	s := NewSet()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				s.For("k").Observe(1, float64(i*100+j))
			}
		}(i)
	}
	wg.Wait()
	if s.For("k").Count() != 1600 {
		t.Fatalf("count %d", s.For("k").Count())
	}
}
