// Package profile implements Stellaris's function profiler (§VII):
// online estimation of each function kind's execution time and arrival
// rate, collected in actual training and used to pre-warm containers
// ahead of invocations. The expected number of concurrently running
// functions — Little's law, L = λ·W — sizes the warm pool.
package profile

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// Estimator tracks one function kind's duration and arrival statistics.
// Safe for concurrent use.
type Estimator struct {
	mu sync.Mutex
	// alpha is the EWMA smoothing weight for durations.
	alpha float64

	count    int
	ewma     float64
	mean     float64
	lastAt   float64
	interArr float64 // EWMA of inter-arrival gaps
}

// NewEstimator returns an estimator with EWMA weight alpha (0 < alpha
// <= 1; 0.2 is a reasonable default).
func NewEstimator(alpha float64) *Estimator {
	if alpha <= 0 || alpha > 1 {
		panic(fmt.Sprintf("profile: alpha %v outside (0,1]", alpha))
	}
	return &Estimator{alpha: alpha}
}

// Observe records one execution: its duration and the (virtual) time it
// was submitted.
func (e *Estimator) Observe(duration, at float64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.count++
	if e.count == 1 {
		e.ewma = duration
		e.mean = duration
	} else {
		e.ewma = e.alpha*duration + (1-e.alpha)*e.ewma
		e.mean += (duration - e.mean) / float64(e.count)
		gap := at - e.lastAt
		if gap >= 0 {
			if e.interArr == 0 {
				e.interArr = gap
			} else {
				e.interArr = e.alpha*gap + (1-e.alpha)*e.interArr
			}
		}
	}
	e.lastAt = at
}

// Count returns the number of observations.
func (e *Estimator) Count() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.count
}

// EWMA returns the smoothed duration estimate (0 before any data).
func (e *Estimator) EWMA() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.ewma
}

// Mean returns the running mean duration.
func (e *Estimator) Mean() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.mean
}

// Rate returns the estimated arrival rate λ in invocations per second
// (0 before two observations).
func (e *Estimator) Rate() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.interArr <= 0 {
		return 0
	}
	return 1 / e.interArr
}

// Concurrency estimates the expected number of simultaneously running
// functions via Little's law (λ·W), rounded up — the warm-pool size the
// pre-warmer maintains.
func (e *Estimator) Concurrency() int {
	lam, w := e.Rate(), e.EWMA()
	if lam <= 0 || w <= 0 {
		return 0
	}
	return int(math.Ceil(lam * w))
}

// Summary is a point-in-time snapshot for reporting.
type Summary struct {
	Kind  string
	Count int
	Mean  float64
	EWMA  float64
	Rate  float64
}

// Snapshot captures the estimator state under the given kind label.
func (e *Estimator) Snapshot(kind string) Summary {
	return Summary{
		Kind:  kind,
		Count: e.Count(),
		Mean:  e.Mean(),
		EWMA:  e.EWMA(),
		Rate:  e.Rate(),
	}
}

// Set tracks estimators for several function kinds.
type Set struct {
	mu   sync.Mutex
	ests map[string]*Estimator
}

// NewSet returns an empty estimator set.
func NewSet() *Set { return &Set{ests: make(map[string]*Estimator)} }

// For returns (creating if needed) the estimator for kind.
func (s *Set) For(kind string) *Estimator {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.ests[kind]
	if !ok {
		e = NewEstimator(0.2)
		s.ests[kind] = e
	}
	return e
}

// Summaries returns snapshots for all kinds, sorted by kind.
func (s *Set) Summaries() []Summary {
	s.mu.Lock()
	kinds := make([]string, 0, len(s.ests))
	for k := range s.ests {
		kinds = append(kinds, k)
	}
	s.mu.Unlock()
	sort.Strings(kinds)
	out := make([]Summary, 0, len(kinds))
	for _, k := range kinds {
		out = append(out, s.For(k).Snapshot(k))
	}
	return out
}
