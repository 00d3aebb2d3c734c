// Package simclock is the discrete-event simulation (DES) engine behind
// Stellaris's serverless platform model.
//
// Every latency in the system — actor sampling time, learner gradient
// computation, cold starts, cache round-trips — is a *modeled* duration;
// the engine advances a virtual clock between events instead of
// sleeping. This has three properties the reproduction needs (DESIGN.md
// §5): runs are deterministic for a given seed, experiments that took
// hours of AWS time replay in seconds of CPU time, and virtual time can
// be priced with the paper's cost model as if it ran on the paper's
// hardware.
//
// Events scheduled for the same instant fire in scheduling order
// (a monotone sequence number breaks ties), so the simulation is fully
// reproducible.
package simclock

import (
	"container/heap"
	"fmt"
)

// event is a scheduled callback.
type event struct {
	at  float64
	seq uint64
	fn  func()
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Clock is a virtual-time event loop. It is not safe for concurrent use:
// the whole simulation runs on the caller's goroutine, which is what
// makes event ordering deterministic.
type Clock struct {
	now     float64
	seq     uint64
	pending eventHeap
	stopped bool
}

// New returns a clock at time zero.
func New() *Clock { return &Clock{} }

// Now returns the current virtual time in seconds.
func (c *Clock) Now() float64 { return c.now }

// At schedules fn at absolute virtual time t (>= Now).
func (c *Clock) At(t float64, fn func()) {
	if t < c.now {
		panic(fmt.Sprintf("simclock: scheduling into the past (%.6f < %.6f)", t, c.now))
	}
	c.seq++
	heap.Push(&c.pending, &event{at: t, seq: c.seq, fn: fn})
}

// After schedules fn d seconds from now. Negative delays are clamped to
// zero (an immediate event at the current instant).
func (c *Clock) After(d float64, fn func()) { //lint:allow reach benchmark-only: benchmark/simrungs schedules with it
	if d < 0 {
		d = 0
	}
	c.At(c.now+d, fn)
}

// Step fires the next pending event, advancing the clock, and reports
// whether an event was fired.
func (c *Clock) Step() bool {
	if len(c.pending) == 0 {
		return false
	}
	e := heap.Pop(&c.pending).(*event)
	c.now = e.at
	e.fn()
	return true
}

// Run fires events until none remain or Stop is called.
func (c *Clock) Run() { //lint:allow reach benchmark-only: benchmark/simrungs runs the clock with it
	c.stopped = false
	for !c.stopped && c.Step() {
	}
}

// RunUntil fires events with time <= deadline; the clock ends at
// min(deadline, last event time).
func (c *Clock) RunUntil(deadline float64) {
	c.stopped = false
	for !c.stopped && len(c.pending) > 0 && c.pending[0].at <= deadline {
		c.Step()
	}
}

// Stop makes Run/RunUntil return after the current event completes.
func (c *Clock) Stop() { c.stopped = true }

// Pending returns the number of scheduled events.
func (c *Clock) Pending() int { return len(c.pending) }
