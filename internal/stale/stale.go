// Package stale implements Stellaris's staleness-aware gradient
// aggregation (Eqs. 3-4, §V-C) and the aggregation baselines of the
// Fig. 11(a) ablation: Softsync, Stale Synchronous Parallel (SSP), pure
// asynchronous, and fully synchronous aggregation.
//
// Staleness of a gradient is measured in policy versions: a gradient
// computed from version j and aggregated when the policy is at version
// c has staleness δ = c - j.
package stale

import (
	"fmt"
	"math"

	"stellaris/internal/tensor"
)

// Entry is a gradient waiting in the parameter function's queue.
type Entry struct {
	LearnerID int
	// BornVersion is the policy version the learner pulled.
	BornVersion int
	Grad        []float64
	Samples     int
	// MeanRatio is the learner's importance-ratio summary for the
	// truncation tracker.
	MeanRatio float64
	// KL is the learner's mean KL(π ‖ μ), consumed by the parameter
	// function's adaptive KL-coefficient controller.
	KL float64
	// Enqueued is the virtual time the gradient reached the queue.
	Enqueued float64
	// Trace is the gradient's causal-tracing ID ("grad/<learner>/<seq>"),
	// carried so the aggregation hop can be attributed to the artifact.
	// Empty for entries restored from a checkpoint (their pre-crash
	// lineage lives in the flight-recorder dump, not the new store).
	Trace string
}

// Staleness returns the entry's staleness at currentVersion.
func (e *Entry) Staleness(currentVersion int) int {
	d := currentVersion - e.BornVersion
	if d < 0 {
		return 0
	}
	return d
}

// Policy decides when queued gradients aggregate and how staleness
// weights them. Implementations are driven from DES event context and
// need no internal locking.
type Policy interface {
	// Name identifies the policy ("stellaris", "softsync", "ssp",
	// "async", "sync").
	Name() string
	// Offer presents a newly arrived gradient at the given policy
	// version. A non-nil return is the group to aggregate now; nil
	// delays aggregation (the entry stays queued).
	Offer(e *Entry, currentVersion int) []*Entry
	// Weight returns the aggregation weight for a gradient of
	// staleness delta (Eq. 4 for Stellaris).
	Weight(delta int) float64
	// QueueLen reports how many gradients are delayed.
	QueueLen() int
}

// Combined is the output of one aggregation.
type Combined struct {
	// Grad is the weighted mean gradient (1/H)Σ w_j g_j.
	Grad []float64
	// MeanStaleness and MaxStaleness describe the group.
	MeanStaleness float64
	MaxStaleness  int
	// Stalenesses lists each member's δ (feeds the Fig. 3b PDFs).
	Stalenesses []int
	// Size is the number of gradients combined.
	Size int
}

// Combine applies pol's staleness weights to group at currentVersion and
// returns the weighted-average gradient.
func Combine(pol Policy, group []*Entry, currentVersion int) *Combined {
	if len(group) == 0 {
		panic("stale: Combine of empty group")
	}
	out := &Combined{
		Grad:        make([]float64, len(group[0].Grad)),
		Size:        len(group),
		Stalenesses: make([]int, 0, len(group)),
	}
	var sum float64
	for _, e := range group {
		if len(e.Grad) != len(out.Grad) {
			panic(fmt.Sprintf("stale: gradient length mismatch %d vs %d", len(e.Grad), len(out.Grad)))
		}
		d := e.Staleness(currentVersion)
		out.Stalenesses = append(out.Stalenesses, d)
		sum += float64(d)
		if d > out.MaxStaleness {
			out.MaxStaleness = d
		}
		tensor.Axpy(pol.Weight(d), e.Grad, out.Grad)
	}
	tensor.Scale(1/float64(len(group)), out.Grad)
	out.MeanStaleness = sum / float64(len(group))
	return out
}

// Stellaris is the paper's adaptive aggregation: round 0 runs with the
// threshold disabled to measure δ_max in a purely asynchronous
// environment, then round k enforces mean-staleness ≤ β_k = δ_max·d^k
// (Eq. 3) and weights each gradient by α₀/δ^{1/v} (Eq. 4, applied here
// as the relative weight 1/δ^{1/v} with the optimizer carrying α₀).
type Stellaris struct {
	// D is the exponential decay factor d ∈ (0, 1]; d→1 approaches pure
	// asynchrony, d→0 forces synchronization.
	D float64
	// V is the learning-rate smoothness root factor v (Eq. 4).
	V int
	// WarmupRounds is how long the threshold stays disabled while
	// δ_max is measured (the paper uses the first training round).
	WarmupRounds int
	// UpdatesPerRound converts policy-update versions into training
	// rounds: Eq. 3's round index k is version/UpdatesPerRound
	// (minimum 1).
	UpdatesPerRound int
	// MaxQueue is a liveness backstop: once this many gradients are
	// delayed the queue flushes regardless of the threshold. Entries
	// already queued keep their staleness frozen until the next policy
	// update, so without a backstop a tight late-round β_k can only be
	// satisfied by unbounded dilution with fresh gradients.
	MaxQueue int

	queue    []*Entry
	deltaMax float64
}

// NewStellaris returns the aggregation policy with the paper's defaults
// d=0.96, v=3 (§VIII-A).
func NewStellaris() *Stellaris {
	return &Stellaris{D: 0.96, V: 3, WarmupRounds: 1, UpdatesPerRound: 8, MaxQueue: 16}
}

// StellarisState is the serializable adaptive-threshold state: the
// warmup-measured δ_max that anchors Eq. 3's β_k schedule, plus any
// gradients delayed in the aggregation queue. Checkpoints persist it so
// a resumed run enforces the same staleness threshold — and aggregates
// the same queued gradients — as the uninterrupted run.
type StellarisState struct {
	DeltaMax float64
	Queue    []*Entry
}

// ExportState snapshots the aggregator for a checkpoint. The queue
// entries are copied (gradients included) so later mutation of the
// aggregator does not alias the checkpoint.
func (s *Stellaris) ExportState() StellarisState {
	st := StellarisState{DeltaMax: s.deltaMax}
	for _, e := range s.queue {
		cp := *e
		cp.Grad = append([]float64(nil), e.Grad...)
		st.Queue = append(st.Queue, &cp)
	}
	return st
}

// RestoreState replaces the aggregator's adaptive state with a
// previously exported snapshot.
func (s *Stellaris) RestoreState(st StellarisState) {
	s.deltaMax = st.DeltaMax
	s.queue = nil
	for _, e := range st.Queue {
		cp := *e
		cp.Grad = append([]float64(nil), e.Grad...)
		s.queue = append(s.queue, &cp)
	}
}

// roundOf converts a policy version into a training-round index.
func (s *Stellaris) roundOf(version int) int {
	u := s.UpdatesPerRound
	if u < 1 {
		u = 1
	}
	return version / u
}

// Name implements Policy.
func (s *Stellaris) Name() string { return "stellaris" }

// QueueLen implements Policy.
func (s *Stellaris) QueueLen() int { return len(s.queue) }

// DeltaMax returns the measured warmup maximum staleness.
func (s *Stellaris) DeltaMax() float64 { return s.deltaMax }

// Beta returns the staleness threshold β_k for round k (Eq. 3).
func (s *Stellaris) Beta(round int) float64 {
	dm := s.deltaMax
	if dm < 1 {
		// A fully synchronous warmup saw no staleness; keep a unit
		// allowance so β stays meaningful.
		dm = 1
	}
	return dm * math.Pow(s.D, float64(round))
}

// Offer implements Policy.
func (s *Stellaris) Offer(e *Entry, currentVersion int) []*Entry {
	if s.roundOf(currentVersion) < s.WarmupRounds {
		// Threshold disabled: aggregate immediately, measure δ_max.
		d := float64(e.Staleness(currentVersion))
		if d > s.deltaMax {
			s.deltaMax = d
		}
		return []*Entry{e}
	}
	s.queue = append(s.queue, e)
	// Warmup continues to observe the environment's raw staleness.
	if d := float64(e.Staleness(currentVersion)); d > s.deltaMax {
		s.deltaMax = d
	}
	var sum float64
	for _, q := range s.queue {
		sum += float64(q.Staleness(currentVersion))
	}
	avg := sum / float64(len(s.queue))
	if avg <= s.Beta(s.roundOf(currentVersion)) || (s.MaxQueue > 0 && len(s.queue) >= s.MaxQueue) {
		group := s.queue
		s.queue = nil
		return group
	}
	return nil
}

// Weight implements Policy (Eq. 4: 1/δ^{1/v}; δ=0 or v=0 means no
// modulation).
func (s *Stellaris) Weight(delta int) float64 {
	if delta <= 0 || s.V <= 0 {
		return 1
	}
	return 1 / math.Pow(float64(delta), 1/float64(s.V))
}

// Softsync is Zhang et al. (IJCAI 2016): aggregation waits for a fixed
// group of C gradients and weights each by 1/(δ+1).
type Softsync struct {
	// C is the group size to collect before aggregating.
	C     int
	queue []*Entry
}

// NewSoftsync returns Softsync collecting groups of c gradients.
func NewSoftsync(c int) *Softsync {
	if c < 1 {
		c = 1
	}
	return &Softsync{C: c}
}

// Name implements Policy.
func (s *Softsync) Name() string { return "softsync" }

// QueueLen implements Policy.
func (s *Softsync) QueueLen() int { return len(s.queue) }

// Offer implements Policy.
func (s *Softsync) Offer(e *Entry, _ int) []*Entry {
	s.queue = append(s.queue, e)
	if len(s.queue) >= s.C {
		group := s.queue
		s.queue = nil
		return group
	}
	return nil
}

// Weight implements Policy.
func (s *Softsync) Weight(delta int) float64 { return 1 / float64(delta+1) }

// SSP is Ho et al. (NIPS 2013): gradients aggregate immediately, but
// dispatch of new learner work is gated so no learner runs more than
// Bound versions ahead of the slowest outstanding gradient; the
// orchestrator enforces the gate via CanDispatch.
type SSP struct {
	// Bound is the staleness slack s.
	Bound int
}

// NewSSP returns SSP with the given staleness bound.
func NewSSP(bound int) *SSP {
	if bound < 0 {
		bound = 0
	}
	return &SSP{Bound: bound}
}

// Name implements Policy.
func (s *SSP) Name() string { return "ssp" }

// QueueLen implements Policy.
func (s *SSP) QueueLen() int { return 0 }

// Offer implements Policy.
func (s *SSP) Offer(e *Entry, _ int) []*Entry { return []*Entry{e} }

// Weight implements Policy.
func (s *SSP) Weight(int) float64 { return 1 }

// CanDispatch reports whether a new learner may start given the oldest
// outstanding gradient's born version: fast learners pause until slow
// ones catch up.
func (s *SSP) CanDispatch(oldestOutstandingBorn, currentVersion int) bool {
	return currentVersion-oldestOutstandingBorn <= s.Bound
}

// PureAsync applies every gradient the instant it arrives with no
// staleness control — the Fig. 11(a) "pure asynchronous" baseline.
type PureAsync struct{}

// NewPureAsync returns the uncontrolled asynchronous policy.
func NewPureAsync() *PureAsync { return &PureAsync{} }

// Name implements Policy.
func (p *PureAsync) Name() string { return "async" }

// QueueLen implements Policy.
func (p *PureAsync) QueueLen() int { return 0 }

// Offer implements Policy.
func (p *PureAsync) Offer(e *Entry, _ int) []*Entry { return []*Entry{e} }

// Weight implements Policy.
func (p *PureAsync) Weight(int) float64 { return 1 }

// FullSync waits for gradients from all N learners of the round and
// averages them unweighted — the synchronous-learner architectures of
// Fig. 1(a)-(c) (RLlib-like and MinionsRL-like baselines).
type FullSync struct {
	// N is the number of gradients per synchronous round.
	N     int
	queue []*Entry
}

// NewFullSync returns synchronous aggregation over n learners.
func NewFullSync(n int) *FullSync {
	if n < 1 {
		n = 1
	}
	return &FullSync{N: n}
}

// Name implements Policy.
func (f *FullSync) Name() string { return "sync" }

// QueueLen implements Policy.
func (f *FullSync) QueueLen() int { return len(f.queue) }

// Offer implements Policy.
func (f *FullSync) Offer(e *Entry, _ int) []*Entry {
	f.queue = append(f.queue, e)
	if len(f.queue) >= f.N {
		group := f.queue
		f.queue = nil
		return group
	}
	return nil
}

// Weight implements Policy.
func (f *FullSync) Weight(int) float64 { return 1 }

// Admit is the rollout admission rule of a schedule whose learners pull
// batches: a new rollout may start only while the trajectories already
// admitted and not yet taken by a learner (waiting — in progress, queued
// or batched) stay under one batch of perBatch trajectories per idle
// learner plus one batch ahead. A trajectory admitted beyond that would
// wait for a learner while the policy moves on under it, so it is
// better rolled out later, under newer weights. The rule needs no
// tuning: supply follows demand at 2 learners or 20.
func Admit(waiting, idleLearners, perBatch int) bool {
	return waiting < perBatch*(idleLearners+1)
}
