// Package istrunc implements Stellaris's global importance-sampling
// truncation (Eq. 2, §V-A).
//
// In the asynchronous multi-learner setting each learner i holds a
// unique policy π_i; bounding only the local ratio π_i/μ leaves the
// *cross-learner* ratios unbounded, which is the policy-drift failure
// mode Fig. 5(a) illustrates. The fix is a global view: truncate every
// ratio by
//
//	R' = min(|min_i(π_i/μ)|, ρ)
//
// where the min ranges over the learner policies participating in the
// current aggregation group. The Tracker below maintains that group
// minimum on the parameter-function side; learners fetch it with the
// policy weights and cap their per-sample surrogate ratios at
// Tracker.Cap(). Each learner reports the *mean* ratio of its batch as
// its summary π_i/μ statistic — a per-sample cross-learner min is not
// observable without shipping every policy to every learner, and the
// batch mean is the estimator of the action-distribution discrepancy
// the ratios measure.
package istrunc

import (
	"math"
	"sync"

	"stellaris/internal/algo"
)

// Tracker maintains the aggregation group's minimum learner/actor ratio.
// It is safe for concurrent use (learner goroutines observe, the
// parameter function resets).
type Tracker struct {
	mu       sync.Mutex
	enabled  bool
	rho      float64
	groupMin float64
	count    int
}

// New returns a tracker with clip threshold rho; enabled=false turns the
// whole mechanism off (the Fig. 11(b) ablation).
func New(rho float64, enabled bool) *Tracker {
	return &Tracker{enabled: enabled, rho: rho, groupMin: math.Inf(1)}
}

// Observe folds one learner's batch ratio summary into the group
// minimum. Call when the learner's gradient joins the aggregation group.
func (t *Tracker) Observe(meanRatio float64) {
	if math.IsNaN(meanRatio) || meanRatio <= 0 {
		return
	}
	t.mu.Lock()
	if meanRatio < t.groupMin {
		t.groupMin = meanRatio
	}
	t.count++
	t.mu.Unlock()
}

// ResetGroup clears the group state after an aggregation completes: the
// next group starts fresh.
func (t *Tracker) ResetGroup() {
	t.mu.Lock()
	t.groupMin = math.Inf(1)
	t.count = 0
	t.mu.Unlock()
}

// View exports the truncation parameters a learner function embeds in
// its gradient computation.
func (t *Tracker) View() algo.Truncation {
	t.mu.Lock()
	defer t.mu.Unlock()
	gm := t.groupMin
	if math.IsInf(gm, 1) {
		// No group members yet: only ρ binds.
		gm = t.rho
	}
	return algo.Truncation{Enabled: t.enabled, GroupMin: gm, Rho: t.rho}
}

// TrackerState is the serializable group state (checkpointed so a
// resumed run truncates the in-flight aggregation group identically).
type TrackerState struct {
	GroupMin float64
	Count    int
}

// ExportState snapshots the current group for a checkpoint.
func (t *Tracker) ExportState() TrackerState {
	t.mu.Lock()
	defer t.mu.Unlock()
	return TrackerState{GroupMin: t.groupMin, Count: t.count}
}

// RestoreState replaces the group state with a previous snapshot.
func (t *Tracker) RestoreState(st TrackerState) {
	t.mu.Lock()
	t.groupMin = st.GroupMin
	t.count = st.Count
	t.mu.Unlock()
}
