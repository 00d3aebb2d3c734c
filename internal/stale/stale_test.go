package stale

import (
	"math"
	"testing"
	"testing/quick"
)

func entry(learner, born int) *Entry {
	return &Entry{LearnerID: learner, BornVersion: born, Grad: []float64{1, 2}}
}

func TestEntryStaleness(t *testing.T) {
	e := entry(0, 3)
	if e.Staleness(5) != 2 {
		t.Fatalf("staleness %d", e.Staleness(5))
	}
	if e.Staleness(2) != 0 {
		t.Fatal("negative staleness not clamped")
	}
}

func TestStellarisWarmupImmediate(t *testing.T) {
	s := NewStellaris()
	s.UpdatesPerRound = 4
	// Versions 0..3 are round 0: threshold disabled.
	for v := 0; v < 4; v++ {
		g := s.Offer(entry(0, v-2), v)
		if len(g) != 1 {
			t.Fatalf("warmup offer at version %d returned %d entries", v, len(g))
		}
	}
	if s.deltaMax != 2 {
		t.Fatalf("warmup deltaMax %v, want 2", s.deltaMax)
	}
}

func TestStellarisBetaDecay(t *testing.T) {
	s := NewStellaris()
	s.D = 0.5
	s.deltaMax = 8
	if s.Beta(0) != 8 || s.Beta(1) != 4 || s.Beta(3) != 1 {
		t.Fatalf("beta sequence wrong: %v %v %v", s.Beta(0), s.Beta(1), s.Beta(3))
	}
	// Zero-staleness warmup floors δ_max at 1.
	s.deltaMax = 0
	if s.Beta(0) != 1 {
		t.Fatalf("beta floor %v", s.Beta(0))
	}
}

func TestStellarisDelaysAboveThreshold(t *testing.T) {
	s := NewStellaris()
	s.UpdatesPerRound = 1
	s.D = 0.5
	s.deltaMax = 2 // β at round 10 = 2·0.5¹⁰ ≈ 0.002
	version := 10

	// A stale gradient alone exceeds the threshold: delayed.
	if g := s.Offer(entry(0, version-3), version); g != nil {
		t.Fatal("stale gradient aggregated despite threshold")
	}
	if len(s.queue) != 1 {
		t.Fatalf("queue length %d", len(s.queue))
	}
	// Fresh gradients dilute the average, but β≈0.002 needs many; the
	// MaxQueue backstop eventually flushes.
	s.MaxQueue = 4
	s.Offer(entry(1, version), version)
	s.Offer(entry(2, version), version)
	g := s.Offer(entry(3, version), version)
	if len(g) != 4 {
		t.Fatalf("backstop flush returned %d entries, want 4", len(g))
	}
	if len(s.queue) != 0 {
		t.Fatal("queue not drained by flush")
	}
}

func TestStellarisAggregatesUnderThreshold(t *testing.T) {
	s := NewStellaris()
	s.UpdatesPerRound = 1
	s.deltaMax = 10
	s.D = 1.0 // β stays 10
	version := 5
	g := s.Offer(entry(0, version-3), version) // staleness 3 ≤ 10
	if len(g) != 1 {
		t.Fatal("gradient under threshold not aggregated")
	}
}

func TestStellarisWeightEq4(t *testing.T) {
	s := NewStellaris()
	s.V = 3
	if s.Weight(0) != 1 {
		t.Fatal("zero staleness must have weight 1")
	}
	if got, want := s.Weight(8), 1/math.Pow(8, 1.0/3); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Weight(8) = %v, want %v", got, want)
	}
	// Larger v → less modulation (Fig. 13b's described behavior).
	s2 := NewStellaris()
	s2.V = 1
	if s.Weight(8) <= s2.Weight(8) {
		t.Fatal("larger v should modulate less")
	}
	// v=0 disables modulation.
	s3 := NewStellaris()
	s3.V = 0
	if s3.Weight(100) != 1 {
		t.Fatal("v=0 should disable modulation")
	}
}

func TestSoftsyncGroups(t *testing.T) {
	s := NewSoftsync(3)
	if g := s.Offer(entry(0, 0), 0); g != nil {
		t.Fatal("softsync flushed early")
	}
	if g := s.Offer(entry(1, 0), 0); g != nil {
		t.Fatal("softsync flushed early")
	}
	g := s.Offer(entry(2, 0), 0)
	if len(g) != 3 {
		t.Fatalf("softsync group %d, want 3", len(g))
	}
	if s.Weight(0) != 1 || s.Weight(1) != 0.5 {
		t.Fatalf("softsync weights %v %v", s.Weight(0), s.Weight(1))
	}
}

func TestSSPGateAndImmediateAggregation(t *testing.T) {
	s := NewSSP(2)
	if g := s.Offer(entry(0, 0), 5); len(g) != 1 {
		t.Fatal("SSP must aggregate immediately")
	}
	if !s.CanDispatch(3, 5) {
		t.Fatal("within bound should dispatch")
	}
	if s.CanDispatch(2, 5) {
		t.Fatal("beyond bound should pause")
	}
	if s.Weight(7) != 1 {
		t.Fatal("SSP weight must be 1")
	}
}

func TestPureAsyncImmediate(t *testing.T) {
	p := NewPureAsync()
	if g := p.Offer(entry(0, 0), 100); len(g) != 1 {
		t.Fatal("pure async must aggregate immediately")
	}
	if p.Weight(50) != 1 {
		t.Fatal("pure async weight must be 1")
	}
}

func TestFullSyncBarrier(t *testing.T) {
	f := NewFullSync(2)
	if g := f.Offer(entry(0, 0), 0); g != nil {
		t.Fatal("fullsync flushed before barrier")
	}
	g := f.Offer(entry(1, 0), 0)
	if len(g) != 2 {
		t.Fatalf("fullsync group %d", len(g))
	}
}

func TestCombineWeightedAverage(t *testing.T) {
	s := NewStellaris()
	s.V = 1 // weight = 1/δ
	e1 := &Entry{BornVersion: 10, Grad: []float64{2, 4}}
	e2 := &Entry{BornVersion: 8, Grad: []float64{4, 8}} // staleness 2, weight 0.5
	c := Combine(s, []*Entry{e1, e2}, 10)
	// (1·[2,4] + 0.5·[4,8]) / 2 = [2, 4].
	if c.Grad[0] != 2 || c.Grad[1] != 4 {
		t.Fatalf("combined grad %v", c.Grad)
	}
	if c.MeanStaleness != 1 || c.MaxStaleness != 2 || c.Size != 2 {
		t.Fatalf("combined stats %+v", c)
	}
	if len(c.Stalenesses) != 2 || c.Stalenesses[0] != 0 || c.Stalenesses[1] != 2 {
		t.Fatalf("stalenesses %v", c.Stalenesses)
	}
}

// TestCombineIntoMatchesCombine: CombineInto gives Combine's bits — on
// gradients holding ±0, a NaN and denormals, into a dst left dirty by
// the previous group — reuses dst when it has room, and writes nothing
// past the gradient's length.
func TestCombineIntoMatchesCombine(t *testing.T) {
	s := NewStellaris()
	group := []*Entry{
		{BornVersion: 9, Grad: []float64{math.Copysign(0, -1), 1e-310, 3, math.NaN(), -2.5}},
		{BornVersion: 6, Grad: []float64{math.Copysign(0, -1), -1e-310, 1.0 / 3, 1, math.Inf(1)}},
		{BornVersion: 10, Grad: []float64{0, 5e-324, -7, 2, 0.125}},
	}
	want := Combine(s, group, 10)
	const canary = 42.0
	back := []float64{9, 9, 9, 9, 9, canary, canary}
	for _, tc := range []struct {
		name  string
		dst   []float64
		reuse bool
	}{{"nil", nil, false}, {"short", make([]float64, 4), false}, {"dirty, oversized", back[:2], true}} {
		got := CombineInto(s, group, 10, tc.dst)
		if len(got.Grad) != len(want.Grad) {
			t.Fatalf("%s: %d values, want %d", tc.name, len(got.Grad), len(want.Grad))
		}
		for i := range want.Grad {
			if math.Float64bits(got.Grad[i]) != math.Float64bits(want.Grad[i]) {
				t.Fatalf("%s: value %d is %v, Combine gives %v", tc.name, i, got.Grad[i], want.Grad[i])
			}
		}
		if reused := cap(tc.dst) > 0 && &got.Grad[0] == &tc.dst[:1][0]; reused != tc.reuse {
			t.Fatalf("%s: reused dst = %v, want %v", tc.name, reused, tc.reuse)
		}
		if got.MeanStaleness != want.MeanStaleness || got.MaxStaleness != want.MaxStaleness || got.Size != want.Size {
			t.Fatalf("%s: stats %+v, Combine gives %+v", tc.name, got, want)
		}
	}
	if back[5] != canary || back[6] != canary {
		t.Fatalf("CombineInto wrote past the gradient: %v", back[5:])
	}
}

func TestCombinePanics(t *testing.T) {
	s := NewPureAsync()
	defer func() {
		if recover() == nil {
			t.Fatal("empty Combine accepted")
		}
	}()
	Combine(s, nil, 0)
}

func TestCombineLengthMismatchPanics(t *testing.T) {
	s := NewPureAsync()
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched gradient lengths accepted")
		}
	}()
	Combine(s, []*Entry{
		{Grad: []float64{1}},
		{Grad: []float64{1, 2}},
	}, 0)
}

func TestStellarisWeightMonotonicProperty(t *testing.T) {
	s := NewStellaris()
	f := func(a, b uint8) bool {
		d1, d2 := int(a%50), int(b%50)
		if d1 > d2 {
			d1, d2 = d2, d1
		}
		// Weight is non-increasing in staleness and within (0, 1].
		w1, w2 := s.Weight(d1), s.Weight(d2)
		return w1 >= w2 && w2 > 0 && w1 <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPolicyNames(t *testing.T) {
	cases := map[string]Policy{
		"stellaris": NewStellaris(),
		"softsync":  NewSoftsync(2),
		"ssp":       NewSSP(1),
		"async":     NewPureAsync(),
		"sync":      NewFullSync(2),
	}
	for want, p := range cases {
		if p.Name() != want {
			t.Fatalf("Name() = %q, want %q", p.Name(), want)
		}
	}
}

// TestStellarisLivenessProperty: for any random arrival pattern, the
// queue never exceeds MaxQueue — the backstop guarantees every offered
// gradient is aggregated within a bounded number of subsequent offers.
func TestStellarisLivenessProperty(t *testing.T) {
	f := func(seed uint32, arrivals []uint8) bool {
		s := NewStellaris()
		s.MaxQueue = 6
		s.UpdatesPerRound = 4
		s.deltaMax = 16
		version := 20 // deep in training where β is tight
		for _, a := range arrivals {
			born := version - int(a%12)
			if born < 0 {
				born = 0
			}
			group := s.Offer(entry(0, born), version)
			if len(s.queue) >= s.MaxQueue {
				return false
			}
			if group != nil {
				version++
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestCombineWeightBoundsProperty: a combined gradient's magnitude never
// exceeds the unweighted average of its members (weights are ≤ 1).
func TestCombineWeightBoundsProperty(t *testing.T) {
	f := func(ds []uint8) bool {
		if len(ds) == 0 {
			return true
		}
		s := NewStellaris()
		var group []*Entry
		for _, d := range ds {
			group = append(group, &Entry{BornVersion: 100 - int(d%30), Grad: []float64{1}})
		}
		c := Combine(s, group, 100)
		return c.Grad[0] <= 1.0000001 && c.Grad[0] > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestAdmit(t *testing.T) {
	cases := []struct {
		waiting, idle, perBatch int
		want                    bool
	}{
		{0, 0, 2, true},  // nothing waiting: always one batch ahead
		{1, 0, 2, true},  // the batch ahead is not full yet
		{2, 0, 2, false}, // one batch ahead of busy learners is enough
		{2, 1, 2, true},  // a hungry learner buys another batch
		{3, 1, 2, true},
		{4, 1, 2, false},
		{5, 2, 2, true},
		{6, 2, 2, false},
		{0, 0, 1, true}, // perBatch 1: one trajectory is a batch
		{1, 0, 1, false},
		{1, 1, 1, true},
		{7, 0, 2, false}, // an overshoot (racing actors) stays parked
	}
	for _, c := range cases {
		if got := Admit(c.waiting, c.idle, c.perBatch); got != c.want {
			t.Errorf("Admit(waiting %d, idle %d, perBatch %d) = %v, want %v",
				c.waiting, c.idle, c.perBatch, got, c.want)
		}
	}
}

// TestAdmitProperties: the rule is monotone in each argument, a hungry
// learner always gets its batch, and nothing is admitted beyond one
// batch per idle learner plus one.
func TestAdmitProperties(t *testing.T) {
	prop := func(w, i, p uint8) bool {
		waiting, idle, perBatch := int(w), int(i%32), int(p%16)+1
		ok := Admit(waiting, idle, perBatch)
		switch {
		case ok && waiting > 0 && !Admit(waiting-1, idle, perBatch):
			return false // less waiting never parks an admitted rollout
		case ok && (!Admit(waiting, idle+1, perBatch) || !Admit(waiting, idle, perBatch+1)):
			return false // nor does more demand or a larger batch
		case idle >= 1 && waiting < perBatch && !ok:
			return false
		case ok && waiting >= perBatch*(idle+1):
			return false
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// TestBackstop pins the one backstop rule both modes size MaxQueue by:
// two gradients per learner, never under 8.
func TestBackstop(t *testing.T) {
	for learners, want := range map[int]int{1: 8, 2: 8, 4: 8, 5: 10, 8: 16} {
		if got := Backstop(learners); got != want {
			t.Errorf("Backstop(%d) = %d, want %d", learners, got, want)
		}
	}
}
