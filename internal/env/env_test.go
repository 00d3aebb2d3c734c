package env

import (
	"math"
	"testing"
	"testing/quick"

	"stellaris/internal/rng"
)

func TestRegistryNames(t *testing.T) {
	want := []string{"cartpole", "gravitas", "hopper", "humanoid", "invaders", "qberta", "walker2d"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names()[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestNewUnknown(t *testing.T) {
	if _, err := New("no-such-env"); err == nil {
		t.Fatal("unknown environment accepted")
	}
}

func TestNewSized(t *testing.T) {
	e, err := NewSized("invaders", 20)
	if err != nil {
		t.Fatal(err)
	}
	if e.ObsDim() != 3*20*20 {
		t.Fatalf("sized invaders obs %d", e.ObsDim())
	}
	// Non-image env ignores the frame size.
	h, err := NewSized("hopper", 20)
	if err != nil {
		t.Fatal(err)
	}
	if h.ObsDim() != 11 {
		t.Fatalf("hopper obs %d", h.ObsDim())
	}
}

// randomAction draws a valid action for the space.
func randomAction(as ActionSpace, r *rng.RNG) []float64 {
	if as.Continuous {
		a := make([]float64, as.Dim)
		for i := range a {
			a[i] = as.Low + (as.High-as.Low)*r.Float64()
		}
		return a
	}
	return []float64{float64(r.Intn(as.N))}
}

// TestAllEnvContracts drives every registered environment through full
// episodes checking the Env contract: obs length, reward finiteness,
// termination, and post-done behavior.
func TestAllEnvContracts(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			e, err := New(name)
			if err != nil {
				t.Fatal(err)
			}
			horizon := e.(interface{ MaxEpisodeSteps() int }).MaxEpisodeSteps()
			r := rng.New(7)
			obs := e.Reset(r)
			if len(obs) != e.ObsDim() {
				t.Fatalf("Reset obs length %d != ObsDim %d", len(obs), e.ObsDim())
			}
			steps := 0
			for {
				a := randomAction(e.ActionSpace(), r)
				next, rew, done := e.Step(a)
				steps++
				if len(next) != e.ObsDim() {
					t.Fatalf("Step obs length %d", len(next))
				}
				if math.IsNaN(rew) || math.IsInf(rew, 0) {
					t.Fatalf("non-finite reward %v at step %d", rew, steps)
				}
				for _, v := range next {
					if math.IsNaN(v) || math.IsInf(v, 0) {
						t.Fatalf("non-finite obs at step %d", steps)
					}
				}
				if done {
					break
				}
				if steps > horizon+5 {
					t.Fatalf("episode exceeded MaxEpisodeSteps %d", horizon)
				}
			}
			// Stepping after done is a no-op returning done.
			_, rew, done := e.Step(randomAction(e.ActionSpace(), r))
			if !done || rew != 0 {
				t.Fatalf("post-done Step gave rew=%v done=%v", rew, done)
			}
			// Reset revives the episode.
			obs = e.Reset(r)
			if len(obs) != e.ObsDim() {
				t.Fatal("Reset after done broken")
			}
			_, _, done = e.Step(randomAction(e.ActionSpace(), r))
			if done && horizon > 1 && name != "qberta" {
				// qberta can legitimately die on step 1 (hop off apex).
				t.Fatal("env terminated immediately after Reset")
			}
		})
	}
}

// TestEnvDeterminism: same seed + same action sequence → identical
// trajectories.
func TestEnvDeterminism(t *testing.T) {
	for _, name := range Names() {
		e1, err1 := New(name)
		e2, err2 := New(name)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		r1, r2 := rng.New(42), rng.New(42)
		ar := rng.New(9)
		o1 := e1.Reset(r1)
		o2 := e2.Reset(r2)
		for i := range o1 {
			if o1[i] != o2[i] {
				t.Fatalf("%s: Reset differs at %d", name, i)
			}
		}
		for s := 0; s < 50; s++ {
			a := randomAction(e1.ActionSpace(), ar)
			n1, rw1, d1 := e1.Step(a)
			n2, rw2, d2 := e2.Step(a)
			if rw1 != rw2 || d1 != d2 {
				t.Fatalf("%s: step %d diverged (r %v vs %v)", name, s, rw1, rw2)
			}
			for i := range n1 {
				if n1[i] != n2[i] {
					t.Fatalf("%s: obs diverged at step %d", name, s)
				}
			}
			if d1 {
				break
			}
		}
	}
}

func TestCartPoleBalancesLongerWithStabilizer(t *testing.T) {
	// A crude proportional controller should outlast random actions.
	e := NewCartPole()
	r := rng.New(1)
	run := func(policy func(obs []float64) int) int {
		obs := e.Reset(r)
		for steps := 0; ; steps++ {
			a := policy(obs)
			next, _, done := e.Step([]float64{float64(a)})
			if done {
				return steps
			}
			obs = next
		}
	}
	ctrl := run(func(obs []float64) int {
		if obs[2]+0.5*obs[3] > 0 {
			return 1
		}
		return 0
	})
	random := run(func([]float64) int { return r.Intn(2) })
	if ctrl <= random {
		t.Fatalf("controller (%d steps) not better than random (%d)", ctrl, random)
	}
	if ctrl < 400 {
		t.Fatalf("proportional controller only lasted %d steps", ctrl)
	}
}

func TestHopperThrustGainsHeightOverTime(t *testing.T) {
	// Constant full thrust with neutral angle should keep the SLIP
	// hopping (alive) for the full horizon.
	e := NewHopper()
	r := rng.New(3)
	e.Reset(r)
	for i := 0; i < 400; i++ {
		_, _, done := e.Step([]float64{1, 0, 0})
		if done {
			t.Fatalf("neutral hopping fell at step %d", i)
		}
	}
}

func TestHopperForwardAngleMovesForward(t *testing.T) {
	e := NewHopper()
	r := rng.New(4)
	e.Reset(r)
	var lastVX float64
	for i := 0; i < 300; i++ {
		obs, _, done := e.Step([]float64{0.6, -0.5, 0.4})
		if done {
			break
		}
		lastVX = obs[1]
	}
	if lastVX <= 0 {
		t.Fatalf("backward-angled leg did not produce forward motion (vx=%v)", lastVX)
	}
}

func TestInvadersShootingScores(t *testing.T) {
	g := NewInvaders(22)
	r := rng.New(5)
	g.Reset(r)
	var total float64
	for i := 0; i < g.MaxEpisodeSteps(); i++ {
		// Always fire from the current column.
		_, rew, done := g.Step([]float64{3})
		total += rew
		if done {
			break
		}
	}
	if total <= 0 {
		t.Fatalf("constant firing scored %v", total)
	}
}

func TestQbertaColoringRewards(t *testing.T) {
	g := NewQberta(22)
	r := rng.New(6)
	g.Reset(r)
	// First hop down-left lands on an uncolored cube: +25.
	_, rew, _ := g.Step([]float64{2})
	if rew != 25 {
		t.Fatalf("first hop reward %v, want 25", rew)
	}
	// Hopping back up to the colored apex earns nothing.
	_, rew2, _ := g.Step([]float64{1})
	if rew2 != 0 {
		t.Fatalf("revisit reward %v, want 0", rew2)
	}
}

func TestQbertaFallOffEnds(t *testing.T) {
	g := NewQberta(22)
	r := rng.New(7)
	g.Reset(r)
	_, _, done := g.Step([]float64{0}) // up-left from the apex = off
	if !done {
		t.Fatal("hopping off the pyramid did not end the episode")
	}
}

func TestGravitasCrashEnds(t *testing.T) {
	g := NewGravitas(22)
	r := rng.New(8)
	g.Reset(r)
	done := false
	for i := 0; i < g.MaxEpisodeSteps() && !done; i++ {
		_, _, done = g.Step([]float64{0}) // free fall
	}
	if !done {
		t.Fatal("free fall never crashed")
	}
}

func TestFrameStackObsLayout(t *testing.T) {
	g := NewInvaders(22)
	r := rng.New(9)
	o1 := g.Reset(r)
	if len(o1) != 3*22*22 {
		t.Fatalf("obs length %d", len(o1))
	}
	o2, _, _ := g.Step([]float64{0})
	// After one step, the previous newest frame becomes channel 1.
	n := 22 * 22
	for i := 0; i < n; i++ {
		if o2[n+i] != o1[i] {
			t.Fatal("frame stack did not shift the previous frame to channel 1")
		}
	}
}

func TestClipHelper(t *testing.T) {
	f := func(v float64) bool {
		c := clip(v, -1, 1)
		return c >= -1 && c <= 1 && (v < -1 || v > 1 || c == v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestControlCost(t *testing.T) {
	if got := controlCost(0.5, []float64{1, 2}); got != 2.5 {
		t.Fatalf("controlCost = %v", got)
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration accepted")
		}
	}()
	Register("cartpole", func() Env { return NewCartPole() })
}
