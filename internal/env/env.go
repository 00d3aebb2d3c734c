// Package env implements the RL environments Stellaris trains on.
//
// The paper evaluates on three MuJoCo tasks (Hopper, Walker2d, Humanoid)
// and three Atari games (SpaceInvaders, Qbert, Gravitar). Neither suite
// is available offline or in pure Go, so this package provides synthetic
// equivalents that exercise the same code paths (documented in
// DESIGN.md §2):
//
//   - hopper   — planar spring-loaded-inverted-pendulum (SLIP) hopper
//   - walker2d — dual-leg SLIP walker
//   - humanoid — multi-link balance-and-locomote chain
//   - invaders — grid shooter rendered to stacked image frames
//   - qberta   — pyramid-hopping game rendered to stacked image frames
//   - gravitas — thrust-vector navigation game, stacked image frames
//   - cartpole — classic control task used by the test suite
//
// Continuous tasks use dense shaped rewards (alive bonus + forward
// velocity - control cost) with termination on falling, like their MuJoCo
// counterparts; image tasks use sparse score rewards through the CNN
// policy path, like Atari.
package env

import (
	"fmt"
	"sort"

	"stellaris/internal/rng"
)

// ActionSpace describes an environment's action interface.
type ActionSpace struct {
	// Continuous selects between a box action space (true) and a
	// discrete one (false).
	Continuous bool
	// Dim is the action vector length for continuous spaces.
	Dim int
	// N is the number of discrete actions for discrete spaces.
	N int
	// Low and High bound each continuous action coordinate.
	Low, High float64
}

// Env is a single-agent episodic environment. Implementations own their
// state and are not safe for concurrent use; each actor holds its own
// instance (exactly as each serverless actor holds its own simulator
// copy in the paper).
type Env interface {
	// ObsDim returns the flattened observation width.
	ObsDim() int
	// ActionSpace describes the action interface.
	ActionSpace() ActionSpace
	// Reset starts a new episode and returns the initial observation.
	Reset(r *rng.RNG) []float64
	// Step advances one timestep. For discrete spaces the action is a
	// one-element slice holding the action index.
	Step(action []float64) (obs []float64, reward float64, done bool)
}

// Constructor builds a fresh environment instance.
type Constructor func() Env

var registry = map[string]Constructor{}

// Register installs a constructor under name; it panics on duplicates so
// wiring errors surface at init time.
func Register(name string, c Constructor) {
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("env: duplicate registration of %q", name))
	}
	registry[name] = c
}

// New builds the named environment or returns an error listing the
// registered names.
func New(name string) (Env, error) {
	c, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("env: unknown environment %q (have %v)", name, Names())
	}
	return c(), nil
}

// NewSized builds the named environment with an explicit frame size for
// the image-observation games (frameSize <= 0 or a non-image name keeps
// the default). Smaller frames shrink CNN compute quadratically, which
// the benchmark harness uses to keep paper-shaped experiments tractable
// on CPU; the network architecture is unchanged.
func NewSized(name string, frameSize int) (Env, error) {
	if frameSize > 0 {
		switch name {
		case "invaders":
			return NewInvaders(frameSize), nil
		case "qberta":
			return NewQberta(frameSize), nil
		case "gravitas":
			return NewGravitas(frameSize), nil
		}
	}
	return New(name)
}

// Names returns the registered environment names in sorted order.
func Names() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// clip bounds v to [lo, hi].
func clip(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// controlCost returns the standard quadratic action penalty coef·Σa².
func controlCost(coef float64, action []float64) float64 {
	var s float64
	for _, a := range action {
		s += a * a
	}
	return coef * s
}
