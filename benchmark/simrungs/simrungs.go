// Package simrungs holds the stage ladder's rungs on the simulator's
// primitives. It exists apart from the benchmark's main package because
// importing internal/simclock declares a package DES-clocked to
// stellaris-lint, which then (rightly) forbids wall-clock reads in it:
// here are the calls, and the wall-clock spans around them stay in the
// ladder.
package simrungs

import (
	"stellaris/internal/serverless"
	"stellaris/internal/simclock"
)

// Rungs is a virtual clock with a warm serverless learner pool on it.
type Rungs struct {
	clock *simclock.Clock
	plat  *serverless.Platform
}

// New builds the clock and a four-slot, pre-warmed learner pool.
func New(seed uint64) *Rungs {
	clock := simclock.New()
	plat := serverless.NewPlatform(clock, serverless.DefaultLatencyModel(), seed, serverless.PoolConfig{
		Kind: "learner", Instance: serverless.P32xlarge, Instances: 1, SlotsPerInstance: 4, Serverless: true,
	})
	plat.Prewarm("learner", 4)
	return &Rungs{clock: clock, plat: plat}
}

// Events schedules and fires n events: n × (Clock.After + Clock.Step).
func (r *Rungs) Events(n int) {
	for i := 0; i < n; i++ {
		r.clock.After(1, func() {})
		r.clock.Step()
	}
}

// Invoke runs one fixed-duration learner invocation to completion:
// Platform.InvokeFixed + Clock.Run.
func (r *Rungs) Invoke() {
	r.plat.InvokeFixed("learner", 0.1, func(serverless.Invocation) {})
	r.clock.Run()
}
