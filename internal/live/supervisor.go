package live

import (
	"fmt"
	"time"
)

// supervise runs one worker body under crash supervision: panics are
// converted to errors, and any error (panic, dial failure, exhausted
// stale-weight fallbacks, …) restarts the body with exponential backoff
// until the per-worker restart budget is spent, at which point the run
// fails fast through the usual fail() path. A clean (nil) return from
// the body — the pipeline stopping — ends supervision.
//
// The body receives a ready callback it must invoke once its resources
// (cache client, environment, model) are rebuilt; the time from failure
// to ready feeds the live_recovery_seconds histogram. Bodies rebuild
// their transient state on every invocation but keep durable identity —
// RNG streams and sequence counters live in the enclosing closure, so a
// restarted worker continues its stream rather than replaying it.
func (r *run) supervise(role string, id int, body func(ready func()) error) {
	restarts := 0
	var failedAt time.Time
	ready := func() {
		if failedAt.IsZero() {
			return
		}
		r.m.recoverySeconds.Observe(time.Since(failedAt).Seconds())
		failedAt = time.Time{}
	}
	for !r.stop.Load() {
		err, panicked := runGuarded(body, ready)
		if err == nil {
			return // clean stop
		}
		if panicked {
			// A crash (as opposed to a mere error) ships with its
			// postmortem: the flight recorder holds the lineage events that
			// immediately preceded the panic. That holds for a panic the
			// run's end overtook, too.
			r.flightDump(flightPanicRestart)
		}
		if r.stop.Load() {
			// The pipeline is already shutting down; a worker error now is
			// an artifact of teardown (closed server, cancelled cache ops),
			// not a crash to recover from.
			return
		}
		restarts++
		r.m.restarts.With(role).Inc()
		if restarts > r.opt.RestartBudget {
			r.fail(fmt.Errorf("live: %s %d: restart budget (%d) exhausted, last error: %w",
				role, id, r.opt.RestartBudget, err))
			return
		}
		failedAt = time.Now()
		shift := restarts - 1
		if shift > 6 {
			shift = 6
		}
		backoff := r.opt.restartBackoff << uint(shift)
		if backoff > 2*time.Second {
			backoff = 2 * time.Second
		}
		select {
		case <-time.After(backoff):
		case <-r.done:
		}
	}
}

// runGuarded invokes body, converting a panic into an error so the
// supervisor can treat crashes and failures uniformly (panicked
// distinguishes the two for flight-recorder purposes). Deferred cleanup
// inside the body (client Close, etc.) still runs during unwinding.
func runGuarded(body func(ready func()) error, ready func()) (err error, panicked bool) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("live: worker panic: %v", p)
			panicked = true
		}
	}()
	return body(ready), false
}

// injectPanic is the fault-injection point at the top of every
// supervised iteration: the tests' deterministic panicHook.
func (r *run) injectPanic(role string, id int) {
	if hook := r.opt.panicHook; hook != nil && hook(role, id) {
		panic(fmt.Sprintf("injected %s %d panic", role, id))
	}
}
