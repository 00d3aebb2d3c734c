package cache

// Gray-failure machinery for the sharded client (DESIGN.md §11.6–11.7):
// a per-shard health score that notices alive-but-slow leaders, a
// circuit breaker that sheds load from a failing shard instead of
// queueing behind its timeouts, and a token-bucket retry budget shared
// across workers so a dead shard cannot amplify into a cluster-wide
// retry storm.

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

const (
	// healthAlpha is the latency EWMA smoothing factor: ~0.3 weights the
	// last handful of ops heavily enough to catch a brownout within a
	// window's worth of traffic without flapping on one slow op.
	healthAlpha = 0.3
	// defaultDegradeWindow is the sliding outcome window when
	// DialOptions.DegradeWindow is unset.
	defaultDegradeWindow = 16
	// degradeErrorRate is the windowed transport-error rate that counts
	// as degraded whatever the latency says.
	degradeErrorRate = 0.5
)

// shardHealth scores one shard from the client's vantage point: a
// latency EWMA over completed round trips plus an error-rate ring over
// the last N outcomes. The score only ever triggers action once the
// window has filled — a freshly dialed (or freshly failed-over) shard
// gets a full window of grace before it can be judged degraded, which
// is the hysteresis that stops failover flip-flopping.
type shardHealth struct {
	mu     sync.Mutex
	ewma   float64 // seconds
	warmed bool
	window []bool // ring of recent outcomes; true = transport failure
	idx    int
	filled bool
}

func newShardHealth(window int) *shardHealth {
	if window <= 0 {
		window = defaultDegradeWindow
	}
	return &shardHealth{window: make([]bool, window)}
}

// note records one completed round trip.
func (h *shardHealth) note(d time.Duration, failed bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := d.Seconds()
	if !h.warmed {
		h.ewma, h.warmed = s, true
	} else {
		h.ewma = healthAlpha*s + (1-healthAlpha)*h.ewma
	}
	h.window[h.idx] = failed
	h.idx++
	if h.idx == len(h.window) {
		h.idx, h.filled = 0, true
	}
}

// snapshot returns the current latency EWMA, the error rate over the
// window, and whether the window has filled since the last reset.
func (h *shardHealth) snapshot() (ewma time.Duration, errRate float64, filled bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	fails := 0
	for _, f := range h.window {
		if f {
			fails++
		}
	}
	return time.Duration(h.ewma * float64(time.Second)), float64(fails) / float64(len(h.window)), h.filled
}

// reset clears the score, granting a fresh window of grace. Called
// after a failover swaps the shard onto a new address.
func (h *shardHealth) reset() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.ewma, h.warmed = 0, false
	for i := range h.window {
		h.window[i] = false
	}
	h.idx, h.filled = 0, false
}

// ---- circuit breaker ----

// ErrBreakerOpen reports an operation shed by an open per-shard circuit
// breaker: the shard has failed BreakerThreshold consecutive ops and is
// cooling down, so the op failed fast instead of queueing behind
// another timeout.
type ErrBreakerOpen struct{ Shard int }

func (e *ErrBreakerOpen) Error() string {
	return fmt.Sprintf("cache: shard %d circuit breaker open", e.Shard)
}

// defaultBreakerCooldown is the open-state dwell when
// DialOptions.BreakerCooldown is unset.
const defaultBreakerCooldown = 500 * time.Millisecond

// breaker is a per-shard closed → open → half-open circuit in front of
// the retry loop. Closed passes everything; threshold consecutive
// transport failures open it; after the cooldown one probe op is let
// through (half-open) — success recloses, failure restarts the
// cooldown. threshold <= 0 disables the breaker entirely.
type breaker struct {
	mu        sync.Mutex
	threshold int
	cooldown  time.Duration
	fails     int // consecutive transport failures while closed
	open      bool
	openedAt  time.Time
	probing   bool
	opens     *atomic.Int64 // shared open-transition counter (may be nil)
	onOpen    func()        // per-breaker open hook (may be nil)
}

func newBreaker(threshold int, cooldown time.Duration, opens *atomic.Int64, onOpen func()) *breaker {
	if cooldown <= 0 {
		cooldown = defaultBreakerCooldown
	}
	return &breaker{threshold: threshold, cooldown: cooldown, opens: opens, onOpen: onOpen}
}

// allow reports whether a request may proceed. In the half-open state
// only one probe is admitted at a time.
func (b *breaker) allow() bool {
	if b == nil || b.threshold <= 0 {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.open {
		return true
	}
	if time.Since(b.openedAt) < b.cooldown {
		return false
	}
	if b.probing {
		return false
	}
	b.probing = true
	return true
}

// note records the transport-level outcome of an admitted request.
func (b *breaker) note(ok bool) {
	if b == nil || b.threshold <= 0 {
		return
	}
	b.mu.Lock()
	wasProbe := b.probing
	b.probing = false
	opened := false
	switch {
	case ok:
		b.open, b.fails = false, 0
	case b.open:
		if wasProbe {
			b.openedAt = time.Now() // failed probe: restart the cooldown
		}
	default:
		b.fails++
		if b.fails >= b.threshold {
			b.open, b.openedAt = true, time.Now()
			opened = true
			if b.opens != nil {
				b.opens.Add(1)
			}
		}
	}
	b.mu.Unlock()
	// The hook runs outside b.mu: it feeds a metrics registry with its
	// own locking, and breaker state is already settled by now.
	if opened && b.onOpen != nil {
		b.onOpen()
	}
}

// reset recloses the breaker. Called after a failover: the new leader
// deserves a clean slate.
func (b *breaker) reset() {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.open, b.fails, b.probing = false, 0, false
	b.mu.Unlock()
}

// ---- retry budget ----

// RetryBudget is a token-bucket cap on retry attempts, shared across
// every client it is installed on (DialOptions.RetryBudget). Each
// retry — not first attempts — spends one token; when the bucket runs
// dry the operation fails with a TransportError immediately instead of
// continuing its backoff schedule. Installing one budget across a
// worker fleet bounds the fleet's GLOBAL retry pressure against a dead
// shard: N workers cannot collectively exceed rate+burst attempts/s no
// matter how their individual backoff schedules align.
type RetryBudget struct {
	mu     sync.Mutex
	rate   float64 // tokens per second
	burst  float64
	tokens float64
	last   time.Time

	exhausted atomic.Int64
}

// NewRetryBudget returns a budget refilling at perSecond tokens/s with
// the given burst capacity (the bucket starts full). A burst below 1
// holds one second of refill, ceil(perSecond) tokens.
func NewRetryBudget(perSecond float64, burst int) *RetryBudget {
	if perSecond <= 0 {
		perSecond = 1
	}
	if burst < 1 {
		burst = int(math.Ceil(perSecond))
	}
	return &RetryBudget{
		rate: perSecond, burst: float64(burst), tokens: float64(burst), last: time.Now(),
	}
}

// Allow spends one retry token, reporting false (and counting an
// exhaustion) when the bucket is dry.
func (b *RetryBudget) Allow() bool {
	b.mu.Lock()
	now := time.Now()
	b.tokens += now.Sub(b.last).Seconds() * b.rate
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		b.mu.Unlock()
		return true
	}
	b.mu.Unlock()
	b.exhausted.Add(1)
	return false
}

// Exhausted counts retries denied since construction.
func (b *RetryBudget) Exhausted() int64 { return b.exhausted.Load() }
