package serverless

import (
	"fmt"
	"sort"

	"stellaris/internal/obs"
	"stellaris/internal/rng"
	"stellaris/internal/simclock"
)

// KeepAliveSeconds is how long an idle container stays warm before the
// platform reclaims it — ten minutes, "as the same in OpenWhisk" (§VII).
const KeepAliveSeconds = 600

// PoolConfig sizes one function pool: a homogeneous set of instances
// hosting function slots for one function kind.
type PoolConfig struct {
	// Kind names the function family ("learner", "parameter", "actor").
	Kind string
	// Instance is the backing instance type.
	Instance InstanceType
	// Instances is the number of VMs in the pool.
	Instances int
	// SlotsPerInstance caps concurrent functions per VM (the paper uses
	// four learner functions per V100 GPU).
	SlotsPerInstance int
	// Serverless selects per-invocation billing; false bills the whole
	// pool for elapsed wall time (the serverful baselines).
	Serverless bool
}

// Slots returns the pool-wide concurrency capacity.
func (c PoolConfig) Slots() int { return c.Instances * c.SlotsPerInstance }

// Invocation is passed to the function body when its slot begins
// executing.
type Invocation struct {
	Kind string
	// VM is the index of the instance hosting this invocation within
	// its pool — the placement input to hierarchical data passing
	// (same-VM functions exchange gradients over shared memory, §V-B).
	VM int
	// Submitted is the virtual time Invoke was called.
	Submitted float64
	// Started is when the container began executing (after queueing and
	// startup).
	Started float64
	// StartupDelay is the cold- or warm-start latency paid.
	StartupDelay float64
	// Cold reports whether this invocation paid a cold start.
	Cold bool
	// CostUSD is this invocation's bill under the paper's model: zero
	// until completion (the body sees the final value), and zero forever
	// on serverful pools, which bill wall time rather than invocations.
	CostUSD float64
}

// DurationFn computes an invocation's execution time once placement is
// known (the VM index determines data-passing tiers).
type DurationFn func(inv Invocation) float64

type queued struct {
	duration DurationFn
	body     func(inv Invocation)
	at       float64
}

type pool struct {
	cfg       PoolConfig
	busy      int
	busyVM    []int     // busy slots per instance
	warm      []float64 // expiry times of idle warm containers (sorted)
	queue     []queued
	cost      float64
	busyInt   float64 // ∫ busy dt for utilization
	lastT     float64
	invoked   int
	coldHits  int
	queueWait float64
}

// Platform simulates the serverless substrate. All methods must be
// called from DES event context (single goroutine).
type Platform struct {
	Clock *simclock.Clock
	Lat   *LatencyModel
	r     *rng.RNG
	pools map[string]*pool
	m     *platformMetrics
}

// platformMetrics is the platform's view into an obs registry. All
// durations are virtual seconds; the registry's clock should be the
// platform's simclock so span/sample timestamps line up.
type platformMetrics struct {
	invocations *obs.CounterVec   // serverless_invocations_total{kind}
	coldStarts  *obs.CounterVec   // serverless_cold_starts_total{kind}
	invSeconds  *obs.HistogramVec // serverless_invocation_seconds{kind}
	queueWait   *obs.HistogramVec // serverless_queue_wait_seconds{kind}
}

// Instrument publishes per-pool invocation counts, cold starts and
// virtual-time latency histograms into reg.
func (p *Platform) Instrument(reg *obs.Registry) {
	p.m = &platformMetrics{
		invocations: reg.CounterVec("serverless_invocations_total", "function invocations by pool", "kind"),
		coldStarts:  reg.CounterVec("serverless_cold_starts_total", "invocations that paid a cold start", "kind"),
		invSeconds:  reg.HistogramVec("serverless_invocation_seconds", "startup+execution time (virtual seconds)", obs.VirtualBuckets, "kind"),
		queueWait:   reg.HistogramVec("serverless_queue_wait_seconds", "slot queueing delay (virtual seconds)", obs.VirtualBuckets, "kind"),
	}
}

// NewPlatform builds a platform over clock with the given pools.
func NewPlatform(clock *simclock.Clock, lat *LatencyModel, seed uint64, cfgs ...PoolConfig) *Platform {
	p := &Platform{
		Clock: clock,
		Lat:   lat,
		r:     rng.New(seed),
		pools: make(map[string]*pool),
	}
	for _, c := range cfgs {
		if c.Slots() <= 0 {
			panic(fmt.Sprintf("serverless: pool %q has no slots", c.Kind))
		}
		p.pools[c.Kind] = &pool{cfg: c, busyVM: make([]int, c.Instances)}
	}
	return p
}

func (p *Platform) pool(kind string) *pool {
	pl, ok := p.pools[kind]
	if !ok {
		panic(fmt.Sprintf("serverless: unknown pool %q", kind))
	}
	return pl
}

// Prewarm provisions n warm containers in kind's pool, as Stellaris does
// before invoking parameter and learner functions (§VII). Pre-warming is
// free under the paper's cost model.
func (p *Platform) Prewarm(kind string, n int) {
	pl := p.pool(kind)
	for i := 0; i < n; i++ {
		pl.warm = append(pl.warm, p.Clock.Now()+KeepAliveSeconds)
	}
	sort.Float64s(pl.warm)
}

// Invoke submits a function of the given kind. dur computes its
// execution time once the invocation is placed on a VM; body runs (in
// event context) when the function *completes*, with the Invocation
// describing its timing and placement. If the pool is at capacity the
// request queues FIFO.
func (p *Platform) Invoke(kind string, dur DurationFn, body func(inv Invocation)) {
	pl := p.pool(kind)
	now := p.Clock.Now()
	if pl.busy >= pl.cfg.Slots() {
		pl.queue = append(pl.queue, queued{duration: dur, body: body, at: now})
		return
	}
	p.start(pl, queued{duration: dur, body: body, at: now})
}

// InvokeFixed is Invoke with a placement-independent duration.
func (p *Platform) InvokeFixed(kind string, duration float64, body func(inv Invocation)) {
	p.Invoke(kind, func(Invocation) float64 { return duration }, body)
}

// pickVM returns the least-loaded instance index (ties to the lowest
// index, keeping placement deterministic).
func (pl *pool) pickVM() int {
	best := 0
	for i := 1; i < len(pl.busyVM); i++ {
		if pl.busyVM[i] < pl.busyVM[best] {
			best = i
		}
	}
	return best
}

// start launches a queued invocation on a free slot.
func (p *Platform) start(pl *pool, q queued) {
	now := p.Clock.Now()
	p.accrueUtil(pl)
	pl.busy++
	pl.invoked++
	pl.queueWait += now - q.at
	if p.m != nil {
		p.m.invocations.With(pl.cfg.Kind).Inc()
		p.m.queueWait.With(pl.cfg.Kind).Observe(now - q.at)
	}
	vm := pl.pickVM()
	pl.busyVM[vm]++

	// Reap expired warm containers, then take one if available.
	cold := true
	var startup float64
	live := pl.warm[:0]
	for _, exp := range pl.warm {
		if exp > now {
			live = append(live, exp)
		}
	}
	pl.warm = live
	if len(pl.warm) > 0 {
		pl.warm = pl.warm[:len(pl.warm)-1]
		cold = false
		startup = p.Lat.WarmStart(p.r)
	} else {
		startup = p.Lat.ColdStart(p.r)
		pl.coldHits++
		if p.m != nil {
			p.m.coldStarts.With(pl.cfg.Kind).Inc()
		}
	}

	inv := Invocation{
		Kind:         pl.cfg.Kind,
		VM:           vm,
		Submitted:    q.at,
		Started:      now + startup,
		StartupDelay: startup,
		Cold:         cold,
	}
	duration := q.duration(inv)
	end := now + startup + duration
	p.Clock.At(end, func() {
		p.accrueUtil(pl)
		pl.busy--
		pl.busyVM[vm]--
		// The container returns to the warm pool with a fresh lease.
		pl.warm = append(pl.warm, p.Clock.Now()+KeepAliveSeconds)
		if pl.cfg.Serverless {
			// Billed per resource-second of execution; startup and
			// keep-alive are free (§VIII-A).
			inv.CostUSD = duration * pl.cfg.Instance.SlotRate(pl.cfg.SlotsPerInstance)
			pl.cost += inv.CostUSD
		}
		if p.m != nil {
			p.m.invSeconds.With(pl.cfg.Kind).Observe(startup + duration)
		}
		q.body(inv)
		// Admit queued work freed by this slot.
		if len(pl.queue) > 0 && pl.busy < pl.cfg.Slots() {
			next := pl.queue[0]
			pl.queue = pl.queue[1:]
			p.start(pl, next)
		}
	})
}

// WarmCount returns the number of live warm containers in kind's pool.
func (p *Platform) WarmCount(kind string) int {
	pl := p.pool(kind)
	now := p.Clock.Now()
	n := 0
	for _, exp := range pl.warm {
		if exp > now {
			n++
		}
	}
	return n
}

// QueueDepth returns the number of invocations waiting for a slot.
func (p *Platform) QueueDepth(kind string) int { return len(p.pool(kind).queue) }

// accrueUtil integrates busy-slot time up to now.
func (p *Platform) accrueUtil(pl *pool) {
	now := p.Clock.Now()
	pl.busyInt += float64(pl.busy) * (now - pl.lastT)
	pl.lastT = now
}

// Cost returns the accumulated dollar cost of kind's pool. For
// serverful pools the bill is the whole fleet for elapsed virtual time.
func (p *Platform) Cost(kind string) float64 {
	pl := p.pool(kind)
	if pl.cfg.Serverless {
		return pl.cost
	}
	return float64(pl.cfg.Instances) * pl.cfg.Instance.HourlyUSD / 3600 * p.Clock.Now()
}

// TotalCost sums Cost over all pools. Iteration is in sorted-kind order
// so repeated calls are bit-for-bit reproducible (map order would
// perturb float addition).
func (p *Platform) TotalCost() float64 {
	var total float64
	for _, kind := range p.Kinds() {
		total += p.Cost(kind)
	}
	return total
}

// Utilization returns the busy fraction of kind's slots over elapsed
// virtual time (the paper's GPU-utilization metric in Fig. 3a).
func (p *Platform) Utilization(kind string) float64 {
	pl := p.pool(kind)
	p.accrueUtil(pl)
	elapsed := p.Clock.Now()
	if elapsed <= 0 {
		return 0
	}
	return pl.busyInt / (elapsed * float64(pl.cfg.Slots()))
}

// Stats summarizes a pool's activity.
type Stats struct {
	Kind        string
	Invocations int
	ColdStarts  int
	MeanQueue   float64
	CostUSD     float64
	Utilization float64
}

// PoolStats returns a snapshot for kind.
func (p *Platform) PoolStats(kind string) Stats {
	pl := p.pool(kind)
	s := Stats{
		Kind:        kind,
		Invocations: pl.invoked,
		ColdStarts:  pl.coldHits,
		CostUSD:     p.Cost(kind),
		Utilization: p.Utilization(kind),
	}
	if pl.invoked > 0 {
		s.MeanQueue = pl.queueWait / float64(pl.invoked)
	}
	return s
}

// Kinds lists configured pools in sorted order.
func (p *Platform) Kinds() []string {
	out := make([]string, 0, len(p.pools))
	for k := range p.pools {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
