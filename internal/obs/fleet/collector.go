package fleet

// Collector: one Tick() = one collection round — discover instances,
// scrape /metrics.json from each, ingest into the Store, compute
// derived fleet signals, GC, evaluate alert rules, and kick off profile
// captures for firing rules that request one. The Collector owns no
// goroutines except in-flight profile captures (bounded, waited on by
// Close); the tick cadence is the caller's problem — stellaris-obsd
// runs a ticker, tests and the DES path call Tick directly with a
// virtual clock.

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"stellaris/internal/cache"
	"stellaris/internal/cache/cluster"
	"stellaris/internal/obs"
	"stellaris/internal/obs/lineage"
)

// Defaults for Config zero values.
const (
	// DefaultTTLSec presumes an instance dead after this silence when
	// its registration does not advertise a TTL.
	DefaultTTLSec = 3.0
	// defaultForgetFactor sets ForgetSec = factor × TTL when unset.
	defaultForgetFactor = 6.0
	// DefaultRateWindowSec is the window for derived per-second rates.
	DefaultRateWindowSec = 10.0
	// DefaultProfileSeconds is the CPU profile duration.
	DefaultProfileSeconds = 5
	// DefaultProfileKeep is the newest-K capture retention on disk.
	DefaultProfileKeep = 4
	// maxScrapeBytes bounds one scraped snapshot.
	maxScrapeBytes = 32 << 20
)

// Config wires a Collector. Clock is the only required field.
type Config struct {
	// Clock timestamps every sample, state change and alert event.
	Clock obs.Clock
	// Targets are static scrape addresses (host:port of an obs endpoint)
	// used with or without discovery — obsd works cache-less on these.
	Targets []string
	// Discover, when set, is the cache connection instances self-register
	// into (heartbeats under cache.KeyObsInstancePrefix) and the source
	// of the cluster topology document.
	Discover cache.Cache
	// Fetch retrieves one URL (scrapes and profile captures). Nil
	// installs an HTTP fetcher with FetchTimeout. Injectable so DES-mode
	// fleets can serve snapshots without sockets.
	Fetch func(url string) ([]byte, error)
	// FetchTimeout bounds the default fetcher (default 2s).
	FetchTimeout time.Duration
	// PointsPerSeries caps each series ring (default 512).
	PointsPerSeries int
	// RetentionSec drops series silent this long (default 10 min; < 0
	// disables GC).
	RetentionSec float64
	// RateWindowSec is the window for derived rates (default 10s).
	RateWindowSec float64
	// TTLSec is the liveness fallback for registrations without one.
	TTLSec float64
	// ForgetSec removes an instance (and its series) from the fleet
	// after this silence (default 6× its TTL).
	ForgetSec float64
	// Rules configures the alert engine.
	Rules []Rule
	// EventLogCap bounds the alert transition log (default 256).
	EventLogCap int
	// ProfileDir enables continuous-profiling capture for firing rules
	// with Profile set: pprof heap + CPU snapshots land here, newest
	// ProfileKeep captures retained. Empty disables capture.
	ProfileDir string
	// ProfileSeconds is the CPU profile duration (default 5).
	ProfileSeconds int
	// ProfileKeep is the newest-K capture retention (default 4).
	ProfileKeep int
	// Lineage, when set, receives one event per alert transition so
	// alerts join the causal chains.
	Lineage *lineage.Store
	// Log receives structured progress lines (nil discards).
	Log *slog.Logger
	// Obs receives the collector's self-metrics (scrape counts, tick
	// durations are the caller's concern — obsd registers its own).
	Obs *obs.Registry
}

// InstanceStatus is one fleet member as the collector sees it.
type InstanceStatus struct {
	ID        string  `json:"id"`
	Role      string  `json:"role,omitempty"`
	Addr      string  `json:"addr,omitempty"`
	CacheAddr string  `json:"cache_addr,omitempty"`
	Shard     int     `json:"shard"`
	PID       int     `json:"pid,omitempty"`
	Build     string  `json:"build,omitempty"`
	Static    bool    `json:"static,omitempty"`
	Up        bool    `json:"up"`
	Beat      int64   `json:"beat,omitempty"`
	LastAlive float64 `json:"last_alive_sec"`
	TTLSec    float64 `json:"ttl_sec,omitempty"`
	Schema    int     `json:"schema_version,omitempty"`
	Scrapes   int64   `json:"scrapes"`
	Failures  int64   `json:"scrape_failures"`
	LastError string  `json:"last_error,omitempty"`
}

type instState struct {
	inst      cache.Instance
	static    bool
	lastBeat  int64
	lastPID   int
	lastAlive float64
	up        bool
	schema    int
	scrapes   int64
	failures  int64
	lastErr   string
}

func (s *instState) ttl(fallback float64) float64 {
	if s.inst.TTLSec > 0 {
		return s.inst.TTLSec
	}
	return fallback
}

type selfMetrics struct {
	ticks        *obs.Counter
	scrapes      *obs.CounterVec
	scrapeErrors *obs.CounterVec
	alerts       *obs.CounterVec
	seriesLive   *obs.Gauge
	instancesUp  *obs.Gauge
	profiles     *obs.Counter
}

// Collector is the fleet telemetry plane. Safe for concurrent use:
// Tick serializes on an internal mutex, the HTTP handler reads through
// the same accessors tests use.
type Collector struct {
	cfg   Config
	clock obs.Clock
	fetch func(string) ([]byte, error)
	// profFetch retrieves profile endpoints; same as fetch when one was
	// injected, otherwise an HTTP fetcher whose timeout leaves room for
	// the CPU profile's own duration.
	profFetch func(string) ([]byte, error)
	store     *Store
	engine    *Engine
	log       *slog.Logger
	m         *selfMetrics

	mu        sync.Mutex
	instances map[string]*instState
	topo      *cluster.Topology
	ticks     int64
	profSeq   int64
	profiles  []string // newest-K capture base names

	profWG sync.WaitGroup
}

// New builds a Collector. Clock must be set.
func New(cfg Config) (*Collector, error) {
	if cfg.Clock == nil {
		return nil, fmt.Errorf("fleet: Config.Clock is required")
	}
	if cfg.TTLSec <= 0 {
		cfg.TTLSec = DefaultTTLSec
	}
	if cfg.RateWindowSec <= 0 {
		cfg.RateWindowSec = DefaultRateWindowSec
	}
	if cfg.RetentionSec == 0 {
		cfg.RetentionSec = 600
	}
	if cfg.ProfileSeconds <= 0 {
		cfg.ProfileSeconds = DefaultProfileSeconds
	}
	if cfg.ProfileKeep <= 0 {
		cfg.ProfileKeep = DefaultProfileKeep
	}
	c := &Collector{
		cfg:       cfg,
		clock:     cfg.Clock,
		fetch:     cfg.Fetch,
		store:     NewStore(cfg.PointsPerSeries, cfg.RetentionSec),
		engine:    NewEngine(cfg.Rules, cfg.EventLogCap),
		log:       cfg.Log,
		instances: make(map[string]*instState),
	}
	if c.log == nil {
		c.log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if c.fetch == nil {
		timeout := cfg.FetchTimeout
		if timeout <= 0 {
			timeout = 2 * time.Second
		}
		client := &http.Client{Timeout: timeout}
		c.fetch = func(url string) ([]byte, error) { return httpFetch(client, url) }
		profClient := &http.Client{
			Timeout: timeout + time.Duration(cfg.ProfileSeconds)*time.Second,
		}
		c.profFetch = func(url string) ([]byte, error) { return httpFetch(profClient, url) }
	} else {
		c.profFetch = c.fetch
	}
	if cfg.Obs != nil {
		c.m = &selfMetrics{
			ticks:        cfg.Obs.Counter("fleet_ticks_total", "collection rounds completed"),
			scrapes:      cfg.Obs.CounterVec("fleet_scrapes_total", "successful scrapes by instance", "instance"),
			scrapeErrors: cfg.Obs.CounterVec("fleet_scrape_errors_total", "failed scrapes by instance", "instance"),
			alerts:       cfg.Obs.CounterVec("fleet_alert_transitions_total", "alert transitions by rule and state", "rule", "state"),
			seriesLive:   cfg.Obs.Gauge("fleet_series_live", "series currently held in the store"),
			instancesUp:  cfg.Obs.Gauge("fleet_instances_up", "instances currently considered alive"),
			profiles:     cfg.Obs.Counter("fleet_profile_captures_total", "profiling snapshots captured"),
		}
	}
	for _, addr := range cfg.Targets {
		c.instances[addr] = &instState{
			inst:   cache.Instance{ID: addr, Addr: addr, Shard: -1},
			static: true,
		}
	}
	return c, nil
}

func httpFetch(client *http.Client, url string) ([]byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("fleet: GET %s: %s", url, resp.Status)
	}
	return io.ReadAll(io.LimitReader(resp.Body, maxScrapeBytes))
}

// Store exposes the underlying series store (tests, dashboards).
func (c *Collector) Store() *Store { return c.store }

// Engine exposes the alert engine.
func (c *Collector) Engine() *Engine { return c.engine }

// Now reads the collector clock.
func (c *Collector) Now() float64 { return c.clock() }

// Tick runs one collection round and returns the alert transitions it
// produced.
func (c *Collector) Tick() []AlertEvent {
	now := c.clock()
	// Discovery I/O (registration scan + topology read) runs before the
	// lock: both are network calls on the discovery connection.
	regs, regsOK, topo := c.discoverFetch()
	c.mu.Lock()
	c.ticks++
	reap := c.discoverLocked(now, regs, regsOK, topo)
	targets := c.scrapeTargetsLocked()
	c.mu.Unlock()

	// Reap forgotten registrations outside the lock (network write):
	// the stale record would otherwise resurrect the corpse on the next
	// discovery pass. Safe if the process is actually alive but
	// partitioned from us — its next heartbeat re-Puts the record and
	// it re-registers cleanly.
	for _, id := range reap {
		_ = c.cfg.Discover.Delete(cache.InstanceKey(id))
	}

	// Scrapes run outside the collector lock (network calls), feeding
	// the store, which has its own locking.
	type result struct {
		id   string
		ok   bool
		errs string
		sch  int
	}
	results := make([]result, len(targets))
	var wg sync.WaitGroup
	for i, tgt := range targets {
		wg.Add(1)
		go func(i int, id, addr, role string) {
			defer wg.Done()
			sch, err := c.scrape(now, id, addr, role)
			if err != nil {
				results[i] = result{id: id, errs: err.Error()}
				return
			}
			results[i] = result{id: id, ok: true, sch: sch}
		}(i, tgt.id, tgt.addr, tgt.role)
	}
	wg.Wait()

	c.mu.Lock()
	upCount := 0
	for _, r := range results {
		st := c.instances[r.id]
		if st == nil {
			continue
		}
		if r.ok {
			st.scrapes++
			st.schema = r.sch
			st.lastErr = ""
			if st.static {
				// Static targets have no heartbeat: scrape success is their
				// proof of life.
				st.lastAlive = now
				st.up = true
			}
			if c.m != nil {
				c.m.scrapes.With(r.id).Inc()
			}
		} else {
			st.failures++
			st.lastErr = r.errs
			if st.static {
				st.up = false
			}
			if c.m != nil {
				c.m.scrapeErrors.With(r.id).Inc()
			}
		}
	}
	for _, st := range c.instances {
		if st.up {
			upCount++
		}
	}
	adopted := c.topo
	instances := c.statusesLocked()
	c.mu.Unlock()

	c.derive(now, instances, adopted)
	c.store.GC(now)

	events := c.engine.Eval(c.store, now)
	for _, ev := range events {
		c.onTransition(ev)
	}
	if c.m != nil {
		c.m.ticks.Inc()
		c.m.seriesLive.Set(float64(c.store.Len()))
		c.m.instancesUp.Set(float64(upCount))
	}
	return events
}

type scrapeTarget struct {
	id, addr, role string
}

// discoverFetch reads the registration set and the topology document
// from the discovery connection — the tick's network I/O, run outside
// the collector lock. regsOK is false when the registration scan
// failed (the merge then skips the deregistration sweep rather than
// dropping every instance).
func (c *Collector) discoverFetch() (regs []cache.Instance, regsOK bool, topo *cluster.Topology) {
	if c.cfg.Discover == nil {
		return nil, false, nil
	}
	var err error
	regs, err = cache.ReadInstances(c.cfg.Discover)
	regsOK = err == nil
	if err != nil {
		c.log.Warn("discovery read failed", "err", err.Error())
	}
	// Topology document: read through the same connection; a sharded
	// client scans shards for it via GetAny.
	get := c.cfg.Discover.Get
	if any, ok := c.cfg.Discover.(interface{ GetAny(string) ([]byte, error) }); ok {
		get = any.GetAny
	}
	if b, err := get(cluster.TopologyKey); err == nil {
		if t, err := cluster.Decode(b); err == nil {
			topo = t
		}
	}
	return regs, regsOK, topo
}

// discoverLocked merges heartbeat registrations into the instance map
// and adopts the freshest topology document. Static targets never
// expire. The returned IDs are forgotten instances whose stale
// registrations the caller must reap (a network write that cannot run
// under the collector lock).
func (c *Collector) discoverLocked(now float64, regs []cache.Instance, regsOK bool, topo *cluster.Topology) (reap []string) {
	if c.cfg.Discover == nil {
		return nil
	}
	if regsOK {
		seen := make(map[string]bool, len(regs))
		for _, in := range regs {
			seen[in.ID] = true
			st := c.instances[in.ID]
			if st == nil {
				st = &instState{lastAlive: now, lastBeat: in.Beat, lastPID: in.PID}
				c.instances[in.ID] = st
				c.log.Info("instance registered", "instance", in.ID, "role", in.Role, "addr", in.Addr)
			} else if in.Beat != st.lastBeat || in.PID != st.lastPID {
				// Any beat movement — forward, or backward with a new PID
				// (restart) — is proof of life.
				st.lastAlive = now
				st.lastBeat, st.lastPID = in.Beat, in.PID
			}
			st.inst = in
		}
		for id, st := range c.instances {
			if st.static || seen[id] {
				continue
			}
			// Registration gone (graceful Stop deregisters): drop at once.
			c.log.Info("instance deregistered", "instance", id)
			delete(c.instances, id)
			c.retireSeries(id)
		}
	}
	// Liveness + forget sweep on the collector clock.
	for id, st := range c.instances {
		if st.static {
			continue
		}
		ttl := st.ttl(c.cfg.TTLSec)
		wasUp := st.up
		st.up = now-st.lastAlive <= ttl
		if wasUp && !st.up {
			c.log.Warn("instance ttl expired", "instance", id, "ttl_sec", ttl)
		}
		forget := c.cfg.ForgetSec
		if forget <= 0 {
			forget = defaultForgetFactor * ttl
		}
		if now-st.lastAlive > forget {
			c.log.Info("instance forgotten", "instance", id)
			delete(c.instances, id)
			c.retireSeries(id)
			// Queue the stale registration for reaping; the caller issues
			// the Delete after releasing the lock (it is a network write).
			reap = append(reap, id)
		}
	}
	if topo != nil && (c.topo == nil || topo.Version > c.topo.Version) {
		c.topo = topo
	}
	return reap
}

// retireSeries removes everything the store holds about a departed
// instance: its raw scraped series, and the derived per-instance
// gauges keyed on it under the fleet pseudo-instance. Dropping the
// derived series matters — derive() only writes gauges for instances
// it still knows, so a forgotten instance's fleet_instance_up would
// otherwise sit at its last value (0) and pin an instance-down alert
// firing until retention GC. With the series gone, the engine
// gone-resolves the alert on the next Eval.
func (c *Collector) retireSeries(id string) {
	c.store.DropInstance(id)
	c.store.DropLabeled(FleetInstance, map[string]string{"instance": id})
}

func (c *Collector) scrapeTargetsLocked() []scrapeTarget {
	var out []scrapeTarget
	for id, st := range c.instances {
		if st.inst.Addr == "" {
			continue
		}
		if !st.static && !st.up {
			continue // known-dead: do not burn a fetch timeout per tick
		}
		out = append(out, scrapeTarget{id: id, addr: st.inst.Addr, role: st.inst.Role})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// scrape fetches and ingests one instance's /metrics.json. Returns the
// snapshot's schema version.
func (c *Collector) scrape(now float64, id, addr, role string) (int, error) {
	body, err := c.fetch("http://" + addr + "/metrics.json")
	if err != nil {
		return 0, err
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		return 0, fmt.Errorf("fleet: decode snapshot from %s: %w", addr, err)
	}
	c.ingest(now, id, role, &snap)
	return snap.Schema, nil
}

// ingest folds one snapshot into the store: counters delta-aware,
// gauges direct, histograms decomposed into _count/_sum counters plus
// _mean and quantile gauges.
func (c *Collector) ingest(now float64, id, role string, snap *obs.Snapshot) {
	for _, p := range snap.Counters {
		c.store.ObserveCounter(now, id, role, p.Name, p.Labels, p.Value)
	}
	for _, p := range snap.Gauges {
		c.store.ObserveGauge(now, id, role, p.Name, p.Labels, p.Value)
	}
	for _, h := range snap.Histograms {
		c.store.ObserveCounter(now, id, role, h.Name+"_count", h.Labels, float64(h.Count))
		c.store.ObserveCounter(now, id, role, h.Name+"_sum", h.Labels, h.Sum)
		c.store.ObserveGauge(now, id, role, h.Name+"_mean", h.Labels, h.Mean)
		c.store.ObserveGauge(now, id, role, h.Name+"_p50", h.Labels, float64(h.P50))
		c.store.ObserveGauge(now, id, role, h.Name+"_p95", h.Labels, float64(h.P95))
		c.store.ObserveGauge(now, id, role, h.Name+"_p99", h.Labels, float64(h.P99))
	}
}

func (c *Collector) statusesLocked() []InstanceStatus {
	out := make([]InstanceStatus, 0, len(c.instances))
	for id, st := range c.instances {
		out = append(out, InstanceStatus{
			ID: id, Role: st.inst.Role, Addr: st.inst.Addr,
			CacheAddr: st.inst.CacheAddr, Shard: st.inst.Shard,
			PID: st.inst.PID, Build: st.inst.Build, Static: st.static,
			Up: st.up, Beat: st.inst.Beat, LastAlive: st.lastAlive,
			TTLSec: st.ttl(c.cfg.TTLSec), Schema: st.schema,
			Scrapes: st.scrapes, Failures: st.failures, LastError: st.lastErr,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Instances returns the current fleet membership view.
func (c *Collector) Instances() []InstanceStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.statusesLocked()
}

// Topology returns the newest adopted topology document (nil before
// one is seen).
func (c *Collector) Topology() *cluster.Topology {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.topo == nil {
		return nil
	}
	return c.topo.Clone()
}

// FleetInstance is the pseudo-instance owning every derived series.
const FleetInstance = "fleet"

// derive computes the cluster-level signals under the fleet
// pseudo-instance. All are gauges sampled at now; rates use the
// configured window over the raw per-instance series.
func (c *Collector) derive(now float64, instances []InstanceStatus, topo *cluster.Topology) {
	w := c.cfg.RateWindowSec
	gauge := func(name string, labels map[string]string, v float64) {
		c.store.ObserveGauge(now, FleetInstance, "fleet", name, labels, v)
	}

	// Per-instance liveness — the series the instance-down rule watches.
	for _, in := range instances {
		up := 0.0
		if in.Up {
			up = 1
		}
		gauge("fleet_instance_up", map[string]string{"instance": in.ID, "role": in.Role}, up)
	}

	// Shard serving rate and term: the op throughput of whichever
	// registered instance currently LEADS each shard per the topology.
	// A partitioned or fenced leader's rate collapses toward zero, and
	// after promotion the series follows the new leader — which is what
	// makes "shard_unserved" resolve on failover.
	if topo != nil {
		byCacheAddr := make(map[string]string)
		for _, in := range instances {
			if in.CacheAddr != "" {
				byCacheAddr[in.CacheAddr] = in.ID
			}
		}
		for _, sh := range topo.Shards {
			shard := fmt.Sprintf("%d", sh.ID)
			gauge("fleet_shard_term", map[string]string{"shard": shard}, float64(sh.Term))
			rate := 0.0
			if id, ok := byCacheAddr[sh.Addr]; ok {
				for _, sv := range c.store.Match(id, "cache_server_ops_total", "") {
					rate += rateOf(sv.Points, w, now)
				}
			}
			gauge("fleet_shard_serving", map[string]string{"shard": shard}, rate)
		}
	}

	// Aggregated cross-instance rates, grouped by original labels.
	sumByLabels := func(metric string) map[string]float64 {
		agg := make(map[string]float64)
		for _, sv := range c.store.Match("", metric, "") {
			if sv.Instance == FleetInstance {
				continue
			}
			agg[sv.Labels] += rateOf(sv.Points, w, now)
		}
		return agg
	}

	// Staleness-budget burn: how fast the fleet accumulates gradient
	// staleness (sum-of-histogram per second) — the aggregate signal the
	// paper's Fig. 3 distributions integrate to.
	burn := 0.0
	for _, rate := range sumByLabels("live_gradient_staleness_sum") {
		burn += rate
	}
	gauge("fleet_staleness_burn", nil, burn)

	// Drops by reason across the fleet.
	for labels, rate := range sumByLabels("live_dropped_payloads_total") {
		gauge("fleet_drop_rate", parseLabels(labels), rate)
	}

	// Cluster recovery event rates (failover/fence/breaker/hedge), per
	// event kind and shard, summed across every observing client.
	for labels, rate := range sumByLabels("cache_shard_events_total") {
		gauge("fleet_shard_event_rate", parseLabels(labels), rate)
	}

	// Retry-budget exhaustion across every client.
	exhausted := 0.0
	for labels, rate := range sumByLabels("cache_client_events_total") {
		if strings.Contains(labels, "event=retry-budget-exhausted") {
			exhausted += rate
		}
	}
	gauge("fleet_retry_exhausted_rate", nil, exhausted)

	// Checkpoint cadence: fleet-wide checkpoint writes per second.
	ckpt := 0.0
	for _, rate := range sumByLabels("live_checkpoint_writes_total") {
		ckpt += rate
	}
	gauge("fleet_checkpoint_rate", nil, ckpt)
}

func parseLabels(canon string) map[string]string {
	if canon == "" {
		return nil
	}
	m := make(map[string]string)
	for _, pair := range strings.Split(canon, ",") {
		if k, v, ok := strings.Cut(pair, "="); ok {
			m[k] = v
		}
	}
	return m
}

// onTransition handles one alert event: log line, lineage record,
// self-metric, and profile capture for firing rules that want one.
func (c *Collector) onTransition(ev AlertEvent) {
	l := c.log.With("trace", ev.Trace)
	switch ev.State {
	case StateFiring:
		l.Warn("alert firing", "rule", ev.Rule, "severity", ev.Severity,
			"instance", ev.Instance, "labels", ev.Labels, "value", fmt.Sprintf("%g", ev.Value))
	default:
		l.Info("alert resolved", "rule", ev.Rule, "instance", ev.Instance,
			"labels", ev.Labels, "value", fmt.Sprintf("%g", ev.Value), "reason", ev.Reason)
	}
	if c.m != nil {
		c.m.alerts.With(ev.Rule, ev.State).Inc()
	}
	c.cfg.Lineage.Record(lineage.Event{
		Trace: ev.Trace, Kind: "alert", Hop: ev.State, Actor: "obsd",
		Ref: ev.Instance,
		Detail: fmt.Sprintf("rule=%s severity=%s labels=%s value=%g reason=%s",
			ev.Rule, ev.Severity, ev.Labels, ev.Value, ev.Reason),
	})
	if ev.State == StateFiring && c.cfg.ProfileDir != "" && c.ruleWantsProfile(ev.Rule) {
		c.captureProfile(ev)
	}
}

func (c *Collector) ruleWantsProfile(rule string) bool {
	for _, r := range c.cfg.Rules {
		if r.Name == rule {
			return r.Profile
		}
	}
	return false
}

// Close waits for in-flight profile captures. The collector has no
// other background work.
func (c *Collector) Close() {
	c.profWG.Wait()
}
