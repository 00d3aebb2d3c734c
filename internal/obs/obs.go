// Package obs is the observability layer: a stdlib-only metrics
// registry (atomic counters, gauges, streaming histograms with fixed
// log-scale buckets, labeled families). A run's timeline is not kept
// here: it is the lineage store's (internal/obs/lineage), served on
// /trace.chrome.json.
//
// It serves the same role the paper's per-round profiling does (§VII's
// EWMA function profiler, the staleness PDFs of Fig. 3b), but as live,
// externally visible state: the cache server, the cache client, the
// live pipeline and the DES trainer all publish into a Registry, which
// is exposed three ways — a net/http endpoint (Prometheus text + JSON
// snapshots, see expose.go), periodic CSV/JSON dumps compatible with
// the internal/metrics artifact layout, and programmatic snapshots on
// live.Report / core.Result.
//
// Clocks: a Registry timestamps snapshots with a Clock. The default is
// a process-monotonic wall clock (live mode); the DES trainer swaps in
// its virtual clock with SetClock so snapshots, and the lineage store
// reading Now, carry virtual-time coordinates.
//
// A Registry should observe exactly one run: callers that fold
// registry values into per-run reports assume counters start at zero.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Clock returns the current time in seconds. Implementations must be
// safe for concurrent use and monotone non-decreasing.
type Clock func() float64

var processEpoch = time.Now()

// WallClock is a monotonic clock measuring seconds since process start.
func WallClock() Clock {
	return func() float64 { return time.Since(processEpoch).Seconds() }
}

// LogBuckets returns n histogram upper bounds starting at min and
// growing by factor — the fixed log-scale bucket layout every histogram
// in the system uses. Values above the last bound land in the implicit
// +Inf bucket.
func LogBuckets(min, factor float64, n int) []float64 {
	if min <= 0 || factor <= 1 || n <= 0 {
		panic("obs: LogBuckets requires min > 0, factor > 1, n > 0")
	}
	out := make([]float64, n)
	b := min
	for i := range out {
		out[i] = b
		b *= factor
	}
	return out
}

// LatencyBuckets spans 1µs..~67s doubling per bucket — wall-clock
// operation latencies (cache round trips, worker iterations).
var LatencyBuckets = LogBuckets(1e-6, 2, 27)

// VirtualBuckets spans 100µs..~3.7h doubling per bucket — DES virtual
// durations (function invocations, round latencies).
var VirtualBuckets = LogBuckets(1e-4, 2, 28)

// CountBuckets spans 1..2048 doubling per bucket — small integer
// distributions (staleness, queue depths); zeros land in the first
// bucket and the exact mean is always available from Sum/Count.
var CountBuckets = LogBuckets(1, 2, 12)

// ---- Metric primitives ----
//
// The zero value of each primitive is ready to use standalone (e.g. a
// struct field that later graduates into a registry); registry
// constructors hand out shared instances keyed by name+labels.

// Counter is a monotone atomic counter.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0 for exposition to stay monotone).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic float64 that can move both ways.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add shifts the gauge by d.
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current level.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a streaming histogram over fixed upper bounds (use
// LogBuckets or one of the prebuilt layouts). Count and Sum are exact,
// so Mean is exact even though bucket counts are quantized.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Int64 // len(bounds)+1; last is +Inf overflow
	total   atomic.Int64
	sumBits atomic.Uint64
}

// NewHistogram returns a standalone histogram over the given upper
// bounds (must be sorted ascending; nil selects LatencyBuckets).
func NewHistogram(bounds []float64) *Histogram {
	if bounds == nil {
		bounds = LatencyBuckets
	}
	if !sort.Float64sAreSorted(bounds) {
		panic("obs: histogram bounds not sorted")
	}
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v (Prometheus "le")
	h.counts[i].Add(1)
	h.total.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.total.Load() }

// Sum returns the exact sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Mean returns the exact mean observed value (0 when empty).
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return h.Sum() / float64(n)
}

// Bounds returns the bucket upper bounds (shared; do not mutate).
func (h *Histogram) Bounds() []float64 { return h.bounds }

// Quantile estimates the q-quantile (0..1) from bucket counts, taking
// each bucket's upper bound (conservative). Returns +Inf when the
// target falls in the overflow bucket.
func (h *Histogram) Quantile(q float64) float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	target := int64(math.Ceil(q * float64(n)))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i := range h.counts {
		cum += h.counts[i].Load()
		if cum >= target {
			if i < len(h.bounds) {
				return h.bounds[i]
			}
			return math.Inf(1)
		}
	}
	return math.Inf(1)
}

// ---- Labeled families ----

// labelEscaper escapes the separator labelKey joins on. A Replacer is
// safe for concurrent use, and building one costs a 256-entry table.
var labelEscaper = strings.NewReplacer(`\`, `\\`, "\x1f", `\u`)

// labelKey joins label values into a map key. Values containing the
// separator are escaped so distinct tuples never collide.
func labelKey(values []string) string {
	esc := make([]string, len(values))
	for i, v := range values {
		esc[i] = labelEscaper.Replace(v)
	}
	return strings.Join(esc, "\x1f")
}

// CounterVec is a family of counters sharing a name, split by label
// values.
type CounterVec struct {
	fam *family
}

// With returns the child counter for the given label values (created on
// first use). len(values) must match the family's label names.
func (v *CounterVec) With(values ...string) *Counter {
	return v.fam.child(values).(*Counter)
}

// GaugeVec is a family of gauges split by label values.
type GaugeVec struct {
	fam *family
}

// With returns the child gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.fam.child(values).(*Gauge)
}

// HistogramVec is a family of histograms sharing a name and bucket
// layout, split by label values.
type HistogramVec struct {
	fam *family
}

// With returns the child histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.fam.child(values).(*Histogram)
}

// family is the shared implementation behind every metric name.
type family struct {
	name   string
	help   string
	kind   string // "counter" | "gauge" | "histogram"
	labels []string
	bounds []float64 // histograms only

	mu       sync.Mutex
	children map[string]interface{}
	order    []string   // insertion-ordered label keys
	values   [][]string // label values per key, same order
}

func (f *family) child(values []string) interface{} {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d",
			f.name, len(f.labels), len(values)))
	}
	key := labelKey(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[key]; ok {
		return c
	}
	var c interface{}
	switch f.kind {
	case "counter":
		c = &Counter{}
	case "gauge":
		c = &Gauge{}
	case "histogram":
		c = NewHistogram(f.bounds)
	}
	f.children[key] = c
	f.order = append(f.order, key)
	f.values = append(f.values, append([]string(nil), values...))
	return c
}

// ---- Registry ----

// Registry holds named metric families. All methods are safe for
// concurrent use; registration is idempotent (asking for an existing
// name returns the existing family, panicking only on a kind/label
// mismatch, which is a programming error).
type Registry struct {
	clock    atomic.Value // Clock
	traceSrc atomic.Value // TraceSource (see tracesource.go)

	mu    sync.Mutex
	fams  map[string]*family
	order []string
	info  map[string]string // static run metadata for /buildinfo
}

// NewRegistry returns an empty registry on the process wall clock.
func NewRegistry() *Registry {
	r := &Registry{fams: make(map[string]*family)}
	r.clock.Store(WallClock())
	return r
}

// SetClock swaps the registry's time source (the DES trainer installs
// its virtual clock so snapshot timestamps are in virtual seconds).
// Safe to call while the registry is being read.
func (r *Registry) SetClock(c Clock) {
	if c == nil {
		panic("obs: nil clock")
	}
	r.clock.Store(c)
}

// Now reads the registry clock.
func (r *Registry) Now() float64 { return r.clock.Load().(Clock)() }

func (r *Registry) family(kind, name, help string, bounds []float64, labels []string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[name]; ok {
		if f.kind != kind || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s(%d labels), was %s(%d labels)",
				name, kind, len(labels), f.kind, len(f.labels)))
		}
		return f
	}
	f := &family{
		name: name, help: help, kind: kind,
		labels:   append([]string(nil), labels...),
		bounds:   bounds,
		children: make(map[string]interface{}),
	}
	r.fams[name] = f
	r.order = append(r.order, name)
	return f
}

// Counter registers (or fetches) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.family("counter", name, help, nil, nil).child(nil).(*Counter)
}

// CounterVec registers (or fetches) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{fam: r.family("counter", name, help, nil, labels)}
}

// Gauge registers (or fetches) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.family("gauge", name, help, nil, nil).child(nil).(*Gauge)
}

// GaugeVec registers (or fetches) a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{fam: r.family("gauge", name, help, nil, labels)}
}

// Histogram registers (or fetches) an unlabeled histogram (nil bounds
// selects LatencyBuckets).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	return r.family("histogram", name, help, bounds, nil).child(nil).(*Histogram)
}

// HistogramVec registers (or fetches) a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	return &HistogramVec{fam: r.family("histogram", name, help, bounds, labels)}
}

// ---- Snapshot ----

// Point is one counter or gauge sample.
type Point struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Help   string            `json:"help,omitempty"`
	Value  float64           `json:"value"`
}

// Bucket is one cumulative histogram bucket.
type Bucket struct {
	UpperBound float64 `json:"le"`
	CumCount   int64   `json:"count"`
}

// HistogramPoint is one histogram sample with exact count/sum and the
// standard latency quantiles (bucket-upper-bound estimates from
// Histogram.Quantile; +Inf when the target falls in the overflow
// bucket, hence the JSONFloat encoding).
type HistogramPoint struct {
	Name    string            `json:"name"`
	Labels  map[string]string `json:"labels,omitempty"`
	Help    string            `json:"help,omitempty"`
	Count   int64             `json:"count"`
	Sum     float64           `json:"sum"`
	Mean    float64           `json:"mean"`
	P50     JSONFloat         `json:"p50"`
	P95     JSONFloat         `json:"p95"`
	P99     JSONFloat         `json:"p99"`
	Buckets []Bucket          `json:"buckets"`
}

// SnapshotSchema is the current /metrics.json schema version. Bump it
// on any change a tolerant decoder could not absorb silently (renamed
// fields, changed units); adding fields does not require a bump.
const SnapshotSchema = 1

// Snapshot is a point-in-time copy of a registry, ready for JSON/CSV
// serialization. Families and children appear in deterministic order
// (registration order, then label-value order).
type Snapshot struct {
	// Schema identifies the snapshot wire schema (see SnapshotSchema).
	Schema int `json:"schema_version"`
	// TimeSec is the registry clock at capture (virtual seconds in DES
	// mode, monotonic process seconds in live mode).
	TimeSec    float64          `json:"time_sec"`
	Counters   []Point          `json:"counters,omitempty"`
	Gauges     []Point          `json:"gauges,omitempty"`
	Histograms []HistogramPoint `json:"histograms,omitempty"`
}

func labelMap(names, values []string) map[string]string {
	if len(names) == 0 {
		return nil
	}
	m := make(map[string]string, len(names))
	for i, n := range names {
		m[n] = values[i]
	}
	return m
}

// Snapshot captures every metric. Safe to call concurrently with
// writers; values are read atomically per metric (the snapshot is not a
// global atomic cut, which exposition does not need).
func (r *Registry) Snapshot() *Snapshot {
	s := &Snapshot{Schema: SnapshotSchema, TimeSec: r.Now()}
	r.mu.Lock()
	names := append([]string(nil), r.order...)
	fams := make([]*family, len(names))
	for i, n := range names {
		fams[i] = r.fams[n]
	}
	r.mu.Unlock()

	for _, f := range fams {
		f.mu.Lock()
		keys := append([]string(nil), f.order...)
		vals := make([][]string, len(keys))
		kids := make([]interface{}, len(keys))
		for i, k := range keys {
			vals[i] = f.values[i]
			kids[i] = f.children[k]
		}
		f.mu.Unlock()
		for i := range kids {
			lm := labelMap(f.labels, vals[i])
			switch c := kids[i].(type) {
			case *Counter:
				s.Counters = append(s.Counters, Point{
					Name: f.name, Labels: lm, Help: f.help, Value: float64(c.Value()),
				})
			case *Gauge:
				s.Gauges = append(s.Gauges, Point{
					Name: f.name, Labels: lm, Help: f.help, Value: c.Value(),
				})
			case *Histogram:
				hp := HistogramPoint{
					Name: f.name, Labels: lm, Help: f.help,
					Count: c.Count(), Sum: c.Sum(), Mean: c.Mean(),
					P50: JSONFloat(c.Quantile(0.50)),
					P95: JSONFloat(c.Quantile(0.95)),
					P99: JSONFloat(c.Quantile(0.99)),
				}
				var cum int64
				for bi := range c.counts {
					cum += c.counts[bi].Load()
					ub := math.Inf(1)
					if bi < len(c.bounds) {
						ub = c.bounds[bi]
					}
					hp.Buckets = append(hp.Buckets, Bucket{UpperBound: ub, CumCount: cum})
				}
				s.Histograms = append(s.Histograms, hp)
			}
		}
	}
	return s
}

// Find returns the first counter/gauge point with the given name whose
// labels include every given key=value pair (convenience for tests and
// report plumbing). ok is false when absent.
func (s *Snapshot) Find(name string, labels map[string]string) (Point, bool) {
	for _, set := range [][]Point{s.Counters, s.Gauges} {
		for _, p := range set {
			if p.Name == name && labelsMatch(p.Labels, labels) {
				return p, true
			}
		}
	}
	return Point{}, false
}

// FindHistogram is Find for histograms.
func (s *Snapshot) FindHistogram(name string, labels map[string]string) (HistogramPoint, bool) {
	for _, h := range s.Histograms {
		if h.Name == name && labelsMatch(h.Labels, labels) {
			return h, true
		}
	}
	return HistogramPoint{}, false
}

func labelsMatch(have, want map[string]string) bool {
	for k, v := range want {
		if have[k] != v {
			return false
		}
	}
	return true
}
