// Package lineage implements cross-process causal tracing for the
// trajectory → gradient → aggregation pipeline. Every artifact the
// system exchanges (a trajectory, a gradient, a weight publish) carries
// a compact trace context (Meta) through the cache wire protocol, and
// every hop in its life — produced, put, fetched, consumed, aggregated,
// truncated-by-IS, shed — is recorded as an Event in
// a Store. The Store can reconstruct any artifact's timeline, follow
// its causal chain downstream (trajectory → gradient → weights), and
// render everything as Chrome trace-event JSON loadable in Perfetto.
//
// The Store doubles as the flight recorder: a bounded ring of the most
// recent events across all traces, dumped by the live supervisor on
// panic-restart or run failure so every crash ships with the events
// immediately preceding it (see WriteFlightDump).
//
// Clocks: the package never reads the wall clock. Timestamps come from
// the injected clock (obs.Registry.Now in live mode, the DES simclock
// through the same registry in simulated mode), which is what lets one
// trace format span both execution modes — and why this package is in
// stellaris-lint's wallclock package set.
package lineage

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
)

// Artifact kinds.
const (
	KindTrajectory = "trajectory"
	KindGradient   = "gradient"
	KindWeights    = "weights"
)

// Hop names — the full per-artifact event vocabulary. Every branch of
// the pipeline that touches an artifact records exactly one of these.
const (
	// HopProduced: the artifact came into existence (actor finished a
	// rollout, learner finished a gradient, parameter worker published
	// weights). Ref names the parent artifact (the weights version a
	// trajectory was sampled under, the born version of a gradient).
	HopProduced = "produced"
	// HopPut: the artifact's payload entered the cache (client- or
	// server-side view).
	HopPut = "put"
	// HopFetched: the payload left the cache toward a consumer.
	HopFetched = "fetched"
	// HopConsumed: a downstream worker incorporated the artifact (a
	// learner folded a trajectory into a batch). Ref names the artifact
	// produced from it (the gradient).
	HopConsumed = "consumed"
	// HopAggregated: the parameter worker folded a gradient into a
	// policy update (Eq. 4). Ref names the resulting weights version.
	HopAggregated = "aggregated"
	// HopTruncated: importance ratios in the artifact hit the Eq. 2
	// truncation cap during gradient computation.
	HopTruncated = "truncated-by-is"
	// HopShed: the artifact was abandoned on a shed-load path (put
	// retries exhausted, corrupt decode, backpressure).
	HopShed = "shed"
	// HopGap: synthesized during reconstruction where the record is
	// incomplete — an evicted or never-seen trace, or a parent link
	// pointing outside the store. Never recorded by instrumentation.
	HopGap = "gap"
)

// Meta is the compact trace context attached to every wire payload. It
// travels in the payload's optional TLV section (wire.go): a zero Meta
// is simply not sent, and a payload without the section decodes to one.
type Meta struct {
	// ID is the trace identifier — by convention the artifact's cache
	// key ("traj/<actor>/<seq>", "grad/<learner>/<seq>") or the
	// synthetic "weights/<version>" for weight publishes.
	ID string
	// Kind is one of the Kind* constants.
	Kind string
	// Origin names the producing worker and its supervisor incarnation
	// ("actor/0#1" = actor 0, first restart).
	Origin string
	// Parent is the upstream artifact's trace ID ("" for roots).
	Parent string
}

// Event is one hop in an artifact's life.
type Event struct {
	// Seq is the store-assigned record order (monotone, 1-based).
	Seq uint64 `json:"seq"`
	// TimeSec is the injected clock at record time — monotonic process
	// seconds in live mode, virtual seconds in DES mode.
	TimeSec float64 `json:"time_sec"`
	// Trace is the artifact's trace ID.
	Trace string `json:"trace"`
	// Kind is the artifact kind (Kind* constants).
	Kind string `json:"kind"`
	// Hop is the event name (Hop* constants).
	Hop string `json:"hop"`
	// Actor is the worker that observed the hop ("actor/0#0",
	// "learner/1#2", "param", "cache-server", "loader").
	Actor string `json:"actor,omitempty"`
	// Ref links to the other artifact involved in the hop (see the Hop*
	// docs); "" when the hop involves no second artifact.
	Ref string `json:"ref,omitempty"`
	// Detail carries free-form context ("staleness=3", "decode failed").
	Detail string `json:"detail,omitempty"`
	// CostUSD is the dollar cost attributed to the hop under the
	// paper's serverless cost model (DES mode only; zero elsewhere).
	CostUSD float64 `json:"cost_usd,omitempty"`
}

// Hooks are optional observer callbacks invoked synchronously from
// Record (under the store lock — they must be fast and must not call
// back into the Store). The obs package wires them to metric families.
type Hooks struct {
	// OnEvent fires for every recorded event.
	OnEvent func(e Event)
	// OnStage fires with the latency between consecutive distinct hops
	// of one trace, labeled "from>to" ("put>fetched" is cache dwell).
	OnStage func(stage string, dt float64)
	// OnDepth fires with the ancestry depth of each produced artifact
	// (weights=1, trajectory=2, gradient=3).
	OnDepth func(depth int)
}

// Options configures a Store: its hooks, and bounds that only this
// package's tests lower (a zero bound selects its default).
type Options struct {
	// maxTraces caps distinct traces held; the oldest trace is evicted
	// FIFO beyond it (reconstruction then shows a gap). Default 8192.
	maxTraces int
	// maxEventsPerTrace caps events retained per trace; the final slot
	// becomes a gap marker when exceeded. Default 64.
	maxEventsPerTrace int
	// ringCapacity sizes the flight-recorder ring of most recent events
	// across all traces. Default 2048.
	ringCapacity int
	// Hooks are the observer callbacks (all optional).
	Hooks Hooks
}

// Stats summarizes a Store.
type Stats struct {
	// Events is the total recorded (including evicted/capped ones).
	Events int64
	// Traces is the number currently held.
	Traces int
	// Evicted counts traces dropped to stay under maxTraces.
	Evicted int64
	// Capped counts events discarded by the per-trace cap.
	Capped int64
	// Gaps counts gap events synthesized during reconstruction.
	Gaps int64
	// MaxDepth is the deepest ancestry observed (weights=1 → gradient=3).
	MaxDepth int
}

type traceRec struct {
	kind   string
	depth  int
	events []Event
	capped bool
}

// Store records lineage events and reconstructs artifact timelines.
// All methods are safe for concurrent use; a nil *Store is valid and
// ignores every call, so un-instrumented runs pay only a nil check.
type Store struct {
	now func() float64
	opt Options

	mu      sync.Mutex
	seq     uint64
	traces  map[string]*traceRec
	order   []string // insertion order, for FIFO eviction
	ring    []Event  // flight recorder (circular)
	ringAt  int
	ringN   int
	evicted int64
	capped  int64
	gaps    int64
	maxDep  int
}

// New builds a Store over the given clock (seconds; typically
// obs.Registry.Now so SetClock swaps propagate automatically).
func New(now func() float64, opt Options) *Store {
	if now == nil {
		panic("lineage: nil clock")
	}
	if opt.maxTraces <= 0 {
		opt.maxTraces = 8192
	}
	if opt.maxEventsPerTrace <= 0 {
		opt.maxEventsPerTrace = 64
	}
	if opt.ringCapacity <= 0 {
		opt.ringCapacity = 2048
	}
	return &Store{
		now:    now,
		opt:    opt,
		traces: make(map[string]*traceRec),
		ring:   make([]Event, opt.ringCapacity),
	}
}

// Record stamps e with the store clock and sequence number and appends
// it to the artifact's timeline and the flight-recorder ring. Safe on a
// nil store.
func (s *Store) Record(e Event) {
	if s == nil || e.Trace == "" {
		return
	}
	s.mu.Lock()
	s.seq++
	e.Seq = s.seq
	e.TimeSec = s.now()

	tr := s.traces[e.Trace]
	if tr == nil {
		tr = &traceRec{kind: e.Kind, depth: s.depthLocked(e)}
		s.traces[e.Trace] = tr
		s.order = append(s.order, e.Trace)
		if tr.depth > s.maxDep {
			s.maxDep = tr.depth
		}
		if s.opt.Hooks.OnDepth != nil && e.Hop == HopProduced {
			s.opt.Hooks.OnDepth(tr.depth)
		}
		s.evictLocked()
	}
	if tr.kind == "" {
		tr.kind = e.Kind
	}
	var prev *Event
	if n := len(tr.events); n > 0 {
		prev = &tr.events[n-1]
	}
	switch {
	case len(tr.events) < s.opt.maxEventsPerTrace-1:
		tr.events = append(tr.events, e)
	case !tr.capped:
		// Burn the final slot on an explicit marker instead of silently
		// losing the tail.
		tr.capped = true
		s.capped++
		tr.events = append(tr.events, Event{
			Seq: e.Seq, TimeSec: e.TimeSec, Trace: e.Trace, Kind: tr.kind,
			Hop: HopGap, Detail: "per-trace event cap reached; later hops dropped",
		})
	default:
		s.capped++
	}

	s.ring[s.ringAt] = e
	s.ringAt = (s.ringAt + 1) % len(s.ring)
	if s.ringN < len(s.ring) {
		s.ringN++
	}

	if s.opt.Hooks.OnEvent != nil {
		s.opt.Hooks.OnEvent(e)
	}
	if s.opt.Hooks.OnStage != nil && prev != nil && prev.Hop != e.Hop {
		if dt := e.TimeSec - prev.TimeSec; dt >= 0 {
			s.opt.Hooks.OnStage(prev.Hop+">"+e.Hop, dt)
		}
	}
	s.mu.Unlock()
}

// depthLocked derives a new trace's ancestry depth: one past its parent
// when the parent's produced event is in the store, otherwise a root.
func (s *Store) depthLocked(e Event) int {
	if e.Hop == HopProduced && e.Ref != "" {
		if p := s.traces[e.Ref]; p != nil {
			return p.depth + 1
		}
		return 2 // parent named but unknown: deeper than a root
	}
	return 1
}

// evictLocked drops the oldest traces beyond maxTraces.
func (s *Store) evictLocked() {
	for len(s.traces) > s.opt.maxTraces && len(s.order) > 0 {
		victim := s.order[0]
		s.order = s.order[1:]
		if _, ok := s.traces[victim]; ok {
			delete(s.traces, victim)
			s.evicted++
		}
	}
}

// Timeline returns a copy of the artifact's recorded events in record
// order (nil when unknown).
func (s *Store) Timeline(id string) []Event { //lint:allow reach inspection accessor: the cache, live and core tests read it
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	tr := s.traces[id]
	if tr == nil {
		return nil
	}
	return append([]Event(nil), tr.events...)
}

// Traces lists held trace IDs of the given kind ("" = all) in insertion
// order.
func (s *Store) Traces(kind string) []string { //lint:allow reach inspection accessor: the live and core tests read it
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []string
	for _, id := range s.order {
		tr := s.traces[id]
		if tr != nil && (kind == "" || tr.kind == kind) {
			out = append(out, id)
		}
	}
	return out
}

// Chain reconstructs the causal chain starting at id and following the
// forward links downstream (a trajectory's consumed→gradient, the
// gradient's aggregated→weights). Where the record is incomplete — an
// origin missing from a trace, a link to an evicted or never-recorded
// trace — the chain degrades to an explicit HopGap event rather than
// mislinking or failing, so a chain is always returned and gaps are
// visible rather than silent.
func (s *Store) Chain(id string) []Event { //lint:allow reach inspection accessor: the live and core tests read it
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []Event
	seen := map[string]bool{}
	cur := id
	for cur != "" && !seen[cur] {
		seen[cur] = true
		tr := s.traces[cur]
		if tr == nil || len(tr.events) == 0 {
			s.gaps++
			ts := 0.0
			if n := len(out); n > 0 {
				ts = out[n-1].TimeSec
			}
			out = append(out, Event{
				TimeSec: ts, Trace: cur, Hop: HopGap,
				Detail: "trace unknown (evicted, never recorded, or lost in transit)",
			})
			break
		}
		if tr.events[0].Hop != HopProduced {
			s.gaps++
			out = append(out, Event{
				TimeSec: tr.events[0].TimeSec, Trace: cur, Kind: tr.kind, Hop: HopGap,
				Detail: "origin missing (first recorded hop is " + tr.events[0].Hop + ")",
			})
		}
		out = append(out, tr.events...)
		next := ""
		for _, e := range tr.events {
			if (e.Hop == HopConsumed || e.Hop == HopAggregated) && e.Ref != "" {
				next = e.Ref
			}
		}
		cur = next
	}
	return out
}

// recentLocked returns up to n of the most recent events across all
// traces in chronological order — the flight recorder's view.
func (s *Store) recentLocked(n int) []Event {
	if n > s.ringN {
		n = s.ringN
	}
	out := make([]Event, 0, n)
	start := (s.ringAt - n + len(s.ring)) % len(s.ring)
	for i := 0; i < n; i++ {
		out = append(out, s.ring[(start+i)%len(s.ring)])
	}
	return out
}

// Stats returns the store's accounting counters.
func (s *Store) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Events:   int64(s.seq),
		Traces:   len(s.traces),
		Evicted:  s.evicted,
		Capped:   s.capped,
		Gaps:     s.gaps,
		MaxDepth: s.maxDep,
	}
}

// FlightDump is the on-disk postmortem format: the flight-recorder
// ring's contents at dump time, tagged with why it was taken.
type FlightDump struct {
	// Reason is the trigger ("panic-restart", "fail").
	Reason string `json:"reason"`
	// TimeSec is the injected clock at dump time.
	TimeSec float64 `json:"time_sec"`
	// Events are the most recent events, oldest first.
	Events []Event `json:"events"`
}

// WriteFlightDump serializes the flight recorder (the full ring,
// chronological) as indented JSON.
func (s *Store) WriteFlightDump(w io.Writer, reason string) error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	d := FlightDump{
		Reason:  reason,
		TimeSec: s.now(),
		Events:  s.recentLocked(s.ringN),
	}
	s.mu.Unlock()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// ---- Chrome trace-event export ----

// chromeEvent is one entry of the Chrome trace-event format ("JSON
// Array Format" with thread-name metadata), which Perfetto and
// chrome://tracing load directly. ts/dur are microseconds.
type chromeEvent struct {
	Name string                 `json:"name"`
	Ph   string                 `json:"ph"`
	Cat  string                 `json:"cat,omitempty"`
	Ts   float64                `json:"ts"`
	Dur  float64                `json:"dur,omitempty"`
	Pid  int                    `json:"pid"`
	Tid  int                    `json:"tid"`
	S    string                 `json:"s,omitempty"`
	Args map[string]interface{} `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace renders every held trace as Chrome trace-event JSON:
// one row (tid) per actor, an instant event per hop, and one spanning
// "X" event per artifact from its first to last recorded hop. The
// output loads in Perfetto / chrome://tracing. Implements
// obs.TraceSource.
func (s *Store) WriteChromeTrace(w io.Writer) error {
	if s == nil {
		_, err := io.WriteString(w, `{"traceEvents":[],"displayTimeUnit":"ms"}`)
		return err
	}
	s.mu.Lock()
	type flatTrace struct {
		id     string
		kind   string
		events []Event
	}
	flat := make([]flatTrace, 0, len(s.order))
	for _, id := range s.order {
		if tr := s.traces[id]; tr != nil && len(tr.events) > 0 {
			flat = append(flat, flatTrace{id: id, kind: tr.kind, events: append([]Event(nil), tr.events...)})
		}
	}
	s.mu.Unlock()

	tids := map[string]int{}
	tidOf := func(actor string) int {
		if actor == "" {
			actor = "(unattributed)"
		}
		if id, ok := tids[actor]; ok {
			return id
		}
		id := len(tids) + 1
		tids[actor] = id
		return id
	}

	var evs []chromeEvent
	for _, ft := range flat {
		first, last := ft.events[0], ft.events[len(ft.events)-1]
		span := chromeEvent{
			Name: ft.id, Ph: "X", Cat: ft.kind,
			Ts: first.TimeSec * 1e6, Dur: (last.TimeSec - first.TimeSec) * 1e6,
			Pid: 1, Tid: tidOf(first.Actor),
			Args: map[string]interface{}{"hops": len(ft.events)},
		}
		if span.Dur < 1 {
			span.Dur = 1
		}
		evs = append(evs, span)
		for _, e := range ft.events {
			args := map[string]interface{}{"trace": e.Trace, "seq": e.Seq}
			if e.Ref != "" {
				args["ref"] = e.Ref
			}
			if e.Detail != "" {
				args["detail"] = e.Detail
			}
			if e.CostUSD != 0 {
				args["cost_usd"] = e.CostUSD
			}
			evs = append(evs, chromeEvent{
				Name: e.Hop, Ph: "i", Cat: ft.kind, S: "t",
				Ts: e.TimeSec * 1e6, Pid: 1, Tid: tidOf(e.Actor), Args: args,
			})
		}
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].Ts < evs[j].Ts })

	// Thread-name metadata rows so Perfetto labels each worker lane.
	names := make([]string, 0, len(tids))
	for actor := range tids {
		names = append(names, actor)
	}
	sort.Strings(names)
	meta := make([]chromeEvent, 0, len(names)+1)
	meta = append(meta, chromeEvent{
		Name: "process_name", Ph: "M", Pid: 1,
		Args: map[string]interface{}{"name": "stellaris"},
	})
	for _, actor := range names {
		meta = append(meta, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: 1, Tid: tids[actor],
			Args: map[string]interface{}{"name": actor},
		})
	}
	out := chromeTrace{TraceEvents: append(meta, evs...), DisplayTimeUnit: "ms"}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// WeightsID is the synthetic trace ID for a weight publish — weights
// have no cache key per version (the cache holds only "weights/latest"),
// so the version number is the identity.
func WeightsID(version int) string { return fmt.Sprintf("weights/%d", version) }
