package fleet

// Alert-rule engine: threshold and rate rules with for-duration
// hysteresis, evaluated against the Store on every collector tick.
// Rules are declarative and per-series — one rule fans out into one
// alert state per matching series, so "shard unserved" is a single rule
// regardless of cluster size. Transitions land in a bounded structured
// event log carrying trace IDs (alert/<rule>/<n>) that join the lineage
// chains (internal/obs/lineage) and the collector's log lines.

import (
	"fmt"
	"sort"
	"sync"
)

// Rule kinds: how the evaluated value is derived from the series.
const (
	// KindValue evaluates the latest sample (gauges, derived signals).
	KindValue = "value"
	// KindRate evaluates the per-second increase over WindowSec
	// (cumulative counter series).
	KindRate = "rate"
)

// Rule is one declarative alert condition.
type Rule struct {
	// Name identifies the rule in events, traces and the dashboard.
	Name string `json:"name"`
	// Metric is the series name to match.
	Metric string `json:"metric"`
	// Labels restricts matching to series including these pairs.
	Labels map[string]string `json:"labels,omitempty"`
	// Instance restricts matching to one instance ("" = every).
	Instance string `json:"instance,omitempty"`
	// Kind is KindValue (default) or KindRate.
	Kind string `json:"kind,omitempty"`
	// WindowSec is the rate window (KindRate; default 30s).
	WindowSec float64 `json:"window_sec,omitempty"`
	// Threshold is the violation boundary.
	Threshold float64 `json:"threshold"`
	// Below inverts the comparison: violation when value < Threshold
	// (default: violation when value > Threshold).
	Below bool `json:"below,omitempty"`
	// ForSec is the hysteresis dwell: the condition must hold
	// continuously this long before the alert fires (0 fires on first
	// violation). Firing alerts resolve on the first non-violating
	// evaluation — recovery needs no dwell, flapping protection comes
	// from the firing side.
	ForSec float64 `json:"for_sec,omitempty"`
	// Severity labels events ("warn" default, "page" for the dashboard's
	// red tier).
	Severity string `json:"severity,omitempty"`
	// Profile requests a profiling snapshot of the offending instance
	// when the alert fires (collector-level behavior).
	Profile bool `json:"profile,omitempty"`
}

func (r Rule) kind() string {
	if r.Kind == "" {
		return KindValue
	}
	return r.Kind
}

func (r Rule) window() float64 {
	if r.WindowSec <= 0 {
		return 30
	}
	return r.WindowSec
}

func (r Rule) severity() string {
	if r.Severity == "" {
		return "warn"
	}
	return r.Severity
}

func (r Rule) violated(v float64) bool {
	if r.Below {
		return v < r.Threshold
	}
	return v > r.Threshold
}

// Alert states as they appear in events and status listings.
const (
	StatePending  = "pending"
	StateFiring   = "firing"
	StateResolved = "resolved"
)

// AlertEvent is one firing/resolved transition in the bounded log.
type AlertEvent struct {
	Seq      int64   `json:"seq"`
	TimeSec  float64 `json:"time_sec"`
	Rule     string  `json:"rule"`
	Severity string  `json:"severity"`
	// State is StateFiring or StateResolved (pending spells are not
	// logged — they are visible as AlertStatus until they fire or clear).
	State string `json:"state"`
	// Trace joins this event to lineage chains and log lines; a firing
	// and its matching resolve share one trace ID.
	Trace    string  `json:"trace"`
	Instance string  `json:"instance"`
	Labels   string  `json:"labels,omitempty"`
	Value    float64 `json:"value"`
	// Reason is "gone" when a firing alert resolved because its series
	// (or instance) disappeared rather than recovered.
	Reason string `json:"reason,omitempty"`
}

// AlertStatus is one live (pending or firing) alert instance.
type AlertStatus struct {
	Rule     string  `json:"rule"`
	Severity string  `json:"severity"`
	State    string  `json:"state"`
	Trace    string  `json:"trace,omitempty"`
	Instance string  `json:"instance"`
	Labels   string  `json:"labels,omitempty"`
	Since    float64 `json:"since"`
	Value    float64 `json:"value"`
}

type alertKey struct {
	rule string
	key  SeriesKey
}

type alertState struct {
	pendingSince float64
	firing       bool
	trace        string
	value        float64
}

// defaultEventLog bounds the transition log.
const defaultEventLog = 256

// Engine evaluates rules against a Store. Safe for concurrent use
// (evaluation serializes on an internal mutex).
type Engine struct {
	rules []Rule

	mu     sync.Mutex
	states map[alertKey]*alertState
	events []AlertEvent // ring, newest appended; trimmed to cap
	cap    int
	seq    int64
	fired  map[string]int64 // per-rule firing counter for trace IDs
}

// NewEngine returns an engine over the given rules with a bounded
// event log (eventCap <= 0 selects the default).
func NewEngine(rules []Rule, eventCap int) *Engine {
	if eventCap <= 0 {
		eventCap = defaultEventLog
	}
	return &Engine{
		rules:  rules,
		states: make(map[alertKey]*alertState),
		cap:    eventCap,
		fired:  make(map[string]int64),
	}
}

// Rules returns the configured rules.
func (e *Engine) Rules() []Rule { return e.rules }

func (e *Engine) record(ev AlertEvent) AlertEvent {
	e.seq++
	ev.Seq = e.seq
	e.events = append(e.events, ev)
	if len(e.events) > e.cap {
		e.events = e.events[len(e.events)-e.cap:]
	}
	return ev
}

// Eval evaluates every rule at time now and returns the transitions
// that occurred this round (already appended to the event log).
func (e *Engine) Eval(st *Store, now float64) []AlertEvent {
	e.mu.Lock()
	defer e.mu.Unlock()
	var out []AlertEvent
	seen := make(map[alertKey]bool)
	for _, r := range e.rules {
		views := st.Match(r.Instance, r.Metric, CanonLabels(r.Labels))
		for _, v := range views {
			key := alertKey{rule: r.Name, key: SeriesKey{Instance: v.Instance, Name: v.Name, Labels: v.Labels}}
			seen[key] = true
			var val float64
			if r.kind() == KindRate {
				val = rateOf(v.Points, r.window(), now)
			} else {
				val = v.Points[len(v.Points)-1].V
			}
			state := e.states[key]
			switch {
			case r.violated(val):
				if state == nil {
					state = &alertState{pendingSince: now}
					e.states[key] = state
				}
				state.value = val
				if !state.firing && now-state.pendingSince >= r.ForSec {
					e.fired[r.Name]++
					state.firing = true
					state.trace = fmt.Sprintf("alert/%s/%d", r.Name, e.fired[r.Name])
					out = append(out, e.record(AlertEvent{
						TimeSec: now, Rule: r.Name, Severity: r.severity(),
						State: StateFiring, Trace: state.trace,
						Instance: v.Instance, Labels: v.Labels, Value: val,
					}))
				}
			case state != nil:
				if state.firing {
					out = append(out, e.record(AlertEvent{
						TimeSec: now, Rule: r.Name, Severity: r.severity(),
						State: StateResolved, Trace: state.trace,
						Instance: v.Instance, Labels: v.Labels, Value: val,
					}))
				}
				delete(e.states, key)
			}
		}
	}
	// A firing series that vanished (instance forgotten, series GC'd)
	// resolves with reason "gone" instead of hanging forever.
	for key, state := range e.states {
		if seen[key] {
			continue
		}
		if state.firing {
			out = append(out, e.record(AlertEvent{
				TimeSec: now, Rule: key.rule, Severity: e.severityOf(key.rule),
				State: StateResolved, Trace: state.trace,
				Instance: key.key.Instance, Labels: key.key.Labels,
				Value: state.value, Reason: "gone",
			}))
		}
		delete(e.states, key)
	}
	return out
}

func (e *Engine) severityOf(rule string) string {
	for _, r := range e.rules {
		if r.Name == rule {
			return r.severity()
		}
	}
	return "warn"
}

// Active returns every live pending/firing alert, deterministic order.
func (e *Engine) Active() []AlertStatus {
	e.mu.Lock()
	defer e.mu.Unlock()
	var out []AlertStatus
	for key, state := range e.states {
		s := AlertStatus{
			Rule: key.rule, Severity: e.severityOf(key.rule),
			State: StatePending, Trace: state.trace,
			Instance: key.key.Instance, Labels: key.key.Labels,
			Since: state.pendingSince, Value: state.value,
		}
		if state.firing {
			s.State = StateFiring
		}
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Rule != out[j].Rule {
			return out[i].Rule < out[j].Rule
		}
		if out[i].Instance != out[j].Instance {
			return out[i].Instance < out[j].Instance
		}
		return out[i].Labels < out[j].Labels
	})
	return out
}

// Events returns the bounded transition log, oldest first.
func (e *Engine) Events() []AlertEvent {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]AlertEvent(nil), e.events...)
}
