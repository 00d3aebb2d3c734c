package live

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"stellaris/internal/obs"
	"stellaris/internal/obs/lineage"
)

// completeChain scans the store for a trajectory whose causal chain is
// fully linked — produced→put→fetched→consumed on the trajectory, then
// the gradient's produced→aggregated, ending at a weights produced hop —
// and returns it (nil when none qualifies).
func completeChain(lin *lineage.Store) []lineage.Event {
	for _, id := range lin.Traces(lineage.KindTrajectory) {
		chain := lin.Chain(id)
		hops := map[string]map[string]bool{} // kind → hop set
		gap := false
		for _, e := range chain {
			if e.Hop == lineage.HopGap {
				gap = true
				break
			}
			if hops[e.Kind] == nil {
				hops[e.Kind] = map[string]bool{}
			}
			hops[e.Kind][e.Hop] = true
		}
		if gap {
			continue
		}
		tr, gr, wt := hops[lineage.KindTrajectory], hops[lineage.KindGradient], hops[lineage.KindWeights]
		if tr[lineage.HopProduced] && tr[lineage.HopPut] && tr[lineage.HopFetched] && tr[lineage.HopConsumed] &&
			gr[lineage.HopProduced] && gr[lineage.HopAggregated] && wt[lineage.HopProduced] {
			return chain
		}
	}
	return nil
}

func assertMonotone(t *testing.T, chain []lineage.Event) {
	t.Helper()
	for i := 1; i < len(chain); i++ {
		if chain[i].TimeSec < chain[i-1].TimeSec {
			t.Fatalf("chain timestamps regress at %d: %v then %v\n%+v",
				i, chain[i-1].TimeSec, chain[i].TimeSec, chain[i])
		}
	}
}

// validateChromeJSON schema-checks a /trace.chrome.json payload.
func validateChromeJSON(t *testing.T, raw []byte) {
	t.Helper()
	var doc struct {
		TraceEvents []struct {
			Name string   `json:"name"`
			Ph   string   `json:"ph"`
			Ts   *float64 `json:"ts"`
			Pid  *int     `json:"pid"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit %q", doc.DisplayTimeUnit)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("chrome trace empty")
	}
	sawMeta, sawInstant := false, false
	for _, e := range doc.TraceEvents {
		if e.Name == "" || e.Ph == "" || e.Pid == nil {
			t.Fatalf("event missing required fields: %+v", e)
		}
		switch e.Ph {
		case "M":
			sawMeta = true
		default:
			if e.Ts == nil || *e.Ts < 0 {
				t.Fatalf("event without valid ts: %+v", e)
			}
			if e.Ph == "i" {
				sawInstant = true
			}
		}
	}
	if !sawMeta || !sawInstant {
		t.Fatalf("chrome trace lacks metadata (%v) or instants (%v)", sawMeta, sawInstant)
	}
}

// TestTraceSmokeLockstep is the causal-tracing acceptance test for
// the deterministic mode: a short lockstep run must yield at least one
// fully linked trajectory→gradient→weights chain with monotone
// timestamps, and serve it as loadable Chrome trace JSON.
func TestTraceSmokeLockstep(t *testing.T) {
	reg := obs.NewRegistry()
	srv, err := obs.Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	opt := tinyOpts()
	opt.Lockstep = true
	opt.Updates = 3
	opt.Obs = reg
	rep, err := Train(opt)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Lineage == nil {
		t.Fatal("Report.Lineage missing despite Options.Obs")
	}
	if rep.TraceEvents == 0 {
		t.Fatal("no trace events recorded")
	}
	if rep.MaxLineageDepth < 2 {
		t.Fatalf("MaxLineageDepth = %d, want >= 2", rep.MaxLineageDepth)
	}

	chain := completeChain(rep.Lineage)
	if chain == nil {
		t.Fatal("no fully linked trajectory→gradient→weights chain found")
	}
	assertMonotone(t, chain)

	// Lineage metrics surfaced in the registry and on /metrics.
	if p, ok := rep.Obs.Find("lineage_events_total", map[string]string{"hop": "produced"}); !ok || p.Value == 0 {
		t.Fatalf("lineage_events_total{hop=produced}: %+v ok=%v", p, ok)
	}
	body := httpGet(t, "http://"+srv.Addr()+"/metrics")
	for _, want := range []string{"lineage_events_total", "lineage_stage_seconds", "lineage_depth"} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}

	// And the Chrome export is served and schema-valid.
	validateChromeJSON(t, []byte(httpGet(t, "http://"+srv.Addr()+"/trace.chrome.json")))

	// The config fingerprint landed on /buildinfo.
	info := httpGet(t, "http://"+srv.Addr()+"/buildinfo")
	if !strings.Contains(info, "config_fingerprint") || !strings.Contains(info, `"mode": "lockstep"`) {
		t.Fatalf("/buildinfo missing run identity:\n%s", info)
	}
}

// TestTraceSmokeAsync covers the concurrent pipeline: same bar as the
// lockstep smoke, with worker names carrying supervisor incarnations.
func TestTraceSmokeAsync(t *testing.T) {
	reg := obs.NewRegistry()
	opt := tinyOpts()
	opt.Updates = 3
	opt.Obs = reg
	rep, err := Train(opt)
	if err != nil {
		t.Fatal(err)
	}
	chain := completeChain(rep.Lineage)
	if chain == nil {
		t.Fatal("no fully linked chain in async mode")
	}
	assertMonotone(t, chain)
	for _, e := range chain {
		if e.Hop == lineage.HopProduced && e.Kind == lineage.KindTrajectory &&
			!strings.Contains(e.Actor, "#") {
			t.Fatalf("worker name lacks incarnation: %+v", e)
		}
	}
}

// TestFlightDumpOnPanicRestart asserts the crash-tied flight recorder:
// a supervised worker panic must leave a postmortem dump on disk whose
// events precede the crash.
func TestFlightDumpOnPanicRestart(t *testing.T) {
	reg := obs.NewRegistry()
	dir := t.TempDir()
	var learnerPanics atomic.Int64
	opt := tinyOpts()
	opt.Updates = 2
	opt.Obs = reg
	opt.FlightDir = dir
	opt.restartBackoff = time.Millisecond
	opt.panicHook = func(role string, id int) bool {
		return role == "learner" && learnerPanics.Add(1) == 1
	}
	rep, err := Train(opt)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FlightDumps < 1 {
		t.Fatalf("Report.FlightDumps = %d, want >= 1", rep.FlightDumps)
	}
	matches, err := filepath.Glob(filepath.Join(dir, "flight-*-panic-restart.json"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no panic-restart flight dump in %s (err=%v)", dir, err)
	}
	raw, err := os.ReadFile(matches[0])
	if err != nil {
		t.Fatal(err)
	}
	var d lineage.FlightDump
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatalf("flight dump is not valid JSON: %v", err)
	}
	if d.Reason != "panic-restart" {
		t.Fatalf("dump reason %q", d.Reason)
	}
	if len(d.Events) == 0 {
		t.Fatal("flight dump holds no events preceding the crash")
	}
	for _, e := range d.Events {
		if e.TimeSec > d.TimeSec {
			t.Fatalf("dump event after the dump itself: %+v (dump at %v)", e, d.TimeSec)
		}
	}
	if p, ok := rep.Obs.Find("live_flight_dumps_total", map[string]string{"reason": "panic-restart"}); !ok || p.Value == 0 {
		t.Fatalf("live_flight_dumps_total{reason=panic-restart}: %+v ok=%v", p, ok)
	}
}

// TestTraceThroughChaos drives traced traffic through the fault proxy:
// lineage must degrade to explicit gaps/sheds, never panic or mislink a
// chain across corrupted payloads.
func TestTraceThroughChaos(t *testing.T) {
	reg := obs.NewRegistry()
	opt := tinyOpts()
	opt.Updates = 3
	opt.ActorSteps = 16
	opt.BatchSize = 32
	opt.Obs = reg
	rep, _ := chaosTrain(t, 0.05, opt)

	if rep.Lineage == nil || rep.TraceEvents == 0 {
		t.Fatal("no lineage under chaos")
	}
	// Reconstructing every chain must be safe and internally monotone,
	// gaps included.
	for _, kind := range []string{lineage.KindTrajectory, lineage.KindGradient, lineage.KindWeights} {
		for _, id := range rep.Lineage.Traces(kind) {
			chain := rep.Lineage.Chain(id)
			if len(chain) == 0 {
				t.Fatalf("empty chain for held trace %s", id)
			}
			assertMonotone(t, chain)
			// No mislink: a chain step's Ref-follow only lands on traces
			// whose events all carry that trace's ID.
			for _, e := range chain {
				if e.Trace == "" {
					t.Fatalf("chain event without trace ID: %+v", e)
				}
			}
		}
	}
	// The run survived real faults; shed/gap accounting must be visible
	// rather than silent when drops happened.
	st := rep.Lineage.Stats()
	if rep.DroppedPayloads > 0 {
		var shed float64
		if p, ok := rep.Obs.Find("lineage_events_total", map[string]string{"hop": "shed"}); ok {
			shed += p.Value
		}
		if p, ok := rep.Obs.Find("lineage_events_total", map[string]string{"hop": "dropped-as-stale"}); ok {
			shed += p.Value
		}
		if shed == 0 && st.Gaps == 0 {
			t.Fatalf("%d payloads dropped but lineage shows no shed/gap (stats %+v)", rep.DroppedPayloads, st)
		}
	}
}
