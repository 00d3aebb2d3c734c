package lineage

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

// tick is a deterministic test clock: each call advances one second.
func tick() (func() float64, *float64) {
	var t float64
	return func() float64 { t++; return t }, &t
}

// recordChain writes a complete trajectory→gradient→weights lifecycle
// into s and returns the three trace IDs.
func recordChain(s *Store) (traj, grad, weights string) {
	traj, grad, weights = "traj/0/0", "grad/0/0", WeightsID(1)
	s.Record(Event{Trace: WeightsID(0), Kind: KindWeights, Hop: HopProduced, Actor: "param"})
	s.Record(Event{Trace: traj, Kind: KindTrajectory, Hop: HopProduced, Actor: "actor/0#0", Ref: WeightsID(0)})
	s.Record(Event{Trace: traj, Kind: KindTrajectory, Hop: HopPut, Actor: "actor/0#0"})
	s.Record(Event{Trace: traj, Kind: KindTrajectory, Hop: HopFetched, Actor: "learner/0#0"})
	s.Record(Event{Trace: traj, Kind: KindTrajectory, Hop: HopConsumed, Actor: "learner/0#0", Ref: grad})
	s.Record(Event{Trace: grad, Kind: KindGradient, Hop: HopProduced, Actor: "learner/0#0", Ref: WeightsID(0)})
	s.Record(Event{Trace: grad, Kind: KindGradient, Hop: HopPut, Actor: "learner/0#0"})
	s.Record(Event{Trace: grad, Kind: KindGradient, Hop: HopAggregated, Actor: "param", Ref: weights})
	s.Record(Event{Trace: weights, Kind: KindWeights, Hop: HopProduced, Actor: "param"})
	return traj, grad, weights
}

func TestChainReconstruction(t *testing.T) {
	clock, _ := tick()
	s := New(clock, Options{})
	traj, grad, weights := recordChain(s)

	chain := s.Chain(traj)
	if len(chain) == 0 {
		t.Fatal("empty chain")
	}
	// The chain must visit all three artifacts in causal order and end
	// at the weights version the gradient was folded into.
	var visited []string
	for _, e := range chain {
		if len(visited) == 0 || visited[len(visited)-1] != e.Trace {
			visited = append(visited, e.Trace)
		}
	}
	want := []string{traj, grad, weights}
	if len(visited) != len(want) {
		t.Fatalf("chain visits %v, want %v", visited, want)
	}
	for i := range want {
		if visited[i] != want[i] {
			t.Fatalf("chain visits %v, want %v", visited, want)
		}
	}
	for _, e := range chain {
		if e.Hop == HopGap {
			t.Fatalf("complete chain contains a gap: %+v", e)
		}
	}
	// Per-hop timestamps are monotonically non-decreasing.
	for i := 1; i < len(chain); i++ {
		if chain[i].TimeSec < chain[i-1].TimeSec {
			t.Fatalf("timestamps regress at %d: %v then %v", i, chain[i-1].TimeSec, chain[i].TimeSec)
		}
	}
	if d := s.traces[grad].depth; d != 2 {
		t.Fatalf("gradient depth %d, want 2 (child of weights/0)", d)
	}
	if d := s.traces[traj].depth; d != 2 {
		t.Fatalf("trajectory depth %d, want 2", d)
	}
}

func TestChainGapOnUnknownLink(t *testing.T) {
	clock, _ := tick()
	s := New(clock, Options{})
	s.Record(Event{Trace: "traj/1/0", Kind: KindTrajectory, Hop: HopProduced, Actor: "actor/1#0"})
	s.Record(Event{Trace: "traj/1/0", Kind: KindTrajectory, Hop: HopConsumed, Actor: "learner/0#0", Ref: "grad/lost"})

	chain := s.Chain("traj/1/0")
	last := chain[len(chain)-1]
	if last.Hop != HopGap || last.Trace != "grad/lost" {
		t.Fatalf("chain should end in a gap for the lost gradient, got %+v", last)
	}
	// The synthesized gap inherits the previous timestamp so ordering
	// stays monotone.
	if last.TimeSec != chain[len(chain)-2].TimeSec {
		t.Fatalf("gap timestamp %v breaks monotonicity (prev %v)", last.TimeSec, chain[len(chain)-2].TimeSec)
	}
	if s.Stats().Gaps == 0 {
		t.Fatal("gap not counted")
	}
}

func TestChainGapOnMissingOrigin(t *testing.T) {
	clock, _ := tick()
	s := New(clock, Options{})
	// First recorded hop is a fetch: the produced event was lost (e.g.
	// recorded by a worker whose store died).
	s.Record(Event{Trace: "traj/2/0", Kind: KindTrajectory, Hop: HopFetched, Actor: "learner/1#0"})
	chain := s.Chain("traj/2/0")
	if chain[0].Hop != HopGap || !strings.Contains(chain[0].Detail, "origin missing") {
		t.Fatalf("want leading origin-missing gap, got %+v", chain[0])
	}
	if chain[0].TimeSec > chain[1].TimeSec {
		t.Fatal("gap timestamp after first real event")
	}
}

func TestChainUnknownTrace(t *testing.T) {
	clock, _ := tick()
	s := New(clock, Options{})
	chain := s.Chain("never/recorded")
	if len(chain) != 1 || chain[0].Hop != HopGap {
		t.Fatalf("unknown trace should yield a single gap, got %+v", chain)
	}
}

func TestChainCycleTerminates(t *testing.T) {
	clock, _ := tick()
	s := New(clock, Options{})
	// A (mis)link cycle must not loop forever.
	s.Record(Event{Trace: "a", Kind: KindGradient, Hop: HopProduced})
	s.Record(Event{Trace: "a", Kind: KindGradient, Hop: HopAggregated, Ref: "b"})
	s.Record(Event{Trace: "b", Kind: KindWeights, Hop: HopProduced})
	s.Record(Event{Trace: "b", Kind: KindWeights, Hop: HopConsumed, Ref: "a"})
	if chain := s.Chain("a"); len(chain) == 0 {
		t.Fatal("cycle chain empty")
	}
}

func TestEvictionFIFO(t *testing.T) {
	clock, _ := tick()
	s := New(clock, Options{MaxTraces: 2})
	s.Record(Event{Trace: "t1", Kind: KindTrajectory, Hop: HopProduced})
	s.Record(Event{Trace: "t2", Kind: KindTrajectory, Hop: HopProduced})
	s.Record(Event{Trace: "t3", Kind: KindTrajectory, Hop: HopProduced})
	if got := s.Timeline("t1"); got != nil {
		t.Fatalf("t1 should be evicted, got %+v", got)
	}
	if s.Timeline("t3") == nil {
		t.Fatal("newest trace missing")
	}
	st := s.Stats()
	if st.Evicted != 1 || st.Traces != 2 {
		t.Fatalf("stats %+v, want Evicted=1 Traces=2", st)
	}
}

func TestPerTraceEventCap(t *testing.T) {
	clock, _ := tick()
	s := New(clock, Options{MaxEventsPerTrace: 3})
	for i := 0; i < 6; i++ {
		s.Record(Event{Trace: "t", Kind: KindTrajectory, Hop: HopPut})
	}
	tl := s.Timeline("t")
	if len(tl) != 3 {
		t.Fatalf("timeline length %d, want 3 (cap)", len(tl))
	}
	if tl[2].Hop != HopGap {
		t.Fatalf("final slot should be the cap marker, got %+v", tl[2])
	}
	if s.Stats().Capped == 0 {
		t.Fatal("capped events not counted")
	}
}

func TestFlightRecorderRing(t *testing.T) {
	clock, _ := tick()
	s := New(clock, Options{RingCapacity: 4})
	for i := 0; i < 7; i++ {
		s.Record(Event{Trace: "t", Kind: KindTrajectory, Hop: HopPut})
	}
	recent := ringTail(s, 10)
	if len(recent) != 4 {
		t.Fatalf("ring holds %d events, want 4", len(recent))
	}
	// Chronological: oldest first, and only the newest 4 survive.
	for i := 1; i < len(recent); i++ {
		if recent[i].Seq != recent[i-1].Seq+1 {
			t.Fatalf("ring out of order: %+v", recent)
		}
	}
	if recent[len(recent)-1].Seq != 7 {
		t.Fatalf("newest event seq %d, want 7", recent[len(recent)-1].Seq)
	}

	var buf bytes.Buffer
	if err := s.WriteFlightDump(&buf, "panic-restart"); err != nil {
		t.Fatal(err)
	}
	var d FlightDump
	if err := json.Unmarshal(buf.Bytes(), &d); err != nil {
		t.Fatalf("flight dump is not valid JSON: %v", err)
	}
	if d.Reason != "panic-restart" || len(d.Events) != 4 || d.TimeSec <= 0 {
		t.Fatalf("dump %+v", d)
	}
}

// chromeDoc mirrors the Chrome trace-event JSON schema the export must
// satisfy (Perfetto's JSON importer requires traceEvents plus ph/ts/pid
// on each entry).
type chromeDoc struct {
	TraceEvents []struct {
		Name string                 `json:"name"`
		Ph   string                 `json:"ph"`
		Ts   *float64               `json:"ts"`
		Pid  *int                   `json:"pid"`
		Tid  int                    `json:"tid"`
		Args map[string]interface{} `json:"args"`
	} `json:"traceEvents"`
	DisplayTimeUnit string `json:"displayTimeUnit"`
}

// validateChrome decodes and schema-checks a Chrome trace export,
// returning the decoded document. Shared with the live/core smoke tests
// via copy — the schema is the contract, not the helper.
func validateChrome(t *testing.T, raw []byte) chromeDoc {
	t.Helper()
	var doc chromeDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit %q", doc.DisplayTimeUnit)
	}
	phs := map[string]int{}
	for _, e := range doc.TraceEvents {
		if e.Name == "" || e.Ph == "" || e.Pid == nil {
			t.Fatalf("event missing required fields: %+v", e)
		}
		if e.Ph != "M" {
			if e.Ts == nil || *e.Ts < 0 {
				t.Fatalf("non-metadata event without valid ts: %+v", e)
			}
		}
		phs[e.Ph]++
	}
	if phs["M"] == 0 {
		t.Fatal("no metadata (thread/process name) events")
	}
	return doc
}

func TestChromeTraceExport(t *testing.T) {
	clock, _ := tick()
	s := New(clock, Options{})
	recordChain(s)
	s.Record(Event{Trace: "grad/0/0", Kind: KindGradient, Hop: HopTruncated, Detail: "3 importance ratios capped", CostUSD: 0.25})

	var buf bytes.Buffer
	if err := s.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	doc := validateChrome(t, buf.Bytes())
	var spans, instants int
	var sawCost bool
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "X":
			spans++
		case "i":
			instants++
			if c, ok := e.Args["cost_usd"]; ok && c.(float64) == 0.25 {
				sawCost = true
			}
		}
	}
	if spans < 3 {
		t.Fatalf("%d spans, want one per artifact (>=3)", spans)
	}
	if instants < 9 {
		t.Fatalf("%d instants, want one per hop (>=9)", instants)
	}
	if !sawCost {
		t.Fatal("cost_usd not exported")
	}

	// Instants are globally time-ordered (metadata rows lead).
	var last float64 = -1
	for _, e := range doc.TraceEvents {
		if e.Ph == "M" {
			continue
		}
		if *e.Ts < last {
			t.Fatalf("events out of time order at ts=%v after %v", *e.Ts, last)
		}
		last = *e.Ts
	}
}

func TestNilStoreIsSafe(t *testing.T) {
	var s *Store
	s.Record(Event{Trace: "x", Hop: HopPut})
	if s.Timeline("x") != nil || s.Chain("x") != nil || s.Traces("") != nil {
		t.Fatal("nil store returned data")
	}
	if st := s.Stats(); st.Events != 0 {
		t.Fatalf("nil store stats %+v", st)
	}
	if err := s.WriteFlightDump(&bytes.Buffer{}, "x"); err != nil {
		t.Fatal(err)
	}
	// The nil store still writes a loadable (empty) document.
	var buf bytes.Buffer
	if err := s.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc chromeDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("nil-store chrome trace invalid: %v", err)
	}
	if len(doc.TraceEvents) != 0 {
		t.Fatalf("nil store exported events: %+v", doc.TraceEvents)
	}
}

func TestHooksFire(t *testing.T) {
	clock, _ := tick()
	var events, depths int
	stages := map[string]int{}
	s := New(clock, Options{Hooks: Hooks{
		OnEvent: func(Event) { events++ },
		OnStage: func(stage string, dt float64) {
			stages[stage]++
			if dt < 0 {
				t.Errorf("negative stage latency for %s", stage)
			}
		},
		OnDepth: func(int) { depths++ },
	}})
	recordChain(s)
	if events != 9 {
		t.Fatalf("OnEvent fired %d times, want 9", events)
	}
	if stages["put>fetched"] != 1 || stages["produced>put"] != 2 {
		t.Fatalf("stage transitions %v", stages)
	}
	if depths != 4 {
		t.Fatalf("OnDepth fired %d times, want 4 (one per produced artifact)", depths)
	}
}

func TestConcurrentRecord(t *testing.T) {
	clock, _ := tick()
	s := New(clock, Options{MaxTraces: 16, RingCapacity: 32})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := []string{"a", "b", "c"}[i%3]
				s.Record(Event{Trace: id, Kind: KindTrajectory, Hop: HopPut})
				s.Chain(id)
				ringTail(s, 8)
			}
		}(g)
	}
	wg.Wait()
	if st := s.Stats(); st.Events != 8*200 {
		t.Fatalf("recorded %d events, want %d", st.Events, 8*200)
	}
}

func TestWeightsID(t *testing.T) {
	if WeightsID(7) != "weights/7" {
		t.Fatalf("WeightsID(7) = %q", WeightsID(7))
	}
}

// ringTail is the flight recorder's ring as WriteFlightDump reads it: up
// to n of the newest events, oldest first.
func ringTail(s *Store, n int) []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recentLocked(n)
}
