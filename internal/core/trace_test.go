package core

import (
	"bytes"
	"encoding/json"
	"testing"

	"stellaris/internal/obs"
	"stellaris/internal/obs/lineage"
)

// TestTraceDESChain is the causal-tracing acceptance test for the
// DES side: a simulated run on the virtual clock must reconstruct at
// least one fully linked trajectory→gradient→weights chain whose hops
// carry monotone virtual timestamps and per-invocation dollar costs.
func TestTraceDESChain(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := tinyConfig()
	cfg.Obs = reg
	cfg.ServerlessLearners = true
	res := runCfg(t, cfg)

	if res.Lineage == nil {
		t.Fatal("Result.Lineage missing despite Config.Obs")
	}
	st := res.Lineage.Stats()
	if st.Events == 0 || st.MaxDepth < 2 {
		t.Fatalf("lineage stats %+v", st)
	}

	var chain []lineage.Event
	for _, id := range res.Lineage.Traces(lineage.KindTrajectory) {
		c := res.Lineage.Chain(id)
		hops := map[string]map[string]bool{}
		gap := false
		for _, e := range c {
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
		if tr[lineage.HopProduced] && tr[lineage.HopConsumed] &&
			gr[lineage.HopProduced] && gr[lineage.HopAggregated] && wt[lineage.HopProduced] {
			chain = c
			break
		}
	}
	if chain == nil {
		t.Fatal("no fully linked DES chain found")
	}
	// Virtual timestamps are monotone along the chain and inside the
	// run's wall.
	var sawCost bool
	for i, e := range chain {
		if i > 0 && e.TimeSec < chain[i-1].TimeSec {
			t.Fatalf("virtual timestamps regress at %d: %+v", i, e)
		}
		if e.TimeSec < 0 || e.TimeSec > res.WallSec {
			t.Fatalf("event outside the virtual run [0,%v]: %+v", res.WallSec, e)
		}
		if e.CostUSD > 0 {
			sawCost = true
		}
	}
	// Serverless learners bill per invocation, so the chain's gradient
	// hop must carry a positive dollar cost joined to the trace.
	if !sawCost {
		t.Fatal("no per-invocation cost attributed along the chain")
	}

	// Costs attributed to lineage never exceed the platform's total bill.
	var attributed float64
	for _, id := range res.Lineage.Traces("") {
		for _, e := range res.Lineage.Timeline(id) {
			attributed += e.CostUSD
		}
	}
	if attributed <= 0 || attributed > res.TotalCostUSD+1e-9 {
		t.Fatalf("attributed cost %v vs total %v", attributed, res.TotalCostUSD)
	}

	// The Chrome export works on virtual time too.
	var buf bytes.Buffer
	if err := res.Lineage.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("DES chrome trace invalid: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("DES chrome trace empty")
	}

	// Lineage metric families landed in the virtual-clocked registry.
	if p, ok := res.Obs.Find("lineage_events_total", map[string]string{"hop": "aggregated"}); !ok || p.Value == 0 {
		t.Fatalf("lineage_events_total{hop=aggregated}: %+v ok=%v", p, ok)
	}
}
