package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// A span is one timed call into a layer, recorded by the benchmark
// around the call (the program itself carries no spans yet).
type span struct {
	Name string
	// Start and End are offsets from the recorder's epoch.
	Start, End time.Duration
	// Parent is the index of the span that caused this one, -1 at the
	// top level. Iter groups the spans of one ladder repetition.
	Parent int
	Iter   int
}

// recorder keeps spans in memory until the run ends. It is used from
// one goroutine; the open-span stack supplies each span's parent. A nil
// recorder records nothing, so shared code can call it unconditionally.
type recorder struct {
	epoch time.Time
	spans []span
	open  []int
	iter  int
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now()}
}

// begin opens a span under the innermost open span and returns its id.
func (r *recorder) begin(name string) int {
	if r == nil {
		return -1
	}
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{Name: name, Parent: parent, Iter: r.iter})
	r.open = append(r.open, id)
	r.spans[id].Start = time.Since(r.epoch)
	return id
}

// end closes the span begin returned; spans close innermost first.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	r.spans[id].End = time.Since(r.epoch)
	r.open = r.open[:len(r.open)-1]
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its child spans cover. Children may overlap each other
// and may stick out of the parent; only the covered part of the
// parent's own interval is subtracted, once.
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered := time.Duration(0)
		edge := s.Start // everything before edge is already accounted for
		for _, k := range kids {
			from, to := spans[k].Start, spans[k].End
			if from < edge {
				from = edge
			}
			if to > s.End {
				to = s.End
			}
			if to > from {
				covered += to - from
				edge = to
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// selfRow is one line of the self-time table: all spans of one name.
type selfRow struct {
	Name     string  `json:"name"`
	Calls    int     `json:"calls"`
	MedianUs float64 `json:"median_self_us"`
	MeanUs   float64 `json:"mean_self_us"`
	HiPct    float64 `json:"hi_pct,omitempty"`
	HiUs     float64 `json:"hi_self_us,omitempty"`
	TotalMs  float64 `json:"total_self_ms"`
}

// selfTable groups self times by span name, in order of first
// appearance.
func selfTable(spans []span) []selfRow {
	self := selfTimes(spans)
	byName := map[string][]float64{}
	var order []string
	for i, s := range spans {
		if _, seen := byName[s.Name]; !seen {
			order = append(order, s.Name)
		}
		byName[s.Name] = append(byName[s.Name], float64(self[i])/float64(time.Microsecond))
	}
	rows := make([]selfRow, 0, len(order))
	for _, name := range order {
		us := sortedCopy(byName[name])
		row := selfRow{Name: name, Calls: len(us), MedianUs: median(us)}
		for _, v := range us {
			row.TotalMs += v / 1e3
		}
		row.MeanUs = 1e3 * row.TotalMs / float64(len(us))
		if pct, v, ok := highPercentile(us); ok {
			row.HiPct, row.HiUs = pct, v
		}
		rows = append(rows, row)
	}
	return rows
}

// writeTrace writes the spans in Chrome trace format (load the file in
// chrome://tracing or ui.perfetto.dev), with the self-time table under
// an extra top-level key that trace viewers ignore.
func writeTrace(path, workloadName string, spans []span, table []selfRow) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	events := make([]event, len(spans))
	for i, s := range spans {
		args := map[string]any{"workload": workloadName, "iter": s.Iter, "id": i, "parent": s.Parent}
		events[i] = event{Name: s.Name, Ph: "X", Ts: us(s.Start), Dur: us(s.End - s.Start), Pid: 1, Tid: 1, Args: args}
	}
	doc := map[string]any{
		"displayTimeUnit": "ns",
		"traceEvents":     events,
		"workload":        workloadName,
		"selfTime":        table,
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
