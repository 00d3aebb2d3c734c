package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"stellaris/internal/leaktest"
)

// smokeScale runs every workload at 1 % of its work count.
const smokeScale = 0.01

// inProcess stands in for execChild: the same run, in this process.
func inProcess(spec runSpec) (*runResult, error) {
	return runWorkload(spec, time.Now())
}

// TestSmokeAllWorkloads runs all five workloads at 1 % scale in-process
// and checks that every output check passes and every end-to-end
// metric comes out positive.
func TestSmokeAllWorkloads(t *testing.T) {
	leaktest.Check(t)
	for _, w := range workloads {
		d := driver{workloads: []workload{w}, seed: 1, runs: 1, repeats: 1, scale: smokeScale, child: inProcess, stdout: &bytes.Buffer{}}
		rec, _, err := d.oneRun(w, 1)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		for _, c := range rec.Checks {
			if !c.OK {
				t.Errorf("%s: check %s failed: %s", w.Name, c.Name, c.Detail)
			}
		}
		if rec.Attempted < 1 || rec.Failed != 0 {
			t.Errorf("%s: attempted %d, failed %d", w.Name, rec.Attempted, rec.Failed)
		}
		for _, m := range endToEnd {
			if v := rec.Metrics[m.Name]; !(v > 0) || math.IsInf(v, 0) {
				t.Errorf("%s: %s = %v, want a positive number", w.Name, m.Name, v)
			}
		}
	}
}

// TestTracedRunEmitsEveryMetric drives one whole traced run (untraced
// run, instrumented rerun, stage ladder on the 3-shard tier) through
// the driver and checks the contract line of both modes against the
// metric tables, and the span file.
func TestTracedRunEmitsEveryMetric(t *testing.T) {
	leaktest.Check(t)
	w, err := findWorkload("cache_mix")
	if err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	d := driver{workloads: []workload{w}, seed: 3, runs: 1, repeats: 2, trace: true, scale: smokeScale, out: out, child: inProcess, stdout: &bytes.Buffer{}}
	rec, _, err := d.oneRun(w, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Correct {
		t.Errorf("checks failed: %+v", rec.Checks)
	}
	for trace, want := range map[bool][]metric{false: endToEnd, true: perLayer} {
		var line struct {
			Correct   *bool
			Attempted *int
			Failed    *int
			Metrics   map[string]struct {
				Value *float64
				Unit  string
			}
		}
		if err := json.Unmarshal([]byte(contractLine(rec, trace)), &line); err != nil {
			t.Fatal(err)
		}
		if line.Correct == nil || line.Attempted == nil || line.Failed == nil || len(line.Metrics) != len(want) {
			t.Errorf("trace=%v: contract line lacks keys or has %d metrics, want %d", trace, len(line.Metrics), len(want))
		}
		for _, m := range want {
			got, ok := line.Metrics[m.Name]
			if !ok || got.Value == nil || got.Unit != m.Unit {
				t.Errorf("trace=%v: metric %s missing or with unit %q, want %q", trace, m.Name, got.Unit, m.Unit)
			}
		}
	}
	// Every ladder metric was measured on this tier (it has followers,
	// so the replication rung ran too).
	for _, m := range ladderMetrics {
		if !(rec.Layer[m.metric] > 0) {
			t.Errorf("ladder metric %s = %v, want > 0", m.metric, rec.Layer[m.metric])
		}
	}
	for _, name := range []string{"cache.failovers", "cache.fenced_writes", "cache.retries", "cache.timeouts"} {
		if rec.Layer[name] != 0 {
			t.Errorf("%s = %v on a healthy tier, want 0", name, rec.Layer[name])
		}
	}
	var trace struct {
		TraceEvents []struct {
			Name string
			Ph   string
			Dur  float64
		}
		SelfTime []selfRow
	}
	b, err := os.ReadFile(out + "/cache_mix.trace.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &trace); err != nil {
		t.Fatal(err)
	}
	if len(trace.TraceEvents) == 0 || len(trace.SelfTime) == 0 || trace.TraceEvents[0].Ph != "X" {
		t.Errorf("span file has %d events, %d self-time rows", len(trace.TraceEvents), len(trace.SelfTime))
	}
}

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestSelfTimeNestedAndOverlapping(t *testing.T) {
	spans := []span{
		{Name: "root", Start: ms(0), End: ms(100), Parent: -1},
		// nested: a child with a grandchild
		{Name: "child", Start: ms(10), End: ms(40), Parent: 0},
		{Name: "grandchild", Start: ms(15), End: ms(25), Parent: 1},
		// overlapping siblings: [50,70] and [60,80] cover 30 ms, not 40
		{Name: "left", Start: ms(50), End: ms(70), Parent: 0},
		{Name: "right", Start: ms(60), End: ms(80), Parent: 0},
		// a child sticking out of its parent only counts inside it
		{Name: "late", Start: ms(95), End: ms(120), Parent: 0},
		// a sibling wholly inside an earlier one adds nothing
		{Name: "inner", Start: ms(62), End: ms(66), Parent: 0},
	}
	want := []time.Duration{ms(100 - 30 - 30 - 5), ms(20), ms(10), ms(20), ms(20), ms(25), ms(4)}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self time of %s = %v, want %v", spans[i].Name, got, want[i])
		}
	}
	table := selfTable(spans)
	if len(table) != len(spans) || table[0].Name != "root" || table[0].MedianUs != 35e3 || table[0].Calls != 1 {
		t.Errorf("self-time table = %+v", table)
	}
}

func TestRecorderParentsFollowTheOpenStack(t *testing.T) {
	r := newRecorder()
	a := r.begin("a")
	b := r.begin("b")
	r.end(b)
	c := r.begin("c")
	r.end(c)
	r.end(a)
	d := r.begin("d")
	r.end(d)
	got := []int{r.spans[a].Parent, r.spans[b].Parent, r.spans[c].Parent, r.spans[d].Parent}
	if want := []int{-1, a, a, -1}; !equalInts(got, want) {
		t.Errorf("parents = %v, want %v", got, want)
	}
	var none *recorder
	none.end(none.begin("nothing")) // a nil recorder records nothing and does not panic
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestMedianAndPercentiles(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd median = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := median(nil); !math.IsNaN(got) {
		t.Errorf("median of nothing = %v, want NaN", got)
	}
	var thousand []float64
	for i := 1; i <= 1000; i++ {
		thousand = append(thousand, float64(i))
	}
	if got := percentile(thousand, 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
	// 1000 samples: p99.9 has 1 sample beyond it, p99 has 10.
	if pct, v, ok := highPercentile(thousand); !ok || pct != 99 || v != 990 {
		t.Errorf("high percentile of 1000 samples = p%v %v %v, want p99 990", pct, v, ok)
	}
	if pct, _, ok := highPercentile(thousand[:100]); !ok || pct != 90 {
		t.Errorf("high percentile of 100 samples = p%v %v, want p90", pct, ok)
	}
	if _, _, ok := highPercentile(thousand[:99]); ok {
		t.Errorf("99 samples leave fewer than ten beyond p90; want no high percentile")
	}
	// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, q3 := quartiles(thousand[:10]); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// The fastest eighth of 1..24 is three samples: the lowest three of
	// a time, the highest three of a rate. Of 1..10 it is the two the
	// rule takes at least.
	if lo, hi := fastest(thousand[:24], "lower"), fastest(thousand[:24], "higher"); lo != 2 || hi != 23 {
		t.Errorf("fastest of 1..24 = %v lower, %v higher, want 2 and 23", lo, hi)
	}
	if lo := fastest(thousand[:10], "lower"); lo != 1.5 {
		t.Errorf("fastest of 1..10 = %v, want 1.5", lo)
	}
	if got := fastest([]float64{7}, "lower"); got != 7 {
		t.Errorf("fastest of one sample = %v, want the sample", got)
	}
}

func TestCompareBoundLogic(t *testing.T) {
	lower := metric{"alloc_mb", "MB", "lower"}
	higher := metric{"updates_per_s", "1/s", "higher"}
	// three runs each, the candidate's scaled by f
	flat := func(f float64) []float64 { return []float64{10 * f, 10 * f, 10 * f} }
	wide, tight := bound("des_sweep", "alloc_mb"), bound("cache_mix", "alloc_mb")
	if !(tight < wide) {
		t.Fatalf("bounds: cache_mix %v, des_sweep %v; the cases below need the first tighter", tight, wide)
	}
	between := (tight + wide) / 2
	rate := bound("lockstep_fat", "updates_per_s")
	cases := []struct {
		name     string
		workload string
		m        metric
		a, b     []float64
		want     string
	}{
		{"slower by less than the bound", "des_sweep", lower, flat(1), flat(1 + 0.8*wide), verdictUnchanged},
		{"slower by more than the bound", "des_sweep", lower, flat(1), flat(1 + 1.2*wide), verdictRegression},
		{"the same slowdown on a tighter workload", "cache_mix", lower, flat(1), flat(1 + between), verdictRegression},
		{"and on a wider one", "des_sweep", lower, flat(1), flat(1 + between), verdictUnchanged},
		{"higher is better, fewer by more than the bound", "lockstep_fat", higher, flat(1), flat(1 - 1.2*rate), verdictRegression},
		{"higher is better, more by more than the bound", "lockstep_fat", higher, flat(1), flat(1 + 1.2*rate), verdictImproved},
		{"spread wider than the bound", "des_sweep", lower, []float64{6, 10, 14, 8, 12}, []float64{6.1, 10.1, 14.1, 8, 12}, verdictUnresolved},
		{"wide spread, but every run better", "des_sweep", lower, []float64{6, 10, 14, 8, 12}, []float64{3, 4, 5, 3.5, 4.5}, verdictImproved},
		{"single runs have no spread", "des_sweep", lower, []float64{10}, []float64{10.5}, verdictUnchanged},
	}
	for _, c := range cases {
		if got := judge(c.workload, c.m, c.a, c.b); got.Verdict != c.want {
			t.Errorf("%s: verdict %s (worse %.3f, bound %.2f, spread %.3f/%.3f), want %s",
				c.name, got.Verdict, got.Worse, got.Bound, got.SpreadA, got.SpreadB, c.want)
		}
	}
}

func TestCompareFilesNamesTheRowAndTheFailedShare(t *testing.T) {
	file := func(wall float64, failed int) *resultFile {
		run := runRecord{Metrics: map[string]float64{}, Attempted: 100, Failed: failed}
		for _, m := range endToEnd {
			run.Metrics[m.Name] = 1
		}
		run.Metrics["wall_s"] = wall
		return &resultFile{Workloads: map[string]*workloadRecord{"des_sweep": {Runs: []runRecord{run, run}}}}
	}
	b := bound("des_sweep", "wall_s")
	if _, problems := compareFiles(file(10, 0), file(10*(1+b/2), 0)); len(problems) != 0 {
		t.Errorf("slower by half the bound: problems %v, want none", problems)
	}
	_, problems := compareFiles(file(10, 0), file(10*(1+2*b), 1))
	if len(problems) != 2 || !strings.Contains(problems[0], "des_sweep wall_s") || !strings.Contains(problems[1], "failed share rose") {
		t.Errorf("slower by twice the bound and one failure: problems %v, want the wall_s row and the failed share", problems)
	}
}

func TestNormalizeArgs(t *testing.T) {
	got := normalizeArgs([]string{"--workload", "cache_mix", "--trace", "1", "--seed", "4", "-trace", "0", "-trace"})
	want := []string{"--workload", "cache_mix", "-trace=1", "--seed", "4", "-trace=0", "-trace"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("normalizeArgs = %v, want %v", got, want)
	}
}

// TestBenchmarkJSONMatchesTheBinary loads /BENCHMARK.json and checks
// that its names are well-formed and are exactly the workloads and
// metrics this binary runs and emits, with the widest per-workload
// bound for each end-to-end metric.
func TestBenchmarkJSONMatchesTheBinary(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Why, Unit, Better string
		Bound                   float64
	}
	var doc struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []entry
		EndToEnd   []entry `json:"end_to_end"`
		PerLayer   []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != refSeconds {
		t.Errorf("run_seconds = %d, a run's default length is %d", doc.RunSeconds, refSeconds)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	names := func(es []entry) []string {
		var out []string
		for _, e := range es {
			if !name.MatchString(e.Name) {
				t.Errorf("name %q is not made of letters, digits, _ . -", e.Name)
			}
			out = append(out, e.Name)
		}
		return out
	}
	metricNames := func(ms []metric) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name)
		}
		return out
	}
	if got, want := strings.Join(names(doc.Workloads), " "), strings.Join(workloadNames(), " "); got != want {
		t.Errorf("workloads: BENCHMARK.json has %q, the binary runs %q", got, want)
	}
	if got, want := strings.Join(names(doc.EndToEnd), " "), strings.Join(metricNames(endToEnd), " "); got != want {
		t.Errorf("end_to_end: BENCHMARK.json has %q, the binary emits %q", got, want)
	}
	if got, want := strings.Join(names(doc.PerLayer), " "), strings.Join(metricNames(perLayer), " "); got != want {
		t.Errorf("per_layer: BENCHMARK.json has %q, the binary emits %q", got, want)
	}
	for i, e := range doc.EndToEnd {
		if i >= len(endToEnd) {
			break
		}
		widest := 0.0
		for _, w := range workloads {
			widest = math.Max(widest, bound(w.Name, e.Name))
		}
		if e.Unit != endToEnd[i].Unit || e.Better != endToEnd[i].Better || e.Bound != widest {
			t.Errorf("end_to_end %s: unit %q better %q bound %v, want %q %q %v", e.Name, e.Unit, e.Better, e.Bound, endToEnd[i].Unit, endToEnd[i].Better, widest)
		}
	}
	for i, e := range doc.PerLayer {
		if i < len(perLayer) && (e.Unit != perLayer[i].Unit || e.Better != perLayer[i].Better) {
			t.Errorf("per_layer %s: unit %q better %q, want %q %q", e.Name, e.Unit, e.Better, perLayer[i].Unit, perLayer[i].Better)
		}
	}
}
