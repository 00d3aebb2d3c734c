package obs

import (
	"log/slog"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("ops_total", "ops")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// Idempotent registration returns the same underlying counter.
	if reg.Counter("ops_total", "ops").Value() != 5 {
		t.Fatal("re-registration did not return the existing counter")
	}

	g := reg.Gauge("depth", "queue depth")
	g.Set(3.5)
	g.Add(-1.25)
	if got := g.Value(); got != 2.25 {
		t.Fatalf("gauge = %v, want 2.25", got)
	}
}

func TestCounterVecChildren(t *testing.T) {
	reg := NewRegistry()
	v := reg.CounterVec("drops_total", "drops", "reason")
	v.With("put-failed").Add(2)
	v.With("backpressure").Inc()
	if v.With("put-failed").Value() != 2 || v.With("backpressure").Value() != 1 {
		t.Fatal("children not independent")
	}
	snap := reg.Snapshot()
	p, ok := snap.Find("drops_total", map[string]string{"reason": "backpressure"})
	if !ok || p.Value != 1 {
		t.Fatalf("snapshot missing labeled child: %+v ok=%v", p, ok)
	}
}

func TestHistogramBucketsAndExactMean(t *testing.T) {
	h := NewHistogram(LogBuckets(1, 2, 4)) // bounds 1,2,4,8
	for _, v := range []float64{0, 1, 1.5, 8, 9} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count %d", h.Count())
	}
	if got, want := h.Sum(), 19.5; got != want {
		t.Fatalf("sum %v want %v", got, want)
	}
	if got, want := h.Mean(), 3.9; math.Abs(got-want) > 1e-12 {
		t.Fatalf("mean %v want %v", got, want)
	}
	// 0 and 1 land in le=1; 1.5 in le=2; 8 in le=8; 9 overflows.
	want := []int64{2, 1, 0, 1, 1}
	for i := range h.counts {
		if got := h.counts[i].Load(); got != want[i] {
			t.Fatalf("bucket %d = %d, want %d", i, got, want[i])
		}
	}
	if q := h.Quantile(0.5); q != 2 {
		t.Fatalf("median bound %v, want 2", q)
	}
	if q := h.Quantile(1); !math.IsInf(q, 1) {
		t.Fatalf("max quantile %v, want +Inf", q)
	}
}

// TestRegistryConcurrent exercises concurrent increments, labeled-child
// creation, observations and snapshots; run under -race this is the
// registry's data-race regression test.
func TestRegistryConcurrent(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c_total", "")
	v := reg.CounterVec("v_total", "", "worker")
	h := reg.Histogram("h_seconds", "", nil)
	g := reg.Gauge("g", "")

	const workers, iters = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			label := string(rune('a' + w))
			for i := 0; i < iters; i++ {
				c.Inc()
				v.With(label).Inc()
				h.Observe(float64(i) * 1e-6)
				g.Add(1)
			}
		}()
	}
	// Concurrent readers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			s := reg.Snapshot()
			var sb strings.Builder
			if err := s.WritePrometheus(&sb); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()

	if got := c.Value(); got != workers*iters {
		t.Fatalf("counter %d, want %d", got, workers*iters)
	}
	if got := h.Count(); got != workers*iters {
		t.Fatalf("histogram count %d, want %d", got, workers*iters)
	}
	if got := g.Value(); got != workers*iters {
		t.Fatalf("gauge %v, want %d", got, workers*iters)
	}
	snap := reg.Snapshot()
	var labeled int64
	for _, p := range snap.Counters {
		if p.Name == "v_total" {
			labeled += int64(p.Value)
		}
	}
	if labeled != workers*iters {
		t.Fatalf("labeled sum %d, want %d", labeled, workers*iters)
	}
}

func TestPrometheusTextFormat(t *testing.T) {
	reg := NewRegistry()
	reg.CounterVec("cache_ops_total", "ops by kind", "op").With("get").Add(7)
	reg.Gauge("depth", "").Set(1.5)
	reg.Histogram("lat_seconds", "latency", LogBuckets(0.001, 10, 2)).Observe(0.005)

	var sb strings.Builder
	if err := reg.Snapshot().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE cache_ops_total counter",
		`cache_ops_total{op="get"} 7`,
		"depth 1.5",
		"# TYPE lat_seconds histogram",
		`lat_seconds_bucket{le="0.01"} 1`,
		`lat_seconds_bucket{le="+Inf"} 1`,
		"lat_seconds_sum 0.005",
		"lat_seconds_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus text missing %q:\n%s", want, out)
		}
	}
}

func TestSnapshotCSV(t *testing.T) {
	reg := NewRegistry()
	reg.CounterVec("drops_total", "", "reason").With("backpressure").Inc()
	reg.Histogram("stale", "", CountBuckets).Observe(3)
	var sb strings.Builder
	if err := reg.Snapshot().WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "counter,drops_total,reason=backpressure,1,,,") {
		t.Fatalf("csv missing counter row:\n%s", out)
	}
	if !strings.Contains(out, "histogram,stale,,,1,3,3") {
		t.Fatalf("csv missing histogram row:\n%s", out)
	}
}

func TestParseLogLevel(t *testing.T) {
	cases := map[string]slog.Level{
		"debug": slog.LevelDebug, "INFO": slog.LevelInfo, "Warn": slog.LevelWarn,
		"warning": slog.LevelWarn, " error ": slog.LevelError,
		"bogus": slog.LevelInfo, "": slog.LevelInfo,
	}
	for in, want := range cases {
		if got := ParseLogLevel(in); got != want {
			t.Errorf("ParseLogLevel(%q) = %v, want %v", in, got, want)
		}
	}
}

func TestLogBucketsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("LogBuckets accepted min=0")
		}
	}()
	LogBuckets(0, 2, 3)
}
