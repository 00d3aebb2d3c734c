package obs

// Quantile exposition round trip: the p50/p95/p99 a scraper reads from
// /metrics.json must match what the Registry's own Quantile helper
// reports, including the +Inf overflow case that plain encoding/json
// cannot represent. The served document is decoded generically, as a
// consumer without this package's types would, so that the format it
// is served in stays pinned.

import (
	"encoding/json"
	"math"
	"net/http"
	"reflect"
	"strings"
	"testing"
)

// servedSeries returns the entry of one section of a generically
// decoded /metrics.json ("counters", "gauges" or "histograms") with the
// given name and exactly the given labels.
func servedSeries(t *testing.T, snap map[string]any, section, name string, labels map[string]string) map[string]any {
	t.Helper()
	entries, _ := snap[section].([]any)
	for _, e := range entries {
		m, _ := e.(map[string]any)
		got := map[string]string{}
		ls, _ := m["labels"].(map[string]any)
		for k, v := range ls {
			got[k], _ = v.(string)
		}
		if m["name"] == name && (len(got) == 0 && len(labels) == 0 || reflect.DeepEqual(got, labels)) {
			return m
		}
	}
	t.Fatalf("%s %s%v missing from the served snapshot", section, name, labels)
	return nil
}

// servedFloat reads a value as /metrics.json serves it: a JSON number,
// or one of the strings "+Inf", "-Inf" and "NaN" for what JSON cannot
// hold.
func servedFloat(t *testing.T, v any) float64 {
	t.Helper()
	switch v := v.(type) {
	case float64:
		return v
	case string:
		switch v {
		case "+Inf":
			return math.Inf(1)
		case "-Inf":
			return math.Inf(-1)
		case "NaN":
			return math.NaN()
		}
	}
	t.Fatalf("served value %#v is neither a number nor +Inf, -Inf or NaN", v)
	return 0
}

func TestQuantileJSONRoundTrip(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("rt_seconds", "round trip", LatencyBuckets)
	for i := 0; i < 100; i++ {
		h.Observe(float64(i) * 1e-3)
	}
	hv := reg.HistogramVec("rt_steps", "steps", CountBuckets, "role")
	hv.With("actor").Observe(3)
	hv.With("actor").Observe(9000) // overflow bucket -> +Inf p99

	code, body := get(t, Handler(reg), "/metrics.json")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics.json: %d", code)
	}
	var snap map[string]any
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("decode served snapshot: %v", err)
	}
	if v, ok := snap["schema_version"].(float64); !ok || int(v) != SnapshotSchema {
		t.Fatalf("schema_version = %v, want %d", snap["schema_version"], SnapshotSchema)
	}

	hp := servedSeries(t, snap, "histograms", "rt_seconds", nil)
	for _, q := range []struct {
		name string
		want float64
	}{
		{"p50", h.Quantile(0.50)},
		{"p95", h.Quantile(0.95)},
		{"p99", h.Quantile(0.99)},
	} {
		if got := servedFloat(t, hp[q.name]); got != q.want {
			t.Errorf("served %s = %v, registry says %v", q.name, got, q.want)
		}
	}

	sp := servedSeries(t, snap, "histograms", "rt_steps", map[string]string{"role": "actor"})
	if p99 := servedFloat(t, sp["p99"]); !math.IsInf(p99, 1) {
		t.Fatalf("overflow-bucket p99 = %v, want +Inf", p99)
	}
	buckets, _ := sp["buckets"].([]any)
	last, _ := buckets[len(buckets)-1].(map[string]any)
	if last["le"] != "+Inf" || servedFloat(t, last["count"]) != 2 {
		t.Fatalf("overflow bucket served as %v, want le \"+Inf\" and count 2", last)
	}
	if got := hv.With("actor").Quantile(0.99); !math.IsInf(got, 1) {
		t.Fatalf("registry p99 = %v, want +Inf", got)
	}
}

func TestQuantilePrometheusExposition(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("op_seconds", "ops", LatencyBuckets)
	for i := 0; i < 10; i++ {
		h.Observe(0.002)
	}
	var sb strings.Builder
	if err := reg.Snapshot().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		"# TYPE op_seconds_p50 gauge",
		"op_seconds_p50 " + formatFloat(h.Quantile(0.50)),
		"op_seconds_p95 " + formatFloat(h.Quantile(0.95)),
		"op_seconds_p99 " + formatFloat(h.Quantile(0.99)),
	} {
		if !strings.Contains(text, want) {
			t.Errorf("prometheus text missing %q\n%s", want, text)
		}
	}
}

func TestJSONFloatEncoding(t *testing.T) {
	cases := []struct {
		v    float64
		text string
	}{
		{1.5, "1.5"},
		{math.Inf(1), `"+Inf"`},
		{math.Inf(-1), `"-Inf"`},
		{math.NaN(), `"NaN"`},
	}
	for _, c := range cases {
		b, err := json.Marshal(JSONFloat(c.v))
		if err != nil {
			t.Fatal(err)
		}
		if string(b) != c.text {
			t.Errorf("marshal %v = %s, want %s", c.v, b, c.text)
		}
	}
}
