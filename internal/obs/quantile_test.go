package obs

// Quantile exposition round trip (ISSUE 10 satellite): the p50/p95/p99
// a collector scrapes from /metrics.json must match what the Registry's
// own Quantile helper reports, including the +Inf overflow case that
// plain encoding/json cannot represent.

import (
	"encoding/json"
	"math"
	"net/http"
	"strings"
	"testing"
)

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
	var snap Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("decode scraped snapshot: %v", err)
	}
	if snap.Schema != SnapshotSchema {
		t.Fatalf("schema_version = %d, want %d", snap.Schema, SnapshotSchema)
	}

	hp, ok := snap.FindHistogram("rt_seconds", nil)
	if !ok {
		t.Fatal("rt_seconds missing from scraped snapshot")
	}
	for _, q := range []struct {
		name string
		got  float64
		want float64
	}{
		{"p50", float64(hp.P50), h.Quantile(0.50)},
		{"p95", float64(hp.P95), h.Quantile(0.95)},
		{"p99", float64(hp.P99), h.Quantile(0.99)},
	} {
		if q.got != q.want {
			t.Errorf("scraped %s = %v, registry says %v", q.name, q.got, q.want)
		}
	}

	sp, ok := snap.FindHistogram("rt_steps", map[string]string{"role": "actor"})
	if !ok {
		t.Fatal("rt_steps{role=actor} missing from scraped snapshot")
	}
	if !math.IsInf(float64(sp.P99), 1) {
		t.Fatalf("overflow-bucket p99 = %v, want +Inf", float64(sp.P99))
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
	}
	for _, c := range cases {
		b, err := json.Marshal(JSONFloat(c.v))
		if err != nil {
			t.Fatal(err)
		}
		if string(b) != c.text {
			t.Errorf("marshal %v = %s, want %s", c.v, b, c.text)
		}
		var back JSONFloat
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatal(err)
		}
		if float64(back) != c.v {
			t.Errorf("round trip %v -> %v", c.v, float64(back))
		}
	}
	var nan JSONFloat
	if err := json.Unmarshal([]byte(`"NaN"`), &nan); err != nil || !math.IsNaN(float64(nan)) {
		t.Errorf("NaN decode: %v %v", float64(nan), err)
	}
}
