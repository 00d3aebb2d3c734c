package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"stellaris/internal/leaktest"
)

// TestHTTPExpositionRoundTrip serves a registry over a real listener
// and reads every exposition path back.
func TestHTTPExpositionRoundTrip(t *testing.T) {
	leaktest.Check(t)
	reg := NewRegistry()
	reg.CounterVec("live_dropped_payloads_total", "sheds", "reason").With("put-failed").Add(3)
	reg.Histogram("cache_client_op_seconds", "rtt", nil).Observe(0.002)

	srv, err := Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) []byte {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	prom := string(get("/metrics"))
	if !strings.Contains(prom, `live_dropped_payloads_total{reason="put-failed"} 3`) {
		t.Fatalf("/metrics missing counter:\n%s", prom)
	}
	if !strings.Contains(prom, "cache_client_op_seconds_count 1") {
		t.Fatalf("/metrics missing histogram:\n%s", prom)
	}

	var snap Snapshot
	if err := json.Unmarshal(get("/metrics.json"), &snap); err != nil {
		t.Fatalf("metrics.json: %v", err)
	}
	p, ok := snap.Find("live_dropped_payloads_total", map[string]string{"reason": "put-failed"})
	if !ok || p.Value != 3 {
		t.Fatalf("json snapshot lost the counter: %+v ok=%v", p, ok)
	}
	h, ok := snap.FindHistogram("cache_client_op_seconds", nil)
	if !ok || h.Count != 1 || h.Sum != 0.002 {
		t.Fatalf("json snapshot lost the histogram: %+v ok=%v", h, ok)
	}

	if csvBody := string(get("/metrics.csv")); !strings.Contains(csvBody, "kind,name,labels") {
		t.Fatalf("/metrics.csv missing header:\n%s", csvBody)
	}

	// pprof rides alongside on the same mux.
	if body := string(get("/debug/pprof/")); !strings.Contains(body, "goroutine") {
		t.Fatal("/debug/pprof/ index not served")
	}
}

func TestDumpAndStartDump(t *testing.T) {
	leaktest.Check(t)
	dir := filepath.Join(t.TempDir(), "obs")
	reg := NewRegistry()
	reg.Counter("updates_total", "").Add(9)

	if err := Dump(reg, dir); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"metrics.json", "metrics.csv", "metrics.prom"} {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !strings.Contains(string(b), "updates_total") {
			t.Fatalf("%s missing metric:\n%s", name, b)
		}
	}

	stop := StartDump(reg, dir, 10*time.Millisecond, func(err error) { t.Error(err) })
	reg.Counter("updates_total", "").Add(1)
	stop() // final dump must observe the increment
	stop() // idempotent
	b, err := os.ReadFile(filepath.Join(dir, "metrics.prom"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), "updates_total 10") {
		t.Fatalf("final dump stale:\n%s", b)
	}
}
