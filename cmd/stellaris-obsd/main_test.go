package main

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"stellaris/internal/cache"
	"stellaris/internal/leaktest"
	"stellaris/internal/obs"
	"stellaris/internal/obs/fleet"
	"stellaris/internal/obs/logx"
)

func httpGet(t *testing.T, url string) ([]byte, int) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		return nil, 0
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return b, resp.StatusCode
}

// TestObsdSmoke boots a cache server, one self-registering instance,
// and a full obsd daemon, then round-trips discovery → scrape →
// /fleet.json → /dash → self-metrics over real HTTP.
func TestObsdSmoke(t *testing.T) {
	leaktest.Check(t)

	// Cache tier: one server, doubling as the discovery medium.
	srv := cache.NewServer(nil)
	cacheAddr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// One fleet member: a registry served over HTTP, self-registered via
	// heartbeat.
	wreg := obs.NewRegistry()
	steps := wreg.Counter("live_updates_total", "updates")
	steps.Inc() // before the daemon exists: its first scrape must not read 0
	whs, err := obs.Serve("127.0.0.1:0", wreg)
	if err != nil {
		t.Fatal(err)
	}
	defer whs.Close()
	hbConn, err := cache.Dial(cacheAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer hbConn.Close()
	hb := cache.StartHeartbeat(hbConn, cache.Instance{
		ID: "w0", Role: "train", Addr: whs.Addr(), Shard: -1, PID: 1,
	}, 20*time.Millisecond)
	defer hb.Stop()

	// The daemon under test, on fast cadences.
	cfg := config{
		listen:         "127.0.0.1:0",
		cacheAddr:      cacheAddr,
		scrapeEvery:    20 * time.Millisecond,
		retention:      time.Minute,
		rateWindow:     time.Second,
		obsID:          "obsd",
		heartbeatEvery: 20 * time.Millisecond,
	}
	d, err := newDaemon(cfg, testLogger(t))
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	base := "http://" + d.ln.Addr().String()

	// The fleet view converges on both members — the worker and obsd
	// itself — with scrapes landing.
	var view fleet.FleetView
	deadline := time.Now().Add(5 * time.Second)
	for {
		steps.Inc()
		b, code := httpGet(t, base+"/fleet.json")
		if code == 200 {
			if err := json.Unmarshal(b, &view); err != nil {
				t.Fatalf("fleet.json decode: %v\n%s", err, b)
			}
			up := 0
			scraped := false
			for _, in := range view.Instances {
				if in.Up {
					up++
				}
				if in.ID == "w0" && in.Scrapes > 0 && in.Schema == obs.SnapshotSchema {
					scraped = true
				}
			}
			if up == 2 && scraped {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet never converged: %+v", view)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The scraped counter is queryable through the collector's store.
	if p, ok := d.col.Store().Latest("w0", "live_updates_total", nil); !ok || p.V < 1 {
		t.Fatalf("scraped counter: %+v, %v", p, ok)
	}

	// Dashboard renders the fleet table.
	b, code := httpGet(t, base+"/dash")
	if code != 200 || !strings.Contains(string(b), "stellaris fleet") || !strings.Contains(string(b), "w0") {
		t.Fatalf("/dash: code=%d body=%.200s", code, b)
	}
	// Root redirects to the dashboard.
	if _, code = httpGet(t, base+"/"); code != 200 {
		t.Fatalf("/ redirect: %d", code)
	}

	// obsd watches itself: its own registry is served and carries the
	// schema version and collector self-metrics.
	b, code = httpGet(t, base+"/metrics.json")
	if code != 200 {
		t.Fatalf("/metrics.json: %d", code)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(b, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Schema != obs.SnapshotSchema {
		t.Fatalf("own schema = %d", snap.Schema)
	}
	found := false
	for _, c := range snap.Counters {
		if c.Name == "fleet_ticks_total" && c.Value > 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("fleet_ticks_total missing from obsd self-metrics")
	}

	// Graceful stop of the worker deregisters it from the next view.
	hb.Stop()
	deadline = time.Now().Add(5 * time.Second)
	for {
		b, _ := httpGet(t, base+"/fleet.json")
		var v fleet.FleetView
		_ = json.Unmarshal(b, &v)
		gone := true
		for _, in := range v.Instances {
			if in.ID == "w0" {
				gone = false
			}
		}
		if gone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("w0 survived graceful stop: %+v", v.Instances)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestParseFlags(t *testing.T) {
	if _, err := parseFlags(nil); err == nil {
		t.Fatal("want error when nothing to watch")
	}
	cfg, err := parseFlags([]string{"-targets", "a:1, b:2", "-scrape-every", "50ms"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.targets != "a:1, b:2" || cfg.scrapeEvery != 50*time.Millisecond {
		t.Fatalf("cfg = %+v", cfg)
	}
}

func TestDefaultRulesAndRulesFile(t *testing.T) {
	rules, err := loadRules(config{})
	if err != nil || len(rules) == 0 {
		t.Fatalf("default rules: %v, %d", err, len(rules))
	}
	for _, r := range rules {
		if r.Name == "" || r.Metric == "" {
			t.Fatalf("malformed default rule: %+v", r)
		}
	}

	path := t.TempDir() + "/rules.json"
	doc := `[{"name":"x","metric":"m","threshold":3,"for_sec":2}]`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	rules, err = loadRules(config{rulesPath: path})
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 1 || rules[0].Name != "x" || rules[0].Threshold != 3 {
		t.Fatalf("loaded rules: %+v", rules)
	}
}

func testLogger(t *testing.T) *logx.Logger {
	return logx.New(testWriter{t}, logx.Warn)
}

type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Logf("%s", strings.TrimRight(string(p), "\n"))
	return len(p), nil
}
