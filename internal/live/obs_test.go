package live

import (
	"io"
	"math"
	"net/http"
	"strings"
	"testing"

	"stellaris/internal/obs"
)

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestLiveTrainObsExposition runs a chaos-mode training with a registry
// attached and checks the acceptance bar: cache-op latency histograms
// are nonzero, drop counters are broken down by reason, and the
// staleness histogram's mean agrees with Report.MeanStaleness.
func TestLiveTrainObsExposition(t *testing.T) {
	reg := obs.NewRegistry()
	httpSrv, err := obs.Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer httpSrv.Close()

	opt := tinyOpts()
	opt.Updates = 3
	opt.ActorSteps = 16
	opt.BatchSize = 32
	opt.Obs = reg
	rep, _ := chaosTrain(t, 0.05, opt)

	if rep.Obs == nil {
		t.Fatal("Report.Obs missing despite Options.Obs")
	}
	if p, ok := rep.Obs.Find("live_updates_total", nil); !ok || int(p.Value) != rep.Updates {
		t.Fatalf("live_updates_total = %+v (ok=%v), report says %d", p, ok, rep.Updates)
	}

	// The staleness histogram observes the same per-update means the
	// report averages, so the two must agree.
	h, ok := rep.Obs.FindHistogram("live_staleness", nil)
	if !ok || h.Count == 0 {
		t.Fatalf("live_staleness histogram: %+v ok=%v", h, ok)
	}
	if math.Abs(h.Mean-rep.MeanStaleness) > 1e-9 {
		t.Fatalf("histogram mean %v != Report.MeanStaleness %v", h.Mean, rep.MeanStaleness)
	}

	// Likewise the consumed-trajectory lag and Report.MeanTrajectoryLag.
	lag, ok := rep.Obs.FindHistogram("live_trajectory_lag", nil)
	if !ok || lag.Count == 0 {
		t.Fatalf("live_trajectory_lag histogram: %+v ok=%v", lag, ok)
	}
	if math.Abs(lag.Mean-rep.MeanTrajectoryLag) > 1e-9 {
		t.Fatalf("histogram mean %v != Report.MeanTrajectoryLag %v", lag.Mean, rep.MeanTrajectoryLag)
	}

	// Cache-op latency histograms saw real traffic.
	g, ok := rep.Obs.FindHistogram("cache_client_op_seconds", map[string]string{"op": "get"})
	if !ok || g.Count == 0 || g.Sum <= 0 {
		t.Fatalf("cache_client_op_seconds{op=get}: %+v ok=%v", g, ok)
	}

	// Per-reason drop counters must sum to the report's aggregate —
	// every shed path counts exactly once.
	var reasonSum int64
	for _, p := range rep.Obs.Counters {
		if p.Name == "live_dropped_payloads_total" {
			reasonSum += int64(p.Value)
		}
	}
	if reasonSum != rep.DroppedPayloads {
		t.Fatalf("per-reason drops sum to %d, report says %d", reasonSum, rep.DroppedPayloads)
	}

	// And the HTTP endpoint serves all of it in Prometheus text form.
	body := httpGet(t, "http://"+httpSrv.Addr()+"/metrics")
	for _, want := range []string{
		`live_dropped_payloads_total{reason="backpressure"}`,
		`live_dropped_payloads_total{reason="put-failed"}`,
		`live_dropped_payloads_total{reason="decode-failed"}`,
		`live_dropped_payloads_total{reason="no-weights"}`,
		`live_dropped_payloads_total{reason="get-failed"}`,
		"live_trajectory_lag_count",
		"cache_client_op_seconds_bucket",
		"live_staleness_count",
		"live_iteration_seconds_bucket",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}
}

// TestLiveTrainObsQueueAndSpans checks the sampler and tracer wire-up on
// a healthy in-process run.
func TestLiveTrainObsQueueAndSpans(t *testing.T) {
	reg := obs.NewRegistry()
	opt := tinyOpts()
	opt.Updates = 2
	opt.Obs = reg
	rep, err := Train(opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := rep.Obs.Find("live_queue_depth", map[string]string{"queue": "traj"}); !ok {
		t.Fatal("queue depth gauge not sampled")
	}
	// In-process server instrumentation rides along.
	if p, ok := rep.Obs.Find("cache_server_ops_total", map[string]string{"op": "put"}); !ok || p.Value == 0 {
		t.Fatalf("cache_server_ops_total{op=put}: %+v ok=%v", p, ok)
	}
	spans := reg.Tracer().Spans()
	var updates int
	for _, s := range spans {
		if s.Name == "policy-update" {
			updates++
			if s.Dur < 0 {
				t.Fatalf("negative span duration: %+v", s)
			}
		}
	}
	if updates != rep.Updates {
		t.Fatalf("%d policy-update spans, want %d", updates, rep.Updates)
	}
}
