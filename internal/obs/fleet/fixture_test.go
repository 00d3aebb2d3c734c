package fleet

// Schema-compatibility contract (ISSUE 10 satellite): the collector
// must tolerantly decode snapshots from writers both older (no
// schema_version, no histogram quantiles) and newer (unknown fields)
// than itself. The testdata/metrics_*.json fixtures are FROZEN; do not
// regenerate them. metrics_v0.json captures the wire format before
// schema_version existed; metrics_v1_spans.json is schema 1 as written
// while snapshots still carried a "spans" array.

import (
	"os"
	"path/filepath"
	"testing"

	"stellaris/internal/cache"
	"stellaris/internal/obs"
)

func TestTolerantDecodeFrozenFixture(t *testing.T) {
	type series struct {
		name   string
		labels map[string]string
		want   float64
	}
	for _, fx := range []struct {
		file   string
		schema int
		series []series
	}{
		// A v0 writer carries no schema_version: it decodes as 0, not an
		// error, and its histograms predate the quantile gauges.
		{"metrics_v0.json", 0, []series{
			{"live_updates_total", nil, 12},
			{"live_drops_total", map[string]string{"reason": "stale"}, 3},
			{"live_gradient_staleness", nil, 2.5},
			{"live_step_seconds_count", nil, 4},
			{"live_step_seconds_mean", nil, 0.1},
		}},
		// A schema-1 writer from before the span tracer was removed: its
		// spans array is skipped, everything else ingests.
		{"metrics_v1_spans.json", obs.SnapshotSchema, []series{
			{"live_updates_total", nil, 2},
			{"live_dropped_payloads_total", map[string]string{"reason": "backpressure"}, 1},
			{"live_queue_depth", map[string]string{"queue": "traj"}, 3},
			{"live_staleness_count", nil, 2},
			{"live_staleness_mean", nil, 1},
		}},
	} {
		t.Run(fx.file, func(t *testing.T) {
			fixture, err := os.ReadFile(filepath.Join("testdata", fx.file))
			if err != nil {
				t.Fatal(err)
			}
			col, err := New(Config{
				Clock:   func() float64 { return 1 },
				Targets: []string{"old:1"},
				Fetch:   func(string) ([]byte, error) { return fixture, nil },
			})
			if err != nil {
				t.Fatal(err)
			}
			defer col.Close()
			if evs := col.Tick(); len(evs) != 0 {
				t.Fatalf("unexpected transitions: %+v", evs)
			}
			insts := col.Instances()
			if len(insts) != 1 || !insts[0].Up {
				t.Fatalf("fixture instance not up: %+v", insts)
			}
			if insts[0].Schema != fx.schema || insts[0].Failures != 0 {
				t.Fatalf("schema %d with %d failures, want %d and none: %+v",
					insts[0].Schema, insts[0].Failures, fx.schema, insts[0])
			}
			// Everything the writer exported landed in the store: counters,
			// labeled counters and gauges, and histogram-derived series.
			for _, sr := range fx.series {
				if p, ok := col.Store().Latest("old:1", sr.name, sr.labels); !ok || p.V != sr.want {
					t.Fatalf("%s%v: %+v, %v; want %v", sr.name, sr.labels, p, ok, sr.want)
				}
			}
		})
	}

	// cache.Instance registrations decode just as tolerantly.
	if _, err := cache.DecodeInstance([]byte(`{"id":"x","role":"r","addr":"a","beat":1,"new_field_from_the_future":true}`)); err != nil {
		t.Fatalf("instance decode rejected unknown field: %v", err)
	}
}
