package live

import (
	"testing"
	"time"

	"stellaris/internal/cache"
	"stellaris/internal/leaktest"
	"stellaris/internal/obs"
)

// chaosTrain runs Train with the cache behind a FaultProxy injecting
// faults at the given per-chunk rate and returns the report plus the
// proxy's injection stats.
func chaosTrain(t *testing.T, rate float64, opt Options) (*Report, cache.FaultStats) {
	t.Helper()
	srv := cache.NewServer(nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	proxy := cache.NewFaultProxy(addr, cache.FaultConfig{
		DropRate:    rate,
		DelayRate:   rate,
		MaxDelay:    2 * time.Millisecond,
		CorruptRate: rate / 2,
		CloseRate:   rate / 4,
		Seed:        opt.Seed,
	})
	paddr, err := proxy.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	opt.CacheAddr = paddr
	// Tight deadlines + a generous retry budget keep recovery fast
	// relative to the injected faults.
	opt.Cache.OpTimeout = 250 * time.Millisecond
	opt.Cache.Attempts = 10
	rep, err := Train(opt)
	if err != nil {
		t.Fatalf("Train through %v: %v", proxy, err)
	}
	return rep, proxy.Stats()
}

func TestChaosLiveTrainThroughFaultProxy(t *testing.T) {
	// ≥5% drop/delay per chunk (plus corruption and mid-stream closes)
	// satisfies the chaos bar; the heavier rate runs only outside -short.
	rates := []float64{0.05}
	if !testing.Short() {
		rates = append(rates, 0.1)
	}
	for _, rate := range rates {
		rate := rate
		t.Run(ratename(rate), func(t *testing.T) {
			opt := tinyOpts()
			opt.Updates = 3
			opt.ActorSteps = 16
			opt.BatchSize = 32
			if rate >= 0.1 {
				opt.Updates = 2
			}
			rep, fst := chaosTrain(t, rate, opt)
			if rep.Updates < opt.Updates {
				t.Fatalf("completed %d/%d updates under %.0f%% faults", rep.Updates, opt.Updates, rate*100)
			}
			if rep.MeanReturn <= 0 {
				t.Fatalf("mean return %v under faults", rep.MeanReturn)
			}
			if fst.Drops+fst.Delays+fst.Corruptions+fst.Closes == 0 {
				t.Fatalf("proxy injected nothing at rate %v: %+v", rate, fst)
			}
			// The Report must surface the recovery work the run did.
			recoveries := rep.CacheRetries + rep.CacheReconnects + rep.StaleWeightReuses + rep.DroppedPayloads
			if recoveries == 0 {
				t.Fatalf("faults injected (%+v) but report shows no recovery: %+v", fst, rep)
			}
		})
	}
}

// TestTrainRidesOutAPartitionAtStart: the first weight publish takes
// the same retrying path as every later one. The proxy blackholes every
// request from the first frame on for 300ms, longer than one publish's
// two 50ms attempts, and the run must still start and finish.
func TestTrainRidesOutAPartitionAtStart(t *testing.T) {
	leaktest.Check(t)
	srv := cache.NewServer(nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	proxy := cache.NewFaultProxy(addr, cache.FaultConfig{
		Partitions: []cache.Partition{{AfterOps: 0, Drop: cache.ClientToServer, For: 300 * time.Millisecond}},
	})
	paddr, err := proxy.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	opt := tinyOpts()
	opt.Updates = 2
	opt.ActorSteps = 16
	opt.BatchSize = 32
	opt.CacheAddr = paddr
	opt.Cache.OpTimeout = 50 * time.Millisecond
	opt.Cache.Attempts = 2
	rep, err := Train(opt)
	if err != nil {
		t.Fatalf("Train behind a partition at start: %v", err)
	}
	if rep.Updates < opt.Updates {
		t.Fatalf("completed %d/%d updates", rep.Updates, opt.Updates)
	}
	if st := proxy.Stats(); st.Partitions != 1 || st.PartitionDrops == 0 {
		t.Fatalf("the partition never bit: %+v", st)
	}
}

func ratename(rate float64) string {
	if rate < 0.1 {
		return "rate5pct"
	}
	return "rate10pct"
}

func TestLiveTrainQuietProxyNoRecoveryCounters(t *testing.T) {
	// Control: a zero-fault proxy must leave every resilience counter
	// at zero, proving the counters measure faults rather than noise.
	// Backpressure sheds are flow control, not recovery: an async run
	// drops a trajectory whenever an actor outpaces the learners, fault
	// or no fault, so Report.DroppedPayloads (which includes them) says
	// nothing here and the per-reason counters are read instead.
	opt := tinyOpts()
	opt.Updates = 2
	opt.Obs = obs.NewRegistry()
	rep, _ := chaosTrain(t, 0, opt)
	if rep.CacheRetries != 0 || rep.CacheReconnects != 0 || rep.CacheTimeouts != 0 || rep.StaleWeightReuses != 0 {
		t.Fatalf("quiet run reported recovery work: retries %d, reconnects %d, timeouts %d, stale reuses %d",
			rep.CacheRetries, rep.CacheReconnects, rep.CacheTimeouts, rep.StaleWeightReuses)
	}
	for _, reason := range []string{dropPutFailed, dropDecodeFailed, dropNoWeights} {
		p, ok := rep.Obs.Find("live_dropped_payloads_total", map[string]string{"reason": reason})
		if !ok || p.Value != 0 {
			t.Fatalf("quiet run: live_dropped_payloads_total{reason=%q} = %+v (found %v), want 0", reason, p, ok)
		}
	}
}

// TestLiveResilienceDefaults: a run leaves its connections' policy to
// the cache's one defaults table (TestDialOptionsDefaults pins 5s and
// 4 attempts) and defaults only its own fallback bound. A caller's
// Cache comes back unchanged in both schedules.
func TestLiveResilienceDefaults(t *testing.T) {
	o, err := Options{}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if o.Cache != (cache.DialOptions{}) || o.MaxStaleFallbacks != 50 {
		t.Fatalf("resilience defaults wrong: %+v", o)
	}
	set := cache.DialOptions{
		DialTimeout: time.Second, OpTimeout: 250 * time.Millisecond, Attempts: 3,
		BackoffBase: 5 * time.Millisecond, BackoffMax: 100 * time.Millisecond,
	}
	for _, lockstep := range []bool{false, true} {
		o, err := Options{Cache: set, Lockstep: lockstep}.withDefaults()
		if err != nil {
			t.Fatal(err)
		}
		if o.Cache != set {
			t.Fatalf("lockstep %v: Cache = %+v, want %+v", lockstep, o.Cache, set)
		}
	}
}
