package live

// Partition and brownout chaos drills for the live pipeline (ISSUE 9):
// the full robustness stack — fencing, gray-failure detection, and the
// chaos plane — exercised end to end through real training runs.

import (
	"errors"
	"testing"
	"time"

	"stellaris/internal/cache"
	"stellaris/internal/cache/cluster"
	"stellaris/internal/leaktest"
	"stellaris/internal/obs"
	"stellaris/internal/obs/lineage"
)

// headVictim returns the shard owning the weights head pointer — the
// one shard every pipeline mode must write through, so faulting it is
// guaranteed to be load-bearing.
func headVictim(t *testing.T, topo *cluster.Topology) int {
	t.Helper()
	ring, err := cluster.NewRing(topo)
	if err != nil {
		t.Fatal(err)
	}
	return ring.Shard(cache.KeyWeightsHead)
}

// awaitShardTraffic blocks until shard i's leader holds a weights head
// at version >= 1 and its replica has shipped records — the point where
// faulting the shard is both load-bearing and survivable.
func (lc *liveCluster) awaitShardTraffic(i int) bool {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		raw, err := lc.stores[i].Get(cache.KeyWeightsHead)
		if err == nil {
			if msg, err := cache.DecodeWeights(raw); err == nil && msg.Version >= 1 &&
				lc.replicas[i].Stats().Records > 0 {
				return true
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return false
}

// assertCausalOrder checks a reconstructed chain's timestamps along
// its causal spine. Within one trace's segment events are strictly
// ordered (Record stamps seq and clock under a single lock). Across a
// segment boundary the downstream trace must not predate the hop that
// LINKED to it — the last ref-bearing consumed/aggregated event, the
// one Chain actually followed. The previous trace's trailing hops may
// legitimately postdate the downstream head (a loader stale-drop or a
// second learner's consume lands after the first learner already
// produced its gradient), so flat whole-chain monotonicity — what
// assertMonotone checks on deterministic lockstep/DES chains — is too
// strong for concurrent recovery runs and would flag shed/gap noise as
// mislinks.
func assertCausalOrder(t *testing.T, chain []lineage.Event) {
	t.Helper()
	for i := 1; i < len(chain); i++ {
		prev, cur := chain[i-1], chain[i]
		if cur.Hop == lineage.HopGap || prev.Hop == lineage.HopGap {
			continue // gap events carry synthesized timestamps
		}
		if cur.Trace == prev.Trace {
			if cur.TimeSec < prev.TimeSec {
				t.Fatalf("events regress within trace %s at %d: %v then %v\n%+v",
					cur.Trace, i, prev.TimeSec, cur.TimeSec, cur)
			}
			continue
		}
		// Boundary: find the linking hop in the upstream segment.
		link := 0.0
		for j := i - 1; j >= 0 && chain[j].Trace == prev.Trace; j-- {
			if (chain[j].Hop == lineage.HopConsumed || chain[j].Hop == lineage.HopAggregated) &&
				chain[j].Ref != "" {
				link = chain[j].TimeSec
				break
			}
		}
		if cur.TimeSec < link {
			t.Fatalf("trace %s predates the hop that linked to it at %d: link %v then %v\n%+v",
				cur.Trace, i, link, cur.TimeSec, cur)
		}
	}
}

// assertChainsIntact re-walks every held lineage chain: reconstructable,
// causally ordered, no event missing its trace identity — the
// shed/gap-not-mislink guarantee across recovery work.
func assertChainsIntact(t *testing.T, rep *Report) {
	t.Helper()
	if rep.Lineage == nil || rep.TraceEvents == 0 {
		t.Fatal("no lineage recorded across the drill")
	}
	for _, kind := range []string{lineage.KindTrajectory, lineage.KindGradient, lineage.KindWeights} {
		for _, id := range rep.Lineage.Traces(kind) {
			chain := rep.Lineage.Chain(id)
			if len(chain) == 0 {
				t.Fatalf("empty chain for held trace %s", id)
			}
			assertCausalOrder(t, chain)
			for _, e := range chain {
				if e.Trace == "" {
					t.Fatalf("chain event without trace ID: %+v", e)
				}
			}
		}
	}
}

// TestChaosPartitionFailover asymmetrically partitions the shard owning
// the weights head mid-run: responses from its leader are blackholed
// while requests still land — the classic deposed-leader shape. The
// workers must time out, fail over onto the follower, FENCE the old
// leader behind the bumped term, and finish training; a client still
// holding the pre-partition topology must be refused with ErrFenced.
func TestChaosPartitionFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos drill skipped under -short")
	}
	leaktest.Check(t)
	lc := startLiveCluster(t, 3, cache.FaultConfig{Seed: 23})
	reg := obs.NewRegistry()
	opt := tinyOpts()
	opt.Cluster = lc.topo
	opt.Updates = 4
	opt.ActorSteps = 16
	opt.BatchSize = 32
	opt.CacheOpTimeout = 250 * time.Millisecond
	opt.CacheAttempts = 2
	opt.Obs = reg

	victim := headVictim(t, lc.topo)
	partitioned := make(chan struct{})
	go func() {
		defer close(partitioned)
		if lc.awaitShardTraffic(victim) {
			lc.proxies[victim].PartitionNow(cache.ServerToClient, 0)
		}
	}()

	rep, err := Train(opt)
	<-partitioned
	if err != nil {
		t.Fatalf("Train through partition: %v", err)
	}
	if rep.Updates < opt.Updates {
		t.Fatalf("completed %d/%d updates across the partition", rep.Updates, opt.Updates)
	}
	if rep.MeanReturn <= 0 {
		t.Fatalf("mean return %v after partition failover", rep.MeanReturn)
	}
	if rep.ShardFailovers < 1 {
		t.Fatalf("partitioned shard never failed over: %+v", rep)
	}
	assertChainsIntact(t, rep)

	// The promoted follower holds term 2 (topology seeded term 1, bumped
	// once by the promotion) — the post-failover fenced writes taught it.
	if got := lc.fservers[victim].Term(); got < 2 {
		t.Fatalf("promoted follower term %d, want >= 2", got)
	}
	// A client still acting on the pre-partition view — term 1 — must be
	// fenced off the promoted leader.
	stale, err := cache.DialWith(lc.topo.Shards[victim].Follower, cache.DialOptions{
		OpTimeout: time.Second, Attempts: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer stale.Close()
	if err := stale.PutFenced(1, "traj/stale", []byte("v")); !errors.As(err, new(*cache.ErrFenced)) {
		t.Fatalf("pre-partition term accepted by the promoted leader: %v", err)
	}
}

// TestChaosBrownoutEvacuation brownouts the head shard instead of
// killing it: every byte still flows, just slowly — the gray failure a
// liveness probe cannot see. The run must detect the latency-degraded
// shard within its observation window, evacuate it onto the follower
// through the same epoch-guarded promotion, and converge with lineage
// intact.
func TestChaosBrownoutEvacuation(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos drill skipped under -short")
	}
	leaktest.Check(t)
	lc := startLiveCluster(t, 3, cache.FaultConfig{Seed: 29})
	reg := obs.NewRegistry()
	opt := tinyOpts()
	opt.Cluster = lc.topo
	// Enough updates that the brownout lands MID-RUN: the parameter worker's
	// own client still sees a full detector window of slow head writes.
	opt.Updates = 16
	opt.ActorSteps = 16
	opt.BatchSize = 32
	opt.CacheOpTimeout = 2 * time.Second
	opt.CacheAttempts = 2
	opt.CacheDegradeLatency = 30 * time.Millisecond
	opt.CacheDegradeWindow = 4
	opt.CacheHedgeReads = true
	opt.Obs = reg

	victim := headVictim(t, lc.topo)
	browned := make(chan struct{})
	go func() {
		defer close(browned)
		if lc.awaitShardTraffic(victim) {
			// 40ms per direction: round trips settle near 80ms, far past the
			// 30ms evacuation line but far short of the 2s op timeout — no
			// transport errors, pure slowness.
			lc.proxies[victim].BrownoutNow(40*time.Millisecond, 0)
		}
	}()

	rep, err := Train(opt)
	<-browned
	if err != nil {
		t.Fatalf("Train through brownout: %v", err)
	}
	if rep.Updates < opt.Updates {
		t.Fatalf("completed %d/%d updates across the brownout", rep.Updates, opt.Updates)
	}
	if rep.MeanReturn <= 0 {
		t.Fatalf("mean return %v after brownout evacuation", rep.MeanReturn)
	}
	if rep.GrayFailovers < 1 {
		t.Fatalf("browned-out shard never evacuated: %+v", rep)
	}
	assertChainsIntact(t, rep)
}
