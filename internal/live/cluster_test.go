package live

// Cluster-mode live pipeline tests: training through a sharded,
// replicated cache tier (DESIGN.md §11), including the hard-kill
// failover drill from ISSUE 7 and the 1-shard lockstep determinism
// guarantee.

import (
	"testing"
	"time"

	"stellaris/internal/cache"
	"stellaris/internal/cache/cluster"
	"stellaris/internal/obs"
	"stellaris/internal/obs/lineage"
)

// liveCluster is an N-shard cache cluster for live-pipeline tests:
// every shard leader sits behind its own FaultProxy (the address the
// workers dial), with a follower replicating directly from the leader,
// ready for promotion.
type liveCluster struct {
	topo     *cluster.Topology
	stores   []*cache.MemCache
	leaders  []*cache.Server
	proxies  []*cache.FaultProxy
	fstores  []*cache.MemCache
	fservers []*cache.Server
	replicas []*cache.Replica
}

func startLiveCluster(t *testing.T, shards int, faults cache.FaultConfig) *liveCluster {
	t.Helper()
	lc := &liveCluster{topo: &cluster.Topology{Version: 1}}
	for i := 0; i < shards; i++ {
		store := cache.NewMemCache()
		srv := cache.NewServer(store)
		srv.SetShardID(i)
		laddr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		cfg := faults
		cfg.Seed += uint64(i)
		proxy := cache.NewFaultProxy(laddr, cfg)
		paddr, err := proxy.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		fstore := cache.NewMemCache()
		fsrv := cache.NewServer(fstore)
		fsrv.SetShardID(i)
		faddr, err := fsrv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		// Replication runs leader→follower directly (not through the
		// proxy): the chaos under test is the data plane, not the
		// replication stream.
		rep := cache.NewReplica(fstore, laddr, cache.ReplicaOptions{
			ReadTimeout: 500 * time.Millisecond,
			BackoffBase: 10 * time.Millisecond,
			BackoffMax:  100 * time.Millisecond,
			Seed:        faults.Seed + uint64(1000+i),
		})
		rep.Start()
		// Term 1 arms write fencing from the start: every data-plane write
		// rides a fenced envelope, and the first failover bumps to term 2.
		lc.topo.Shards = append(lc.topo.Shards, cluster.Shard{ID: i, Addr: paddr, Follower: faddr, Term: 1})
		lc.stores = append(lc.stores, store)
		lc.leaders = append(lc.leaders, srv)
		lc.proxies = append(lc.proxies, proxy)
		lc.fstores = append(lc.fstores, fstore)
		lc.fservers = append(lc.fservers, fsrv)
		lc.replicas = append(lc.replicas, rep)
	}
	// Seed the shared topology document so client watches have something
	// to adopt before the first promotion publishes a newer version.
	doc, err := lc.topo.Encode()
	if err != nil {
		t.Fatal(err)
	}
	for _, store := range lc.stores {
		if err := store.Put(cluster.TopologyKey, doc); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() {
		for i := range lc.leaders {
			lc.replicas[i].Stop()
			_ = lc.proxies[i].Close()
			_ = lc.leaders[i].Close()
			_ = lc.fservers[i].Close()
		}
	})
	return lc
}

// killShard hard-kills shard i's leader (proxy and server) and promotes
// its follower, as a crashed cache container and its standby would.
func (lc *liveCluster) killShard(i int) {
	_ = lc.proxies[i].Close()
	_ = lc.leaders[i].Close()
	lc.replicas[i].Promote()
}

// TestChaosShardKillFailover trains asynchronously through a 3-shard
// cluster behind FaultProxies and hard-kills the shard owning the
// weights head pointer after the first policy update: the run must ride
// through on the promoted follower, finish every update, report the
// failover, and keep lineage chains intact.
func TestChaosShardKillFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos drill skipped under -short")
	}
	lc := startLiveCluster(t, 3, cache.FaultConfig{
		DropRate:  0.02,
		DelayRate: 0.02,
		MaxDelay:  2 * time.Millisecond,
		Seed:      11,
	})
	reg := obs.NewRegistry()
	opt := tinyOpts()
	opt.Cluster = lc.topo
	opt.Updates = 4
	opt.ActorSteps = 16
	opt.BatchSize = 32
	opt.Cache.OpTimeout = 250 * time.Millisecond
	opt.Cache.Attempts = 10
	opt.Obs = reg

	// The victim is the shard owning the head pointer: the run cannot
	// complete its remaining updates without publishing through it, so
	// the kill is guaranteed to be load-bearing.
	ring, err := cluster.NewRing(lc.topo)
	if err != nil {
		t.Fatal(err)
	}
	victim := ring.Shard(cache.KeyWeightsHead)

	killed := make(chan struct{})
	go func() {
		defer close(killed)
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			raw, err := lc.stores[victim].Get(cache.KeyWeightsHead)
			if err == nil {
				if msg, err := cache.DecodeWeights(raw); err == nil && msg.Version >= 1 &&
					lc.replicas[victim].Stats().Records > 0 {
					lc.killShard(victim)
					return
				}
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()

	rep, err := Train(opt)
	<-killed
	if err != nil {
		t.Fatalf("Train through shard kill: %v", err)
	}
	if rep.Updates < opt.Updates {
		t.Fatalf("completed %d/%d updates across the shard kill", rep.Updates, opt.Updates)
	}
	if rep.MeanReturn <= 0 {
		t.Fatalf("mean return %v after failover", rep.MeanReturn)
	}
	if rep.ShardFailovers < 1 {
		t.Fatalf("shard killed but report shows no failover: %+v", rep)
	}
	// Every cache counter of the Report is its registry family, summed
	// over shards: the clients a failover replaced keep their history.
	events := func(family, event string) int64 {
		var n float64
		for _, p := range rep.Obs.Counters {
			if p.Name == family && p.Labels["event"] == event {
				n += p.Value
			}
		}
		return int64(n)
	}
	const client, shard = "cache_client_events_total", "cache_shard_events_total"
	for _, c := range []struct {
		field         string
		got           int64
		family, event string
	}{
		{"CacheRetries", rep.CacheRetries, client, "retry"},
		{"CacheReconnects", rep.CacheReconnects, client, "reconnect"},
		{"CacheTimeouts", rep.CacheTimeouts, client, "timeout"},
		{"ShardFailovers", rep.ShardFailovers, shard, "failover"},
		{"FencedWrites", rep.FencedWrites, shard, "fenced-write"},
	} {
		if want := events(c.family, c.event); c.got != want {
			t.Errorf("Report.%s = %d, %s{event=%q} = %d", c.field, c.got, c.family, c.event, want)
		}
	}

	// No lineage mislinks across the failover: every held chain
	// reconstructs, stays causally ordered (flat monotonicity is too
	// strong for concurrent runs — see assertCausalOrder), and never
	// follows a Ref onto an event missing its trace identity.
	if rep.Lineage == nil || rep.TraceEvents == 0 {
		t.Fatal("no lineage recorded across failover")
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
					t.Fatalf("chain event without trace ID after failover: %+v", e)
				}
			}
		}
	}
}

// TestLockstepSingleShardClusterBitIdentical: a 1-shard cluster is the
// degenerate topology, and lockstep through it must reproduce the
// single-server run's weights bit for bit — the sharding layer adds no
// wire traffic and no nondeterminism on this path.
func TestLockstepSingleShardClusterBitIdentical(t *testing.T) {
	opt := tinyOpts()
	opt.Lockstep = true
	opt.Updates = 3
	base, err := Train(opt)
	if err != nil {
		t.Fatal(err)
	}

	srv := cache.NewServer(nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	copt := tinyOpts()
	copt.Lockstep = true
	copt.Updates = 3
	copt.Cluster = &cluster.Topology{
		Version: 1,
		Shards:  []cluster.Shard{{ID: 0, Addr: addr}},
	}
	crep, err := Train(copt)
	if err != nil {
		t.Fatal(err)
	}

	if len(base.FinalWeights) != len(crep.FinalWeights) {
		t.Fatalf("weight lengths differ: %d vs %d", len(base.FinalWeights), len(crep.FinalWeights))
	}
	for i := range base.FinalWeights {
		if base.FinalWeights[i] != crep.FinalWeights[i] {
			t.Fatalf("weights diverge at %d: %v vs %v", i, base.FinalWeights[i], crep.FinalWeights[i])
		}
	}
	if crep.ShardFailovers != 0 || crep.WeightRegressions != 0 {
		t.Fatalf("clean 1-shard run reported cluster recovery work: %+v", crep)
	}
}

// TestClusterOptionValidation: Cluster and CacheAddr are mutually
// exclusive, and a bad topology fails fast at option time.
func TestClusterOptionValidation(t *testing.T) {
	topo := &cluster.Topology{Version: 1, Shards: []cluster.Shard{{ID: 0, Addr: "127.0.0.1:1"}}}
	if _, err := (Options{CacheAddr: "127.0.0.1:1", Cluster: topo}).withDefaults(); err == nil {
		t.Fatal("CacheAddr+Cluster accepted")
	}
	bad := &cluster.Topology{Version: 1, Shards: []cluster.Shard{{ID: 0}}}
	if _, err := (Options{Cluster: bad}).withDefaults(); err == nil {
		t.Fatal("topology with empty shard address accepted")
	}
}
