package live

// Fleet telemetry chaos drill (DESIGN.md §12): stellaris-obsd's
// collector watches a live 3-shard cluster through a scheduled
// asymmetric partition. The victim shard's leader stays ALIVE the
// whole time — its heartbeat keeps beating and its obs endpoint keeps
// answering — but no client request lands, so fleet_shard_serving
// collapses while fleet_instance_up holds at 1: exactly the signal
// split a liveness probe cannot see. The shard-unserved rule must ride
// its hysteresis dwell, fire with a trace ID, capture a profiling
// snapshot of the offender, and resolve once the workers promote the
// follower and the collector adopts the bumped topology.

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"stellaris/internal/cache"
	"stellaris/internal/leaktest"
	"stellaris/internal/obs"
	"stellaris/internal/obs/fleet"
)

func TestChaosFleetTelemetry(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos drill skipped under -short")
	}
	leaktest.Check(t)

	const shards = 3
	regs := make([]*obs.Registry, shards)
	fregs := make([]*obs.Registry, shards)
	for i := range regs {
		regs[i] = obs.NewRegistry()
		fregs[i] = obs.NewRegistry()
	}
	lc := startLiveClusterObs(t, shards, cache.FaultConfig{Seed: 31}, regs, fregs)
	victim := headVictim(t, lc.topo)
	// The fleet registry lives on a healthy shard's store: heartbeats
	// and the collector's discovery reads must not depend on the very
	// data plane the drill is breaking.
	registry := (victim + 1) % shards
	disc := lc.stores[registry]

	// Scrape plane: each server's registry over its own HTTP endpoint,
	// off the proxied data path — partitioning the cache wire must not
	// blind the telemetry.
	obsAddrs := make([]string, shards)
	fobsAddrs := make([]string, shards)
	for i := 0; i < shards; i++ {
		hs, err := obs.Serve("127.0.0.1:0", regs[i])
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = hs.Close() })
		obsAddrs[i] = hs.Addr()
		fhs, err := obs.Serve("127.0.0.1:0", fregs[i])
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = fhs.Close() })
		fobsAddrs[i] = fhs.Addr()
	}

	// Self-registration: leaders advertise the PROXY address (what the
	// topology document names and what workers dial), followers their
	// direct address — after promotion the topology points at the
	// follower and fleet_shard_serving follows the new leader.
	var hbs []*cache.Heartbeat
	for i := 0; i < shards; i++ {
		hbs = append(hbs,
			cache.StartHeartbeat(disc, cache.Instance{
				ID: fmt.Sprintf("shard%d-leader", i), Role: "cached",
				Addr: obsAddrs[i], CacheAddr: lc.topo.Shards[i].Addr,
				Shard: i, PID: os.Getpid(),
			}, 100*time.Millisecond),
			cache.StartHeartbeat(disc, cache.Instance{
				ID: fmt.Sprintf("shard%d-follower", i), Role: "follower",
				Addr: fobsAddrs[i], CacheAddr: lc.topo.Shards[i].Follower,
				Shard: i, PID: os.Getpid(),
			}, 100*time.Millisecond))
	}
	t.Cleanup(func() {
		for _, hb := range hbs {
			hb.Stop()
		}
	})

	shardLabel := fmt.Sprintf("%d", victim)
	profDir := t.TempDir()
	creg := obs.NewRegistry()
	col, err := fleet.New(fleet.Config{
		Clock:    creg.Now,
		Discover: disc,
		// 1s rate window: the victim's serving rate must drain within a
		// second of the partition, well before the workers' ~4s failure
		// detection promotes the follower and erases the outage.
		RateWindowSec:  1,
		ProfileDir:     profDir,
		ProfileSeconds: 1,
		Obs:            creg,
		Rules: []fleet.Rule{{
			Name:     "shard-unserved",
			Metric:   "fleet_shard_serving",
			Instance: fleet.FleetInstance,
			Labels:   map[string]string{"shard": shardLabel},
			Below:    true, Threshold: 0.05,
			ForSec:   0.5,
			Severity: "page",
			Profile:  true,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(col.Close)

	// Long op timeouts keep the workers' failure detection (~2 attempts
	// × 2s) safely BEHIND the alert's fire time (~1s drain + 0.5s
	// dwell): the drill must observe the outage before failover cures it.
	opt := tinyOpts()
	opt.Cluster = lc.topo
	// Enough updates that the partition lands MID-RUN: every update
	// writes the weights head on the victim shard, so remaining updates
	// guarantee the workers feel the outage and fail over.
	opt.Updates = 24
	opt.ActorSteps = 16
	opt.BatchSize = 32
	opt.Cache.OpTimeout = 2 * time.Second
	opt.Cache.Attempts = 2
	opt.Obs = obs.NewRegistry()

	type trainResult struct {
		rep *Report
		err error
	}
	trainDone := make(chan trainResult, 1)
	go func() {
		rep, err := Train(opt)
		trainDone <- trainResult{rep, err}
	}()
	waitTrain := func() *Report {
		t.Helper()
		res := <-trainDone
		if res.err != nil {
			t.Fatalf("Train through partition: %v", res.err)
		}
		return res.rep
	}

	serving := func() (float64, bool) {
		p, ok := col.Store().Latest(fleet.FleetInstance, "fleet_shard_serving",
			map[string]string{"shard": shardLabel})
		return p.V, ok
	}

	// Phase 1 — healthy baseline: traffic flows, every instance is up,
	// the victim shard serves, nothing is pending or firing.
	if !lc.awaitShardTraffic(victim) {
		waitTrain()
		t.Fatal("victim shard never saw traffic")
	}
	deadline := time.Now().Add(15 * time.Second)
	healthy := false
	for time.Now().Before(deadline) {
		col.Tick()
		rate, ok := serving()
		if ok && rate > 0.05 && len(col.Engine().Active()) == 0 {
			healthy = true
			break
		}
		// Tight cadence: the baseline must be established while the run
		// is still young, so the partition lands mid-run.
		time.Sleep(10 * time.Millisecond)
	}
	if !healthy {
		rate, ok := serving()
		waitTrain()
		t.Fatalf("no healthy baseline: serving=%v ok=%v active=%v", rate, ok, col.Engine().Active())
	}
	up := 0
	for _, in := range col.Instances() {
		if in.Up {
			up++
		}
	}
	if up != 2*shards {
		t.Fatalf("baseline: %d instances up, want %d: %+v", up, 2*shards, col.Instances())
	}

	// Phase 2 — blackhole requests INTO the victim's leader. Its op
	// counters freeze (nothing lands) while heartbeat and obs endpoint
	// stay healthy: shard unserved, instance alive.
	lc.proxies[victim].PartitionNow(cache.ClientToServer, 0)
	partAt := time.Now()
	deadline = partAt.Add(20 * time.Second)
	var fired fleet.AlertEvent
	for time.Now().Before(deadline) && fired.Trace == "" {
		for _, ev := range col.Tick() {
			if ev.Rule == "shard-unserved" && ev.State == fleet.StateFiring {
				fired = ev
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	if fired.Trace == "" {
		waitTrain()
		t.Fatalf("shard-unserved never fired; events=%+v", col.Engine().Events())
	}
	if since := time.Since(partAt); since < 450*time.Millisecond {
		t.Fatalf("alert fired %v after the partition — hysteresis dwell (0.5s) did not hold", since)
	}
	if fired.Severity != "page" {
		t.Fatalf("firing severity %q, want page", fired.Severity)
	}
	// The split a liveness probe misses: the unserved shard's leader is
	// still a live, beating instance.
	for _, in := range col.Instances() {
		if in.ID == fmt.Sprintf("shard%d-leader", victim) && !in.Up {
			t.Fatalf("victim leader marked down at firing time — its heartbeat never stopped: %+v", in)
		}
	}

	// Phase 3 — the workers time out, promote the follower and publish
	// the bumped topology; the collector adopts it, serving follows the
	// new leader, and the alert resolves under the same trace.
	//
	// The run can finish — and its traffic stop — before the collector
	// has scraped the promoted follower under the adopted topology; the
	// serving rate would then sit at zero and the alert never resolve.
	// So the test keeps victim-shard traffic flowing itself: plain reads
	// straight at the victim's follower (never fenced, and invisible to
	// fleet_shard_serving until the topology names that server leader).
	fcli, err := cache.Dial(lc.topo.Shards[victim].Follower)
	if err != nil {
		waitTrain()
		t.Fatal(err)
	}
	defer fcli.Close()
	var resolved fleet.AlertEvent
	deadline = time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) && resolved.Trace == "" {
		for i := 0; i < 4; i++ {
			_, _ = fcli.Get(cache.KeyWeightsHead)
		}
		for _, ev := range col.Tick() {
			if ev.Rule == "shard-unserved" && ev.State == fleet.StateResolved {
				resolved = ev
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	if resolved.Trace == "" {
		rep := waitTrain()
		rate, ok := serving()
		t.Fatalf("shard-unserved never resolved; events=%+v topo=%+v serving=%v/%v failovers=%d instances=%+v",
			col.Engine().Events(), col.Topology(), rate, ok, rep.ShardFailovers, col.Instances())
	}
	if resolved.Trace != fired.Trace {
		t.Fatalf("resolve trace %q does not join firing trace %q", resolved.Trace, fired.Trace)
	}

	// The run itself must have survived the drill.
	rep := waitTrain()
	if rep.Updates < opt.Updates {
		t.Fatalf("completed %d/%d updates across the partition", rep.Updates, opt.Updates)
	}
	if rep.ShardFailovers < 1 {
		t.Fatalf("partitioned shard never failed over: %+v", rep)
	}

	// Fleet view reflects the promoted topology.
	v := col.View()
	if v.Topology == nil || v.Topology.Version < 2 {
		t.Fatalf("collector never adopted the promoted topology: %+v", v.Topology)
	}
	promoted := v.Topology.Shards[victim]
	if promoted.Term < 2 {
		t.Fatalf("promoted shard term %d, want >= 2", promoted.Term)
	}
	if promoted.Addr != lc.topo.Shards[victim].Follower {
		t.Fatalf("promoted shard addr %q, want the old follower %q", promoted.Addr, lc.topo.Shards[victim].Follower)
	}

	// The firing rule asked for a profile: Close waits for the capture,
	// then at least one pprof snapshot of the victim must be on disk.
	col.Close()
	profs := col.Profiles()
	if len(profs) == 0 {
		t.Fatal("no profile captured on firing")
	}
	found := 0
	for _, base := range profs {
		for _, suffix := range []string{"-heap.pprof", "-cpu.pprof"} {
			if fi, err := os.Stat(filepath.Join(profDir, base+suffix)); err == nil && fi.Size() > 0 {
				found++
			}
		}
	}
	if found == 0 {
		t.Fatalf("profile capture %v left no files in %s", profs, profDir)
	}
}
