// Command live_cluster runs Stellaris in its operational (non-simulated)
// mode: real concurrent actor, learner and parameter workers exchanging
// trajectories, gradients and policy weights through the TCP distributed
// cache — the deployment shape of the paper's §VII implementation. Point
// -cache at a running `stellaris-cached` instance to span processes, or
// leave it empty to self-host the cache in-process.
//
// -checkpoint-dir makes the run crash-safe: training state (weights,
// optimizer moments, version counter, staleness thresholds) persists
// every -checkpoint-every updates with atomic renames, plus a mirrored
// copy in the cache; -resume picks up the newest checkpoint after a
// kill. -lockstep trades concurrency for a deterministic schedule whose
// resumed runs are bit-identical to uninterrupted ones.
//
// The -chaos flag routes all cache traffic through an in-process
// fault-injecting proxy (drops, delays, corruption, connection closes at
// the given per-chunk rate) to demonstrate the pipeline degrading
// gracefully; the resilience counters in the summary show the recovery
// work performed. They are read from the run's metrics registry, so they
// count every cache connection the run opened, the ones replaced on
// failover included, and equal cache_client_events_total in -obs-dir's
// metrics.prom.
//
// The cache flags (-op-timeout, -attempts) fill live.Options.Cache, the
// one cache.DialOptions every connection of the run dials with. Under
// faults a connection does what DESIGN.md §11.6 lists: per-op
// deadlines, retry with backoff, reconnect, failover to the follower,
// and term-fenced writes.
//
// -shards self-hosts a sharded cache cluster (DESIGN.md §11) instead of
// a single server; -shard-followers gives every shard a replicating
// follower, and -kill-shard-after hard-kills the shard owning the
// weights head mid-run to demonstrate follower failover — the summary's
// cluster line shows the failovers the workers rode through.
//
// -partition-shard-after asymmetrically partitions the head shard
// instead (requests land, responses blackhole — the deposed-leader shape
// write fencing exists for). It also needs -shard-followers:
//
//	live_cluster -shards 3 -shard-followers -partition-shard-after 2s
//
// -obs-addr serves live metrics (Prometheus text at /metrics, JSON at
// /metrics.json, pprof under /debug/pprof/) while the run is in flight;
// -obs-dir periodically dumps the same snapshots to disk. With a
// registry attached the run also records end-to-end causal lineage, the
// run's one timeline: download /trace.chrome.json and open it in
// Perfetto (ui.perfetto.dev) to see every policy update and its
// trajectory→gradient→aggregation chains, and check /healthz and
// /buildinfo for liveness and run identity. -log-level filters the
// structured (log/slog key=value) lines on stderr.
// -flight-dir picks where crash postmortems (flight-recorder dumps)
// land; it defaults to -checkpoint-dir.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"time"

	"stellaris/internal/cache"
	"stellaris/internal/cache/cluster"
	"stellaris/internal/live"
	"stellaris/internal/obs"
)

func main() {
	var opt live.Options
	var chaos float64
	var obsAddr, obsDir string
	var obsEvery time.Duration
	var shards int
	var shardFollowers bool
	var killShardAfter time.Duration
	var partitionShardAfter time.Duration
	var logLevel string
	flag.StringVar(&opt.CacheAddr, "cache", "", "stellaris-cached address (empty = in-process)")
	flag.StringVar(&opt.Env, "env", "cartpole", "environment")
	flag.IntVar(&opt.Actors, "actors", 4, "actor workers")
	flag.IntVar(&opt.Learners, "learners", 2, "learner workers")
	flag.IntVar(&opt.Updates, "updates", 32, "policy updates")
	flag.IntVar(&opt.ActorSteps, "actor-steps", 64, "steps per trajectory")
	flag.IntVar(&opt.BatchSize, "batch", 256, "learner batch size")
	flag.IntVar(&opt.Hidden, "hidden", 64, "MLP width")
	flag.Float64Var(&opt.LearningRate, "lr", 0.0003, "learning rate")
	flag.Uint64Var(&opt.Seed, "seed", 1, "seed")
	flag.DurationVar(&opt.Cache.OpTimeout, "op-timeout", 0, "per-operation cache deadline (0 = the cache's default)")
	flag.IntVar(&opt.Cache.Attempts, "attempts", 0, "tries per cache operation, transport errors only (0 = the cache's default)")
	flag.StringVar(&opt.CheckpointDir, "checkpoint-dir", "", "persist crash-safe checkpoints here (empty disables)")
	flag.IntVar(&opt.CheckpointEvery, "checkpoint-every", 0, "updates between checkpoints (0 = once per staleness round)")
	flag.BoolVar(&opt.Resume, "resume", false, "resume from the newest checkpoint (directory, then cache mirror)")
	flag.BoolVar(&opt.Lockstep, "lockstep", false, "deterministic single-threaded schedule (bit-identical resume)")
	flag.IntVar(&opt.RestartBudget, "restart-budget", 8, "worker restarts allowed before the run fails")
	flag.StringVar(&opt.FlightDir, "flight-dir", "", "write flight-recorder crash dumps here (empty = -checkpoint-dir)")
	flag.Float64Var(&chaos, "chaos", 0, "fault-injection rate (0 disables; 0.05 = 5% drops/delays per chunk)")
	flag.IntVar(&shards, "shards", 0, "self-host a sharded cache cluster with this many shards (0 = single cache; incompatible with -cache and -chaos)")
	flag.BoolVar(&shardFollowers, "shard-followers", false, "give every self-hosted shard a replicating follower (enables failover)")
	flag.DurationVar(&killShardAfter, "kill-shard-after", 0, "failover drill: hard-kill the shard owning the weights head this long into the run (needs -shard-followers)")
	flag.DurationVar(&partitionShardAfter, "partition-shard-after", 0, "partition drill: blackhole the head shard's responses this long into the run (needs -shard-followers)")
	flag.StringVar(&obsAddr, "obs-addr", "", "metrics/pprof HTTP address (e.g. :9090; empty disables)")
	flag.StringVar(&obsDir, "obs-dir", "", "periodically dump metrics.{json,csv,prom} here")
	flag.DurationVar(&obsEvery, "obs-every", 5*time.Second, "dump interval for -obs-dir")
	flag.StringVar(&logLevel, "log-level", "info", "log level: debug, info, warn, error")
	flag.Parse()

	lg := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: obs.ParseLogLevel(logLevel)}))
	fatal := func(msg string, args ...any) {
		lg.Error(msg, args...)
		os.Exit(1)
	}

	if obsAddr != "" || obsDir != "" {
		opt.Obs = obs.NewRegistry()
	}
	if obsAddr != "" {
		hs, err := obs.Serve(obsAddr, opt.Obs)
		if err != nil {
			fatal("obs serve failed", "err", err.Error())
		}
		defer hs.Close()
		fmt.Printf("metrics on http://%s/metrics (pprof under /debug/pprof/)\n", hs.Addr())
		fmt.Printf("causal trace on http://%s/trace.chrome.json (open in ui.perfetto.dev)\n", hs.Addr())
	}
	if obsDir != "" {
		stop := obs.StartDump(opt.Obs, obsDir, obsEvery, func(err error) {
			lg.Warn("obs dump failed", "err", err.Error())
		})
		defer stop()
	}

	if chaos > 0 {
		if opt.CacheAddr == "" {
			// Self-hosted cache: stand one up explicitly so the proxy
			// has a target.
			srv := cache.NewServer(nil)
			addr, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				fatal("fatal error", "err", err.Error())
			}
			defer srv.Close()
			opt.CacheAddr = addr
		}
		proxy := cache.NewFaultProxy(opt.CacheAddr, cache.FaultConfig{
			DropRate:    chaos,
			DelayRate:   chaos,
			MaxDelay:    2 * time.Millisecond,
			CorruptRate: chaos / 2,
			CloseRate:   chaos / 4,
			Seed:        opt.Seed,
		})
		paddr, err := proxy.Listen("127.0.0.1:0")
		if err != nil {
			fatal("fatal error", "err", err.Error())
		}
		defer func() {
			st := proxy.Stats()
			fmt.Printf("chaos: injected %d drops, %d delays, %d corruptions, %d closes\n",
				st.Drops, st.Delays, st.Corruptions, st.Closes)
			proxy.Close()
		}()
		opt.CacheAddr = paddr
		// Tighter deadlines recover faster under injected faults.
		opt.Cache.OpTimeout = 250 * time.Millisecond
		opt.Cache.Attempts = 10
	}

	if shards > 0 {
		if opt.CacheAddr != "" || chaos > 0 {
			fatal("-shards self-hosts the cache cluster; it is incompatible with -cache and -chaos")
		}
		// The partition drill needs a fault proxy in front of every
		// leader, so the drill can fault the data plane while replication
		// (leader→follower, dialed directly) keeps flowing.
		drill := partitionShardAfter > 0
		topo := &cluster.Topology{Version: 1}
		leaders := make([]*cache.Server, shards)
		replicas := make([]*cache.Replica, shards)
		proxies := make([]*cache.FaultProxy, shards)
		for i := 0; i < shards; i++ {
			srv := cache.NewServer(nil)
			// The shard ID arms write fencing: after a promotion the
			// deposed leader refuses writes stamped with the stale term.
			srv.SetShardID(i)
			addr, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				fatal("fatal error", "err", err.Error())
			}
			defer srv.Close()
			leaders[i] = srv
			shardAddr := addr
			if drill {
				proxy := cache.NewFaultProxy(addr, cache.FaultConfig{Seed: opt.Seed + uint64(100+i)})
				paddr, err := proxy.Listen("127.0.0.1:0")
				if err != nil {
					fatal("fatal error", "err", err.Error())
				}
				defer proxy.Close()
				proxies[i] = proxy
				shardAddr = paddr
			}
			sh := cluster.Shard{ID: i, Addr: shardAddr}
			if !opt.Lockstep {
				// Term 1 arms fenced writes. Lockstep keeps term 0: the
				// envelope would change the deterministic wire schedule.
				sh.Term = 1
			}
			if shardFollowers {
				fstore := cache.NewMemCache()
				fsrv := cache.NewServer(fstore)
				fsrv.SetShardID(i)
				faddr, err := fsrv.Listen("127.0.0.1:0")
				if err != nil {
					fatal("fatal error", "err", err.Error())
				}
				defer fsrv.Close()
				fr := cache.NewReplica(fstore, addr, cache.ReplicaOptions{Seed: opt.Seed + uint64(i)})
				fr.Start()
				defer fr.Stop()
				replicas[i] = fr
				sh.Follower = faddr
			}
			topo.Shards = append(topo.Shards, sh)
		}
		opt.Cluster = topo
		fmt.Printf("self-hosted cache cluster: %d shards, followers %v\n", shards, shardFollowers)
		victimOf := func(drillFlag string) int {
			if !shardFollowers {
				fatal("drill needs -shard-followers (nothing to fail over to)", "flag", drillFlag)
			}
			ring, err := cluster.NewRing(topo)
			if err != nil {
				fatal("fatal error", "err", err.Error())
			}
			return ring.Shard(cache.KeyWeightsHead)
		}
		if killShardAfter > 0 {
			victim := victimOf("-kill-shard-after")
			timer := time.AfterFunc(killShardAfter, func() {
				_ = leaders[victim].Close()
				replicas[victim].Promote()
				fmt.Printf("chaos: hard-killed shard %d (owns %s); follower promoted\n",
					victim, cache.KeyWeightsHead)
			})
			defer timer.Stop()
		}
		if partitionShardAfter > 0 {
			victim := victimOf("-partition-shard-after")
			timer := time.AfterFunc(partitionShardAfter, func() {
				proxies[victim].PartitionNow(cache.ServerToClient, 0)
				fmt.Printf("chaos: partitioned shard %d (owns %s) — responses blackholed; workers must fail over and fence the deposed leader\n",
					victim, cache.KeyWeightsHead)
			})
			defer timer.Stop()
		}
	} else if shardFollowers || killShardAfter > 0 || partitionShardAfter > 0 {
		fatal("-shard-followers and the shard drills need -shards")
	}

	rep, err := live.Train(opt)
	if err != nil {
		fatal("fatal error", "err", err.Error())
	}
	fmt.Printf("live training: %d updates in %v across %d actors + %d learners\n",
		rep.Updates, rep.Elapsed.Round(1e6), opt.Actors, opt.Learners)
	fmt.Printf("episodes %d | mean return %.1f | mean staleness %.2f | mean trajectory lag %.2f\n",
		rep.Episodes, rep.MeanReturn, rep.MeanStaleness, rep.MeanTrajectoryLag)
	fmt.Printf("resilience: %d retries, %d reconnects, %d timeouts, %d stale-weight reuses, %d shed payloads\n",
		rep.CacheRetries, rep.CacheReconnects, rep.CacheTimeouts,
		rep.StaleWeightReuses, rep.DroppedPayloads)
	if rep.ShardFailovers+rep.WeightRegressions > 0 {
		fmt.Printf("cluster: %d shard failovers, %d weight-head regressions ridden through\n",
			rep.ShardFailovers, rep.WeightRegressions)
	}
	if rep.FencedWrites > 0 {
		fmt.Printf("robustness: %d fenced writes\n", rep.FencedWrites)
	}
	if rep.Resumed {
		fmt.Printf("resumed from checkpoint at version %d\n", rep.ResumedFromVersion)
	}
	if rep.ActorRestarts+rep.LearnerRestarts+rep.CheckpointsWritten > 0 {
		fmt.Printf("crash recovery: %d actor restarts, %d learner restarts, %d checkpoints written\n",
			rep.ActorRestarts, rep.LearnerRestarts, rep.CheckpointsWritten)
	}
	if rep.TraceEvents > 0 {
		fmt.Printf("lineage: %d trace events, max depth %d, %d flight dumps\n",
			rep.TraceEvents, rep.MaxLineageDepth, rep.FlightDumps)
	}
}
