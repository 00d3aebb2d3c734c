// Command stellaris-cached serves the distributed cache over TCP — the
// Redis stand-in of the paper's architecture (§VII). Actors, learner
// functions and the parameter function on other processes connect with
// cache.Dial.
//
// Usage:
//
//	stellaris-cached -addr :6380
//
// With -persist the keyspace is journaled to disk (snapshot + append-only
// op log) and recovered on restart, so a crashed or bounced cache server
// comes back with its keyspace intact:
//
//	stellaris-cached -addr :6380 -persist /var/lib/stellaris/cache
//
// For resilience drills the server can also expose a chaos endpoint: a
// fault-injecting proxy in front of the real listener that drops,
// delays, corrupts and severs traffic at the given per-chunk rates.
//
//	stellaris-cached -addr :6380 -fault-addr :6381 -fault-drop 0.05 -fault-close 0.01
//
// The proxy also scripts the two structured failure shapes (ISSUE 9):
// an asymmetric partition that blackholes one direction after N request
// frames, and a brownout window that floors per-chunk latency without
// injecting a single error — the gray failure a liveness probe misses.
//
//	stellaris-cached -addr :6380 -fault-partition-after 100 -fault-partition-drop s2c
//	stellaris-cached -addr :6380 -fault-brownout-after 100 -fault-brownout-floor 25ms -fault-brownout-for 10s
//
// In a sharded cluster (DESIGN.md §11) each shard runs one leader plus
// an optional follower. A follower serves reads and writes like any
// server but also streams the leader's op log into its own store, so it
// can be promoted when the leader dies:
//
//	stellaris-cached -addr :6390 -shard-id 0 -follower-of 127.0.0.1:6380
//
// -shard-id labels the process (log lines and obs info) AND arms write
// fencing: a server that knows its shard ID learns its leadership term
// from topology-document writes, so after a promotion it refuses
// term-stamped writes from clients still holding the stale view. Key
// routing stays client-side, driven by the topology document. SIGHUP
// promotes a follower: replication stops, so a resurrected old leader
// can no longer reset the promoted store. Clients promote on their own
// when the leader stops answering — the signal is for operators driving
// a planned switch.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"stellaris/internal/cache"
	"stellaris/internal/obs"
	"stellaris/internal/obs/lineage"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:6380", "listen address")
	persistDir := flag.String("persist", "", "durability directory (snapshot + op log; empty keeps the store in-memory)")
	obsAddr := flag.String("obs-addr", "", "metrics/pprof HTTP address (e.g. :9090; empty disables)")
	faultAddr := flag.String("fault-addr", "127.0.0.1:6381", "chaos proxy listen address (used when any -fault-* rate > 0)")
	faultDrop := flag.Float64("fault-drop", 0, "chaos proxy: per-chunk drop probability")
	faultDelay := flag.Float64("fault-delay", 0, "chaos proxy: per-chunk delay probability")
	faultMaxDelay := flag.Duration("fault-max-delay", 5*time.Millisecond, "chaos proxy: maximum injected delay")
	faultCorrupt := flag.Float64("fault-corrupt", 0, "chaos proxy: per-chunk corruption probability")
	faultClose := flag.Float64("fault-close", 0, "chaos proxy: per-chunk connection-close probability")
	faultSeed := flag.Uint64("fault-seed", 1, "chaos proxy: fault RNG seed")
	partAfter := flag.Int64("fault-partition-after", 0, "chaos proxy: partition after this many request frames (0 disables)")
	partDrop := flag.String("fault-partition-drop", "s2c", "chaos proxy: partition direction to blackhole (c2s or s2c)")
	partFor := flag.Duration("fault-partition-for", 0, "chaos proxy: partition duration (0 = until the process exits)")
	brownAfter := flag.Int64("fault-brownout-after", 0, "chaos proxy: brownout after this many request frames (0 disables)")
	brownFloor := flag.Duration("fault-brownout-floor", 25*time.Millisecond, "chaos proxy: per-chunk latency floor during the brownout")
	brownFor := flag.Duration("fault-brownout-for", 0, "chaos proxy: brownout duration (0 = until the process exits)")
	followerOf := flag.String("follower-of", "", "replicate from this leader address (promote with SIGHUP)")
	shardID := flag.Int("shard-id", -1, "shard label for log lines and metrics (-1 = unsharded)")
	obsID := flag.String("obs-id", "", "self-register as this fleet instance ID so stellaris-obsd discovers the server (requires -obs-addr)")
	hbEvery := flag.Duration("heartbeat-every", time.Second, "self-registration heartbeat interval")
	flag.Parse()

	var store *cache.MemCache
	if *persistDir != "" {
		var err error
		store, err = cache.NewPersistentMemCache(*persistDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "stellaris-cached: persist:", err)
			os.Exit(1)
		}
		fmt.Printf("persisting keyspace to %s\n", *persistDir)
	} else if *followerOf != "" || *obsID != "" {
		// A follower needs an explicit store handle: the replica applies
		// the leader's records to the same store the server serves. Fleet
		// self-registration needs one too: the server heartbeats into its
		// OWN store, so the record lives on the shard that wrote it and
		// obsd finds it with a cross-shard scan.
		store = cache.NewMemCache()
	}
	srv := cache.NewServer(store)
	if *shardID >= 0 {
		// Arms write fencing: the server learns its leadership term from
		// topology writes and refuses stale term-stamped writes.
		srv.SetShardID(*shardID)
	}
	obsHTTP := ""
	if *obsAddr != "" {
		reg := obs.NewRegistry()
		srv.Instrument(reg)
		if store != nil {
			store.InstrumentPersistence(reg)
		}
		// Server-side causal tracing: the cache's own view of artifacts
		// crossing its boundary (put/fetched hops on traj/ and grad/
		// keys), served at /trace.chrome.json even when the workers live
		// in other processes.
		lin := lineage.New(reg.Now, lineage.Options{Hooks: obs.LineageHooks(reg, obs.LatencyBuckets)})
		srv.InstrumentLineage(lin)
		reg.SetTraceSource(lin)
		reg.SetInfo("mode", "cached")
		if *shardID >= 0 {
			reg.SetInfo("shard", fmt.Sprintf("%d", *shardID))
		}
		if *followerOf != "" {
			reg.SetInfo("role", "follower")
		}
		hs, err := obs.Serve(*obsAddr, reg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "stellaris-cached: obs:", err)
			os.Exit(1)
		}
		defer hs.Close()
		obsHTTP = hs.Addr()
		fmt.Printf("metrics on http://%s/metrics (pprof under /debug/pprof/)\n", hs.Addr())
		fmt.Printf("causal trace on http://%s/trace.chrome.json (open in ui.perfetto.dev)\n", hs.Addr())
	}
	bound, err := srv.Listen(*addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "stellaris-cached:", err)
		os.Exit(1)
	}
	label := ""
	if *shardID >= 0 {
		label = fmt.Sprintf(" (shard %d)", *shardID)
	}
	fmt.Printf("stellaris-cached listening on %s%s\n", bound, label)

	// Fleet self-registration (DESIGN.md §12): heartbeat into this
	// server's own store so the record rides replication and failover
	// with the rest of the keyspace.
	var hb *cache.Heartbeat
	if *obsID != "" {
		if obsHTTP == "" {
			fmt.Fprintln(os.Stderr, "stellaris-cached: -obs-id requires -obs-addr (there is nothing to scrape otherwise)")
			os.Exit(2)
		}
		role := "cached"
		if *followerOf != "" {
			role = "follower"
		}
		hb = cache.StartHeartbeat(store, cache.Instance{
			ID: *obsID, Role: role, Addr: obsHTTP, CacheAddr: bound,
			Shard: *shardID, PID: os.Getpid(),
		}, *hbEvery)
		fmt.Printf("registered as %q in fleet registry%s\n", *obsID, label)
	}

	var replica *cache.Replica
	if *followerOf != "" {
		replica = cache.NewReplica(store, *followerOf, cache.ReplicaOptions{Seed: *faultSeed})
		replica.Start()
		fmt.Printf("replicating from %s%s; SIGHUP promotes\n", *followerOf, label)
		promote := make(chan os.Signal, 1)
		signal.Notify(promote, syscall.SIGHUP)
		go func() {
			<-promote
			replica.Promote()
			st := replica.Stats()
			fmt.Printf("promoted%s: replication stopped after %d full syncs, %d records\n",
				label, st.FullSyncs, st.Records)
		}()
	}

	cfg := cache.FaultConfig{
		DropRate:    *faultDrop,
		DelayRate:   *faultDelay,
		MaxDelay:    *faultMaxDelay,
		CorruptRate: *faultCorrupt,
		CloseRate:   *faultClose,
		Seed:        *faultSeed,
	}
	if *partAfter > 0 {
		dir := cache.ServerToClient
		if *partDrop == "c2s" {
			dir = cache.ClientToServer
		} else if *partDrop != "s2c" {
			fmt.Fprintf(os.Stderr, "stellaris-cached: -fault-partition-drop must be c2s or s2c, got %q\n", *partDrop)
			os.Exit(2)
		}
		cfg.Partitions = []cache.Partition{{AfterOps: *partAfter, Drop: dir, For: *partFor}}
	}
	if *brownAfter > 0 {
		cfg.Brownouts = []cache.Brownout{{AfterOps: *brownAfter, Floor: *brownFloor, For: *brownFor}}
	}
	var proxy *cache.FaultProxy
	// The proxy comes up whenever any fault is configured — random
	// per-chunk rates OR a scheduled partition/brownout window.
	if *faultDrop > 0 || *faultDelay > 0 || *faultCorrupt > 0 || *faultClose > 0 ||
		*partAfter > 0 || *brownAfter > 0 {
		proxy = cache.NewFaultProxy(bound, cfg)
		pbound, err := proxy.Listen(*faultAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "stellaris-cached: chaos proxy:", err)
			os.Exit(1)
		}
		fmt.Printf("chaos proxy %v listening on %s\n", proxy, pbound)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	if hb != nil {
		hb.Stop()
	}
	if replica != nil {
		replica.Stop()
	}
	if proxy != nil {
		st := proxy.Stats()
		fmt.Printf("chaos proxy injected: %d drops, %d delays, %d corruptions, %d closes over %d conns\n",
			st.Drops, st.Delays, st.Corruptions, st.Closes, st.Conns)
		if st.Partitions > 0 || st.Brownouts > 0 {
			fmt.Printf("chaos proxy scheduled: %d partitions (%d chunks dropped), %d brownouts (%d chunks held)\n",
				st.Partitions, st.PartitionDrops, st.Brownouts, st.BrownoutHolds)
		}
		if err := proxy.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "stellaris-cached: chaos proxy close:", err)
		}
	}
	if err := srv.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "stellaris-cached: close:", err)
		os.Exit(1)
	}
	if store != nil {
		if err := store.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "stellaris-cached: persist close:", err)
			os.Exit(1)
		}
	}
}
