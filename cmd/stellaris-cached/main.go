// Command stellaris-cached serves the distributed cache over TCP — the
// Redis stand-in of the paper's architecture (§VII). Actors, learner
// functions and the parameter function on other processes connect with
// cache.Dial.
//
// Usage:
//
//	stellaris-cached -addr :6380
//
// The keyspace lives in memory only, as the paper's cache does: a
// restarted server comes back empty. Trajectories and gradients in it
// are shed and produced again, and the parameter function re-publishes
// the weights a worker finds missing; a follower (below) is what keeps
// the keyspace across the loss of a leader.
//
// For resilience drills the server can also expose a chaos endpoint: a
// fault-injecting proxy in front of the real listener that drops,
// delays, corrupts and severs traffic at the given per-chunk rates.
//
//	stellaris-cached -addr :6380 -fault-addr :6381 -fault-drop 0.05 -fault-close 0.01
//
// The proxy also scripts an asymmetric partition that blackholes one
// direction after N request frames (DESIGN.md §11.7):
//
//	stellaris-cached -addr :6380 -fault-partition-after 100 -fault-partition-drop s2c
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
	followerOf := flag.String("follower-of", "", "replicate from this leader address (promote with SIGHUP)")
	shardID := flag.Int("shard-id", -1, "shard label for log lines and metrics (-1 = unsharded)")
	flag.Parse()

	var store *cache.MemCache
	if *followerOf != "" {
		// A follower needs an explicit store handle: the replica applies
		// the leader's records to the same store the server serves.
		store = cache.NewMemCache()
	}
	srv := cache.NewServer(store)
	if *shardID >= 0 {
		// Arms write fencing: the server learns its leadership term from
		// topology writes and refuses stale term-stamped writes.
		srv.SetShardID(*shardID)
	}
	if *obsAddr != "" {
		reg := obs.NewRegistry()
		srv.Instrument(reg)
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
	var proxy *cache.FaultProxy
	// The proxy comes up whenever any fault is configured — random
	// per-chunk rates OR a scheduled partition.
	if *faultDrop > 0 || *faultDelay > 0 || *faultCorrupt > 0 || *faultClose > 0 || *partAfter > 0 {
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
	if replica != nil {
		replica.Stop()
	}
	if proxy != nil {
		st := proxy.Stats()
		fmt.Printf("chaos proxy injected: %d drops, %d delays, %d corruptions, %d closes over %d conns\n",
			st.Drops, st.Delays, st.Corruptions, st.Closes, st.Conns)
		if st.Partitions > 0 {
			fmt.Printf("chaos proxy scheduled: %d partitions (%d chunks dropped)\n",
				st.Partitions, st.PartitionDrops)
		}
		if err := proxy.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "stellaris-cached: chaos proxy close:", err)
		}
	}
	if err := srv.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "stellaris-cached: close:", err)
		os.Exit(1)
	}
}
