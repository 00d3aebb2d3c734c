package main

import (
	"fmt"
	"time"

	"stellaris/internal/cache"
	"stellaris/internal/cache/cluster"
	"stellaris/internal/obs"
)

// tier is the benchmark-owned cache deployment a workload runs
// against: one plain server, or three fenced leader+follower pairs.
// The benchmark owns it (rather than letting live.Train start its own
// server) so set-up is timed apart from training and so the servers can
// be instrumented in the traced run.
type tier struct {
	// addr is the single server's address; empty for a cluster.
	addr string
	// topo is the cluster's topology document; nil for a single server.
	topo *cluster.Topology

	leaders        []*cache.Server
	leaderStores   []*cache.MemCache
	followers      []*cache.Server
	followerStores []*cache.MemCache
	replicas       []*cache.Replica
}

// startTier brings up a tier of the given shard count on loopback
// ports. reg, when set, instruments the leader servers (traced run
// only). shards == 0 returns nil: the workload has no TCP tier.
func startTier(shards int, seed uint64, reg *obs.Registry) (*tier, error) {
	if shards == 0 {
		return nil, nil
	}
	t := &tier{}
	listen := func(store *cache.MemCache, shardID int, instrument bool) (*cache.Server, string, error) {
		srv := cache.NewServer(store)
		if shardID >= 0 {
			// The shard ID arms write fencing on this server.
			srv.SetShardID(shardID)
		}
		if instrument && reg != nil {
			srv.Instrument(reg)
		}
		addr, err := srv.Listen("127.0.0.1:0")
		return srv, addr, err
	}
	if shards == 1 {
		store := cache.NewMemCache()
		srv, addr, err := listen(store, -1, true)
		if err != nil {
			return nil, err
		}
		t.addr = addr
		t.leaders = []*cache.Server{srv}
		t.leaderStores = []*cache.MemCache{store}
		return t, nil
	}
	t.topo = &cluster.Topology{Version: 1}
	for i := 0; i < shards; i++ {
		lstore := cache.NewMemCache()
		lsrv, laddr, err := listen(lstore, i, true)
		if err != nil {
			t.close()
			return nil, err
		}
		t.leaders = append(t.leaders, lsrv)
		t.leaderStores = append(t.leaderStores, lstore)

		fstore := cache.NewMemCache()
		fsrv, faddr, err := listen(fstore, i, false)
		if err != nil {
			t.close()
			return nil, err
		}
		t.followers = append(t.followers, fsrv)
		t.followerStores = append(t.followerStores, fstore)
		rep := cache.NewReplica(fstore, laddr, cache.ReplicaOptions{Seed: seed + uint64(i)})
		rep.Start()
		t.replicas = append(t.replicas, rep)

		// Term 1 arms fenced write envelopes on the data plane.
		t.topo.Shards = append(t.topo.Shards, cluster.Shard{ID: i, Addr: laddr, Follower: faddr, Term: 1})
	}
	// Seed the topology document on every shard, as an operator would.
	sc, err := cache.DialSharded(t.topo, cache.DialOptions{Seed: seed})
	if err != nil {
		t.close()
		return nil, err
	}
	err = sc.PublishTopology(t.topo)
	if cerr := sc.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.close()
		return nil, fmt.Errorf("seeding topology: %w", err)
	}
	return t, nil
}

// dialWith opens one client connection onto the tier: a plain client
// for a single server, a sharded client for a cluster.
func (t *tier) dialWith(opts cache.DialOptions) (cache.Conn, error) {
	if t.topo != nil {
		return cache.DialSharded(t.topo, opts)
	}
	return cache.DialWith(t.addr, opts)
}

// close stops replication first, then every server, and waits for
// their goroutines.
func (t *tier) close() {
	if t == nil {
		return
	}
	for _, r := range t.replicas {
		r.Stop()
	}
	for _, s := range t.followers {
		_ = s.Close()
	}
	for _, s := range t.leaders {
		_ = s.Close()
	}
}

// replicatedOps sums the mutation records the followers have applied.
func (t *tier) replicatedOps() int64 {
	var n int64
	for _, r := range t.replicas {
		n += r.Stats().Records
	}
	return n
}

// converged waits until every follower store holds as many keys as its
// leader, and reports whether that happened within the limit.
func (t *tier) converged(limit time.Duration) bool {
	deadline := time.Now().Add(limit)
	for {
		same := true
		for i := range t.followerStores {
			ln, _ := t.leaderStores[i].Len()
			fn, _ := t.followerStores[i].Len()
			if ln != fn {
				same = false
			}
		}
		if same {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
}
