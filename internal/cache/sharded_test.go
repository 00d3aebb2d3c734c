package cache

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"stellaris/internal/cache/cluster"
	"stellaris/internal/leaktest"
)

// startCluster stands up n leader servers (each with an optional
// follower replicating it) and returns the topology plus the backing
// pieces for fault injection.
type testCluster struct {
	topo      *cluster.Topology
	leaders   []*Server
	followers []*Server
	replicas  []*Replica
	stores    []*MemCache
	fstores   []*MemCache // the followers' own stores (withFollowers only)
}

func startTestCluster(t *testing.T, n int, withFollowers bool) *testCluster {
	t.Helper()
	tc := &testCluster{topo: &cluster.Topology{Version: 1}}
	for i := 0; i < n; i++ {
		store := NewMemCache()
		srv, addr := startLeader(t, store)
		tc.stores = append(tc.stores, store)
		tc.leaders = append(tc.leaders, srv)
		sh := cluster.Shard{ID: i, Addr: addr}
		if withFollowers {
			fstore := NewMemCache()
			fsrv, faddr := startLeader(t, fstore)
			rep := NewReplica(fstore, addr, fastReplicaOpts())
			rep.Start()
			tc.followers = append(tc.followers, fsrv)
			tc.replicas = append(tc.replicas, rep)
			tc.fstores = append(tc.fstores, fstore)
			sh.Follower = faddr
		}
		tc.topo = &cluster.Topology{Version: 1, Shards: append(tc.topo.Shards, sh)}
	}
	t.Cleanup(func() {
		for _, r := range tc.replicas {
			r.Stop()
		}
		for _, s := range tc.leaders {
			s.Close()
		}
		for _, s := range tc.followers {
			s.Close()
		}
	})
	return tc
}

func TestShardedClientBasicOps(t *testing.T) {
	leaktest.Check(t)
	tc := startTestCluster(t, 3, false)
	sc, err := DialSharded(tc.topo, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()

	const n = 64
	for i := 0; i < n; i++ {
		if err := sc.Put(fmt.Sprintf("traj/%d", i), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Every key readable back, and the data actually spread out.
	spread := 0
	for _, st := range tc.stores {
		if l, _ := st.Len(); l > 0 {
			spread++
		}
	}
	if spread < 2 {
		t.Fatalf("64 keys landed on %d/3 shards", spread)
	}
	for i := 0; i < n; i++ {
		v, err := sc.Get(fmt.Sprintf("traj/%d", i))
		if err != nil || !bytes.Equal(v, []byte(fmt.Sprintf("v%d", i))) {
			t.Fatalf("Get traj/%d = %q, %v", i, v, err)
		}
	}
	if _, err := sc.Get("traj/missing"); err == nil {
		t.Fatal("Get of missing key succeeded")
	}

	// Keys merges sorted across shards; Len sums.
	keys, err := sc.Keys("traj/")
	if err != nil || len(keys) != n {
		t.Fatalf("Keys: %d keys, %v", len(keys), err)
	}
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Fatalf("Keys not sorted/deduped at %d: %q >= %q", i, keys[i-1], keys[i])
		}
	}
	if l, err := sc.Len(); err != nil || l != n {
		t.Fatalf("Len = %d, %v", l, err)
	}

	if err := sc.Delete("traj/0"); err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Get("traj/0"); err == nil {
		t.Fatal("deleted key still readable")
	}
}

func TestShardedClientBatchOps(t *testing.T) {
	tc := startTestCluster(t, 3, false)
	sc, err := DialSharded(tc.topo, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()

	kvs := make([]KV, 40)
	keys := make([]string, 40)
	for i := range kvs {
		keys[i] = fmt.Sprintf("grad/%d", i)
		kvs[i] = KV{Key: keys[i], Val: []byte(fmt.Sprintf("g%d", i))}
	}
	if err := sc.PutN(kvs); err != nil {
		t.Fatal(err)
	}
	keys = append(keys, "grad/none")
	vals, err := sc.GetN(keys)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 41 || vals[40] != nil {
		t.Fatalf("GetN shape: %d vals, missing=%v", len(vals), vals[40])
	}
	for i := 0; i < 40; i++ {
		if !bytes.Equal(vals[i], []byte(fmt.Sprintf("g%d", i))) {
			t.Fatalf("GetN[%d] = %q", i, vals[i])
		}
	}
}

func TestShardedClientTopologyKeyOnEveryShard(t *testing.T) {
	tc := startTestCluster(t, 3, false)
	sc, err := DialSharded(tc.topo, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()

	if err := sc.PublishTopology(tc.topo); err != nil {
		t.Fatal(err)
	}
	// The document must exist on every shard, so losing any one shard
	// cannot lose the shard map.
	for i, st := range tc.stores {
		if _, err := st.Get(cluster.TopologyKey); err != nil {
			t.Fatalf("shard %d missing topology doc: %v", i, err)
		}
	}
	got, err := sc.FetchTopology()
	if err != nil || got.Version != 1 || len(got.Shards) != 3 {
		t.Fatalf("FetchTopology: %+v, %v", got, err)
	}
	// Keys must dedupe the replicated doc.
	ks, err := sc.Keys("sys/")
	if err != nil || len(ks) != 1 || ks[0] != cluster.TopologyKey {
		t.Fatalf("Keys(sys/) = %v, %v", ks, err)
	}
}

func TestShardedClientFailoverToFollower(t *testing.T) {
	leaktest.Check(t)
	tc := startTestCluster(t, 3, true)
	opts := DialOptions{OpTimeout: 200 * time.Millisecond, Attempts: 2, BackoffBase: time.Millisecond, BackoffMax: 5 * time.Millisecond, DialTimeout: time.Second}
	sc, err := DialSharded(tc.topo, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()

	const n = 48
	for i := 0; i < n; i++ {
		if err := sc.Put(fmt.Sprintf("traj/%d", i), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Let every follower catch up before the kill: every key its leader
	// holds must be readable from the follower's OWN store. (Counting
	// Replica.Stats().Records against the leader's Len() is not enough —
	// the count can be reached before the last streamed write is applied,
	// and replication is asynchronous, so the promoted follower would
	// then legitimately lack an acked write.)
	for i, st := range tc.stores {
		keys, _ := st.Keys("")
		fst := tc.fstores[i]
		waitFor(t, 5*time.Second, func() error {
			for _, k := range keys {
				want, _ := st.Get(k)
				if got, err := fst.Get(k); err != nil || !bytes.Equal(got, want) {
					return fmt.Errorf("follower %d behind on %q: %q, %v", i, k, got, err)
				}
			}
			return nil
		})
	}

	// Hard-kill shard 1's leader and freeze its follower at the last
	// applied record (crash-stop + promote).
	tc.replicas[1].Promote()
	if err := tc.leaders[1].Close(); err != nil {
		t.Fatal(err)
	}

	// Every key must still be readable: shard 1's keys via its promoted
	// follower, the rest untouched. Writes must land too.
	for i := 0; i < n; i++ {
		v, err := sc.Get(fmt.Sprintf("traj/%d", i))
		if err != nil || !bytes.Equal(v, []byte(fmt.Sprintf("v%d", i))) {
			t.Fatalf("post-kill Get traj/%d = %q, %v", i, v, err)
		}
	}
	for i := 0; i < n; i++ {
		if err := sc.Put(fmt.Sprintf("traj/post/%d", i), []byte("p")); err != nil {
			t.Fatalf("post-kill Put: %v", err)
		}
	}
	st := sc.ShardedStats()
	if st.Failovers < 1 {
		t.Fatalf("no failover recorded: %+v", st)
	}
	if st.TopologyVersion < 2 {
		t.Fatalf("promotion did not bump topology: %+v", st)
	}
	// The promotion was published: a fetch shows the follower as leader.
	got, err := sc.FetchTopology()
	if err != nil {
		t.Fatal(err)
	}
	if got.Shards[1].Addr != tc.topo.Shards[1].Follower {
		t.Fatalf("published topology still names dead leader: %+v", got.Shards[1])
	}
}

func TestShardedClientNoFollowerErrorsSurface(t *testing.T) {
	tc := startTestCluster(t, 2, false)
	opts := DialOptions{OpTimeout: 100 * time.Millisecond, Attempts: 2, BackoffBase: time.Millisecond, BackoffMax: 2 * time.Millisecond, DialTimeout: 200 * time.Millisecond}
	sc, err := DialSharded(tc.topo, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	if err := tc.leaders[0].Close(); err != nil {
		t.Fatal(err)
	}
	// Find a key owned by the dead shard 0 and verify the error is a
	// TransportError (no follower to absorb it).
	for i := 0; ; i++ {
		key := fmt.Sprintf("traj/%d", i)
		if sc.slotFor(key) != sc.slots[0] {
			continue
		}
		err := sc.Put(key, []byte("x"))
		var te *TransportError
		if err == nil || !errors.As(err, &te) {
			t.Fatalf("Put to dead followerless shard: %v", err)
		}
		return
	}
}

func TestShardedClientTopologyWatchAdoptsNewerVersion(t *testing.T) {
	leaktest.Check(t)
	tc := startTestCluster(t, 2, true)
	sc, err := DialSharded(tc.topo, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	sc.StartTopologyWatch(10 * time.Millisecond)

	// Simulate another client promoting shard 0: publish a bumped
	// topology directly to the cluster and wait for the watch to adopt.
	tc.replicas[0].Promote()
	bumped := tc.topo.Clone()
	bumped.Version = 5
	bumped.Shards[0].Addr = tc.topo.Shards[0].Follower
	bumped.Shards[0].Follower = ""
	b, err := bumped.Encode()
	if err != nil {
		t.Fatal(err)
	}
	// Write to shard 1's store directly (shard 0's old leader also gets
	// it, but the point is any surviving shard can serve it).
	if err := tc.stores[1].Put(cluster.TopologyKey, b); err != nil {
		t.Fatal(err)
	}
	if err := tc.stores[0].Put(cluster.TopologyKey, b); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() error {
		if v := sc.ShardedStats().TopologyVersion; v != 5 {
			return fmt.Errorf("topology version %d, want 5", v)
		}
		return nil
	})
	// After adoption, shard 0 ops go to the promoted follower.
	sc.slots[0].mu.Lock()
	addr := sc.slots[0].addr
	sc.slots[0].mu.Unlock()
	if addr != bumped.Shards[0].Addr {
		t.Fatalf("slot 0 still at %s after adopting topology naming %s", addr, bumped.Shards[0].Addr)
	}
}

func TestShardedClientRejectsReshardingTopology(t *testing.T) {
	tc := startTestCluster(t, 2, false)
	sc, err := DialSharded(tc.topo, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	bad := tc.topo.Clone()
	bad.Version = 9
	bad.Shards = bad.Shards[:1]
	if err := sc.adopt(bad); err == nil {
		t.Fatal("adopt accepted a shard-count change")
	}
	badIDs := tc.topo.Clone()
	badIDs.Version = 9
	badIDs.Shards[1].ID = 99
	if err := sc.adopt(badIDs); err == nil {
		t.Fatal("adopt accepted a shard-id change")
	}
}

// ---- wire-identical interop ----

// recordingProxy relays bytes between a client and a server, capturing
// the client→server stream.
type recordingProxy struct {
	ln net.Listener

	mu  sync.Mutex
	buf bytes.Buffer
}

func startRecordingProxy(t *testing.T, backend string) (string, *recordingProxy) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &recordingProxy{ln: ln}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				up, err := net.Dial("tcp", backend)
				if err != nil {
					return
				}
				defer up.Close()
				done := make(chan struct{}, 2)
				go func() { _, _ = io.Copy(conn, up); done <- struct{}{} }()
				go func() {
					// Record before forwarding: once the server has a
					// request its reply can reach the client, and the
					// test read the recording, ahead of a later append.
					_, _ = io.Copy(io.MultiWriter(synced{p}, up), conn)
					done <- struct{}{}
				}()
				<-done
			}()
		}
	}()
	t.Cleanup(func() { ln.Close() })
	return ln.Addr().String(), p
}

type synced struct{ p *recordingProxy }

func (s synced) Write(b []byte) (int, error) {
	s.p.mu.Lock()
	defer s.p.mu.Unlock()
	return s.p.buf.Write(b)
}

func (p *recordingProxy) bytes() []byte {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]byte(nil), p.buf.Bytes()...)
}

// TestInteropShardedSingleShardWireIdentical: a ShardedClient over a
// degenerate 1-shard topology must emit byte-for-byte the same request
// stream as today's single Client for the same op sequence — the
// contract that makes the cluster layer a pure superset (and keeps
// lockstep runs on a 1-shard topology bit-identical to the
// single-process baseline).
func TestInteropShardedSingleShardWireIdentical(t *testing.T) {
	script := func(c Conn) error {
		if err := c.Put("traj/1", []byte("one")); err != nil {
			return err
		}
		if _, err := c.Get("traj/1"); err != nil {
			return err
		}
		if err := c.PutN([]KV{{Key: "grad/a", Val: []byte("ga")}, {Key: "grad/b", Val: []byte("gb")}}); err != nil {
			return err
		}
		if _, err := c.GetN([]string{"grad/a", "grad/b", "nope"}); err != nil {
			return err
		}
		if _, err := c.Keys("traj/"); err != nil {
			return err
		}
		if _, err := c.Len(); err != nil {
			return err
		}
		if err := c.Delete("traj/1"); err != nil {
			return err
		}
		// The reserved topology key rides the same wire ops on one shard.
		if err := c.Put(cluster.TopologyKey, []byte(`{"version":1,"shards":[{"id":0,"addr":"x"}]}`)); err != nil {
			return err
		}
		_, err := c.Get(cluster.TopologyKey)
		return err
	}

	capture := func(dial func(addr string) (Conn, error)) []byte {
		srv := NewServer(nil)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		paddr, proxy := startRecordingProxy(t, addr)
		c, err := dial(paddr)
		if err != nil {
			t.Fatal(err)
		}
		if err := script(c); err != nil {
			t.Fatal(err)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		return proxy.bytes()
	}

	single := capture(func(addr string) (Conn, error) { return Dial(addr) })
	sharded := capture(func(addr string) (Conn, error) {
		return DialSharded(&cluster.Topology{Version: 1, Shards: []cluster.Shard{{ID: 0, Addr: addr}}}, DialOptions{})
	})
	if !bytes.Equal(single, sharded) {
		t.Fatalf("wire streams differ: single %d bytes, sharded %d bytes", len(single), len(sharded))
	}
	// One protocol generation: a fresh connection opens with the script's
	// first op, and no frame anywhere is a feature hello ('V').
	var ops []byte
	for r := bytes.NewReader(single); r.Len() > 0; {
		fr, err := readFrame(r)
		if err != nil {
			t.Fatalf("captured stream does not parse as frames after ops %q: %v", ops, err)
		}
		ops = append(ops, fr.op)
	}
	if want := "PGpgKLDPG"; string(ops) != want {
		t.Fatalf("ops on the wire %q, want %q", ops, want)
	}
}
