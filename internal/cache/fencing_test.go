package cache

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"stellaris/internal/cache/cluster"
	"stellaris/internal/leaktest"
)

// fencedPair is one leader+follower shard whose servers know their
// shard ID, so topology writes teach them their fencing term.
type fencedPair struct {
	leaderStore, followerStore *MemCache
	leader, follower           *Server
	leaderAddr, followerAddr   string
	rep                        *Replica
}

func startFencedPair(t *testing.T, shardID int) *fencedPair {
	t.Helper()
	p := &fencedPair{leaderStore: NewMemCache(), followerStore: NewMemCache()}
	p.leader = NewServer(p.leaderStore)
	p.leader.SetShardID(shardID)
	addr, err := p.leader.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p.leaderAddr = addr
	p.follower = NewServer(p.followerStore)
	p.follower.SetShardID(shardID)
	faddr, err := p.follower.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p.followerAddr = faddr
	p.rep = NewReplica(p.followerStore, p.leaderAddr, fastReplicaOpts())
	p.rep.Start()
	t.Cleanup(func() {
		p.rep.Stop()
		_ = p.follower.Close()
		_ = p.leader.Close()
	})
	return p
}

// TestSplitBrainFencedWrite is the split-brain regression drill: client
// A promotes the follower (term bump) while client B still holds the
// pre-promotion topology. B's write to the deposed-but-reachable
// leader must be refused with `fenced`, forcing B onto the refreshed
// topology — so the final key state exists ONLY in the promoted
// leader's history.
func TestSplitBrainFencedWrite(t *testing.T) {
	leaktest.Check(t)
	p := startFencedPair(t, 0)

	topoV1 := &cluster.Topology{Version: 1, Shards: []cluster.Shard{
		{ID: 0, Addr: p.leaderAddr, Follower: p.followerAddr, Term: 1},
	}}
	dopts := DialOptions{
		OpTimeout: 2 * time.Second, Attempts: 2,
		BackoffBase: 5 * time.Millisecond, BackoffMax: 20 * time.Millisecond,
	}
	a, err := DialSharded(topoV1, dopts)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := DialSharded(topoV1, dopts)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := a.PublishTopology(topoV1); err != nil {
		t.Fatal(err)
	}

	// Both clients write happily under term 1.
	if err := b.Put("traj/pre", []byte("shared")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() error {
		if _, err := p.followerStore.Get("traj/pre"); err != nil {
			return fmt.Errorf("follower not caught up: %w", err)
		}
		return nil
	})

	// A promotes the follower: term 2, leader/follower swapped. The
	// broadcast teaches BOTH servers the new term — the deposed
	// leader via its (new) follower position.
	topoV2 := &cluster.Topology{Version: 2, Shards: []cluster.Shard{
		{ID: 0, Addr: p.followerAddr, Follower: p.leaderAddr, Term: 2},
	}}
	p.rep.Promote()
	if err := a.PublishTopology(topoV2); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() error {
		if got := p.leader.Term(); got != 2 {
			return fmt.Errorf("deposed leader term %d, want 2", got)
		}
		if got := p.follower.Term(); got != 2 {
			return fmt.Errorf("promoted follower term %d, want 2", got)
		}
		return nil
	})

	// The race: A writes through the new topology, then stale B —
	// still aimed at the old leader with term 1 — writes the same
	// key. B must be fenced off the old leader and land on the
	// promoted one.
	if err := a.Put("traj/x", []byte("promoted")); err != nil {
		t.Fatal(err)
	}
	if err := b.Put("traj/x", []byte("stale-view")); err != nil {
		t.Fatalf("stale client write should succeed after refresh, got %v", err)
	}

	// The deposed leader never saw either write.
	if _, err := p.leaderStore.Get("traj/x"); err == nil {
		t.Fatal("split brain: deposed leader accepted a post-promotion write")
	}
	got, err := p.followerStore.Get("traj/x")
	if err != nil {
		t.Fatalf("promoted leader missing the key: %v", err)
	}
	if !bytes.Equal(got, []byte("stale-view")) {
		t.Fatalf("promoted leader has %q, want the refreshed client's write", got)
	}

	bs := b.ShardedStats()
	if bs.FencedWrites < 1 {
		t.Fatalf("FencedWrites = %d, want >= 1", bs.FencedWrites)
	}
	if bs.TopologyVersion != 2 {
		t.Fatalf("stale client still on topology version %d", bs.TopologyVersion)
	}
	// Batched writes from a re-staled view are fenced identically.
	raw, err := DialWith(p.followerAddr, dopts)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if err := raw.PutNFenced(1, []KV{{Key: "traj/y", Val: []byte("v")}}); err == nil {
		t.Fatal("term-1 batch accepted by a term-2 server")
	} else if fe := new(ErrFenced); !errors.As(err, &fe) || fe.Term != 2 {
		t.Fatalf("want ErrFenced{Term: 2}, got %v", err)
	}
	if err := raw.PutFenced(1, "traj/z", []byte("v")); !errors.As(err, new(*ErrFenced)) {
		t.Fatalf("want ErrFenced from stale single put, got %v", err)
	}
	// Equal term passes; zero term (fencing disarmed) also passes —
	// the plain-op path must never be fenced.
	if err := raw.PutFenced(2, "traj/ok", []byte("v")); err != nil {
		t.Fatalf("current-term write refused: %v", err)
	}
	if err := raw.Put("traj/plain", []byte("v")); err != nil {
		t.Fatalf("plain write refused: %v", err)
	}
	// Delete rides the same envelope.
	if err := raw.DeleteFenced(1, "traj/ok"); !errors.As(err, new(*ErrFenced)) {
		t.Fatalf("want ErrFenced from stale delete, got %v", err)
	}
	if err := raw.DeleteFenced(2, "traj/ok"); err != nil {
		t.Fatalf("current-term delete refused: %v", err)
	}
	// A newer stamp is adopted by the server (how a promoted follower's
	// first write arms fencing without the topology doc) and from then on
	// fences the term that was current a moment ago.
	if err := raw.PutFenced(5, "traj/ok", []byte("v")); err != nil {
		t.Fatalf("newer-term write refused: %v", err)
	}
	if err, fe := raw.PutFenced(2, "traj/ok", []byte("v")), new(ErrFenced); !errors.As(err, &fe) || fe.Term != 5 {
		t.Fatalf("want ErrFenced{Term: 5} after the ratchet, got %v", err)
	}
}

// TestFencedWriteFailsClosedOnUnknownOp: against a server that answers
// '!' unknown op to the 'T' envelope, a stamped write is an error and
// the key stays unwritten — it is never resent as a plain, unfenced op.
func TestFencedWriteFailsClosedOnUnknownOp(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	store := NewMemCache()
	go func() { // serves one connection until the client hangs up
		conn, err := ln.Accept()
		for err == nil {
			var fr frame
			if fr, err = readFrame(conn); err != nil {
				conn.Close()
			} else if fr.op == 'P' {
				_ = store.Put(fr.key, fr.value)
				err = writeResp(conn, '+', nil)
			} else {
				err = writeResp(conn, '!', []byte(fmt.Sprintf("unknown op %q", fr.op)))
			}
		}
	}()
	cl, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.PutFenced(1, "traj/k", []byte("v")); err == nil {
		t.Error("PutFenced succeeded against a server that cannot fence")
	}
	if err := cl.PutNFenced(1, []KV{{Key: "traj/a", Val: []byte("v")}, {Key: "traj/b", Val: []byte("v")}}); err == nil {
		t.Error("PutNFenced succeeded against a server that cannot fence")
	}
	if keys, _ := store.Keys(""); len(keys) != 0 {
		t.Fatalf("unfenced writes landed: %v", keys)
	}
}
