package cache

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"stellaris/internal/leaktest"
)

// waitFor polls cond until it returns nil or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() error) {
	t.Helper()
	deadline := time.Now().Add(d)
	var err error
	for time.Now().Before(deadline) {
		if err = cond(); err == nil {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("condition not reached in %v: %v", d, err)
}

func fastReplicaOpts() ReplicaOptions {
	return ReplicaOptions{
		ReadTimeout: 500 * time.Millisecond,
		BackoffBase: 10 * time.Millisecond,
		BackoffMax:  100 * time.Millisecond,
	}
}

func startLeader(t *testing.T, store *MemCache) (*Server, string) {
	t.Helper()
	srv := NewServer(store)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return srv, addr
}

func TestReplicaFullSyncAndLiveFeed(t *testing.T) {
	leaktest.Check(t)
	leader := NewMemCache()
	// Pre-existing state exercises the snapshot path.
	if err := leader.Put("traj/pre", []byte("old")); err != nil {
		t.Fatal(err)
	}
	srv, addr := startLeader(t, leader)
	defer srv.Close()

	follower := NewMemCache()
	// Stale follower state must be wiped by the sync reset.
	if err := follower.Put("stale/key", []byte("gone")); err != nil {
		t.Fatal(err)
	}
	rep := NewReplica(follower, addr, fastReplicaOpts())
	rep.Start()
	defer rep.Stop()

	waitFor(t, 5*time.Second, func() error {
		if _, err := follower.Get("traj/pre"); err != nil {
			return err
		}
		if _, err := follower.Get("stale/key"); err == nil {
			return fmt.Errorf("stale key survived full sync")
		}
		return nil
	})

	// Live feed: mutations after the snapshot arrive in order.
	if err := leader.Put("traj/live", []byte("new")); err != nil {
		t.Fatal(err)
	}
	if err := leader.PutN([]KV{{Key: "grad/a", Val: []byte("ga")}, {Key: "grad/b", Val: []byte("gb")}}); err != nil {
		t.Fatal(err)
	}
	if err := leader.Delete("traj/pre"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() error {
		if v, err := follower.Get("traj/live"); err != nil || !bytes.Equal(v, []byte("new")) {
			return fmt.Errorf("traj/live = %q, %v", v, err)
		}
		if v, err := follower.Get("grad/b"); err != nil || !bytes.Equal(v, []byte("gb")) {
			return fmt.Errorf("grad/b = %q, %v", v, err)
		}
		if _, err := follower.Get("traj/pre"); err == nil {
			return fmt.Errorf("deleted key survived")
		}
		return nil
	})

	rep.Promote()
	st := rep.Stats()
	if st.FullSyncs < 1 || st.Records == 0 {
		t.Fatalf("stats show no replication happened: %+v", st)
	}
}

func TestReplicaReconnectsAndResyncs(t *testing.T) {
	leaktest.Check(t)
	leader := NewMemCache()
	if err := leader.Put("k1", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	srv, addr := startLeader(t, leader)

	follower := NewMemCache()
	rep := NewReplica(follower, addr, fastReplicaOpts())
	rep.Start()
	defer rep.Stop()
	waitFor(t, 5*time.Second, func() error {
		_, err := follower.Get("k1")
		return err
	})

	// Hard-kill the leader's server, mutate the store while the follower
	// is blind, then resurrect the server on the same address: the
	// reconnect's full resync must deliver the missed write.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := leader.Put("k2", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	srv2 := NewServer(leader)
	waitFor(t, 5*time.Second, func() error {
		_, err := srv2.Listen(addr)
		return err
	})
	defer srv2.Close()

	waitFor(t, 10*time.Second, func() error {
		_, err := follower.Get("k2")
		return err
	})
	if st := rep.Stats(); st.Reconnects < 1 || st.FullSyncs < 2 {
		t.Fatalf("expected a reconnect with resync, got %+v", st)
	}
}

func TestReplicaAgainstLegacyLeaderKeepsRetrying(t *testing.T) {
	// A leader that refuses 'R' (here: a dead port after close) must not
	// wedge or crash the replica; Stop must return promptly.
	srv, addr := startLeader(t, NewMemCache())
	srv.Close()
	rep := NewReplica(NewMemCache(), addr, fastReplicaOpts())
	rep.Start()
	time.Sleep(50 * time.Millisecond)
	done := make(chan struct{})
	go func() { rep.Stop(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop did not return")
	}
}

func TestPromotedFollowerServesAndRefusesResync(t *testing.T) {
	leaktest.Check(t)
	leader := NewMemCache()
	if err := leader.Put("weights/latest", []byte("w1")); err != nil {
		t.Fatal(err)
	}
	srv, addr := startLeader(t, leader)
	defer srv.Close()

	follower := NewMemCache()
	rep := NewReplica(follower, addr, fastReplicaOpts())
	rep.Start()
	waitFor(t, 5*time.Second, func() error {
		_, err := follower.Get("weights/latest")
		return err
	})
	rep.Promote()

	// The promoted follower serves its replicated state over its own
	// server, and post-promotion leader writes no longer reach it.
	fsrv, faddr := startLeader(t, follower)
	defer fsrv.Close()
	cli, err := Dial(faddr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if v, err := cli.Get("weights/latest"); err != nil || !bytes.Equal(v, []byte("w1")) {
		t.Fatalf("promoted follower Get = %q, %v", v, err)
	}
	if err := leader.Put("weights/latest", []byte("w2-after-split")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if v, _ := cli.Get("weights/latest"); bytes.Equal(v, []byte("w2-after-split")) {
		t.Fatal("promoted follower still applying leader writes")
	}
}

func TestReplicaTapOverflowForcesResync(t *testing.T) {
	// Overflow the tap by mutating with no follower draining: attach a
	// tap directly, fill past the buffer, and verify the tap is killed
	// rather than the writer blocked.
	store := NewMemCache()
	_, tp := store.attachTap()
	for i := 0; i < replTapBuffer+10; i++ {
		if err := store.Put(fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	// Drain: the channel must be closed after the overflow point.
	n := 0
	for range tp.ch {
		n++
	}
	if n != replTapBuffer {
		t.Fatalf("drained %d records from overflowed tap, want %d buffered", n, replTapBuffer)
	}
	store.detachTap(tp) // must be safe after overflow
}

func TestPersistentFollowerJournalsReplicatedState(t *testing.T) {
	leader := NewMemCache()
	if err := leader.Put("traj/a", []byte("va")); err != nil {
		t.Fatal(err)
	}
	srv, addr := startLeader(t, leader)
	defer srv.Close()

	dir := filepath.Join(t.TempDir(), "follower")
	follower, err := NewPersistentMemCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	rep := NewReplica(follower, addr, fastReplicaOpts())
	rep.Start()
	waitFor(t, 5*time.Second, func() error {
		_, err := follower.Get("traj/a")
		return err
	})
	rep.Stop()
	if err := follower.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen from disk: the replicated state must survive via the
	// follower's own journal.
	re, err := NewPersistentMemCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if v, err := re.Get("traj/a"); err != nil || !bytes.Equal(v, []byte("va")) {
		t.Fatalf("reopened follower Get = %q, %v", v, err)
	}
}

// The stream carries reset, put and delete; the retired counter records
// 'I' and 'C' are refused like any other byte, which ends the stream
// and leaves the store as it was.
func TestReplicaRefusesUnknownRecordOps(t *testing.T) {
	store := NewMemCache()
	rep := NewReplica(store, "127.0.0.1:0", fastReplicaOpts())
	for _, op := range []byte{'I', 'C', 'Z'} {
		if err := rep.ApplyRecord(op, "k", make([]byte, 8)); err == nil {
			t.Errorf("record op %q applied", op)
		}
	}
	if n, _ := store.Len(); n != 0 {
		t.Fatalf("refused records left %d keys behind", n)
	}
}
