package cache

// Regression tests for the three data-plane bugs the cluster failover
// work exposed (ISSUE 7 satellites). Each test fails against the
// pre-fix code.

import (
	"testing"

	"stellaris/internal/obs/lineage"
)

// TestPublisherVersionGapStillBacksHead: a publish that emits no delta
// (version gap after a failed publish/restart, or a vector resize)
// must still put a snapshot behind the head it advances — otherwise
// subscribers thrash on full fetches of a snapshot stuck at an older
// version.
func TestPublisherVersionGapStillBacksHead(t *testing.T) {
	mem := NewMemCache()
	pub := &WeightsPublisher{C: mem}
	if err := pub.Publish(1, []float64{1, 1}, lineage.Meta{}); err != nil {
		t.Fatal(err)
	}
	// Version gap: 2 was never published (lost to a crash between
	// publisher restarts), so 3 has no delta base.
	if err := pub.Publish(3, []float64{3, 3}, lineage.Meta{}); err != nil {
		t.Fatal(err)
	}

	sub := &WeightsSub{C: mem}
	got, ver, err := sub.Fetch()
	if err != nil {
		t.Fatal(err)
	}
	if ver != 3 || got[0] != 3 {
		t.Fatalf("subscriber stuck at v%d %v; head names v3 with no backing data", ver, got)
	}
	// And the subscriber must settle: the next fetch is a cheap skip,
	// not another full fetch chasing an unreachable head.
	if _, _, err := sub.Fetch(); err != nil {
		t.Fatal(err)
	}
	if st := sub.Stats(); st.Skipped != 1 {
		t.Fatalf("subscriber did not settle after gap publish: %+v", st)
	}

	// Same hole via a vector resize (hasPrev true, lengths differ).
	if err := pub.Publish(5, []float64{5, 5, 5}, lineage.Meta{}); err != nil {
		t.Fatal(err)
	}
	sub2 := &WeightsSub{C: mem}
	if got, ver, err := sub2.Fetch(); err != nil || ver != 5 || len(got) != 3 {
		t.Fatalf("resize publish not fetchable: v%d %v err=%v", ver, got, err)
	}
}

// TestSubscriberDetectsHeadRegression: after failover onto a follower
// (or a restart from older persisted state) the head pointer can move
// BACKWARDS. The subscriber used to fall silently into fetchFull,
// overwriting a newer cached vector with an older one while downstream
// PolicyVersion/staleness accounting assumed versions only grow. It
// must detect the regression, Reset, and count it.
func TestSubscriberDetectsHeadRegression(t *testing.T) {
	leaderStore := NewMemCache()
	pub := &WeightsPublisher{C: leaderStore}
	w := []float64{0, 0}
	for v := 0; v <= 5; v++ {
		w[0] = float64(v)
		if err := pub.Publish(v, w, lineage.Meta{}); err != nil {
			t.Fatal(err)
		}
	}
	// The "follower": replicated state that stopped at v2.
	followerStore := NewMemCache()
	fpub := &WeightsPublisher{C: followerStore}
	for v := 0; v <= 2; v++ {
		w[0] = float64(v)
		if err := fpub.Publish(v, w, lineage.Meta{}); err != nil {
			t.Fatal(err)
		}
	}

	sub := &WeightsSub{C: leaderStore}
	if _, ver, err := sub.Fetch(); err != nil || ver != 5 {
		t.Fatalf("warm-up fetch: v%d err=%v", ver, err)
	}

	// Failover: the client now reads the follower's keyspace.
	sub.C = followerStore
	got, ver, err := sub.Fetch()
	if err != nil {
		t.Fatal(err)
	}
	if ver != 2 || got[0] != 2 {
		t.Fatalf("post-failover fetch: v%d %v; want the regressed head v2", ver, got)
	}
	st := sub.Stats()
	if st.Regressions != 1 {
		t.Fatalf("head regression not counted: %+v", st)
	}
	// Stable afterwards: same head is a skip, not another regression.
	if _, ver, err := sub.Fetch(); err != nil || ver != 2 {
		t.Fatalf("post-regression refetch: v%d err=%v", ver, err)
	}
	if st := sub.Stats(); st.Regressions != 1 {
		t.Fatalf("regression double-counted: %+v", st)
	}
}

// TestServerBatchEmptyKeyRejected: the batched 'p'/'g' ops used to
// bypass the empty-key rejection single-op 'P'/'G' enforce, letting
// empty keys land in the store (and the AOF, and any replication
// follower). The whole batch must be rejected with '!' and nothing
// applied.
func TestServerBatchEmptyKeyRejected(t *testing.T) {
	srv := NewServer(nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	conn := rawDial(t, addr)
	blob := appendPutNBlob(nil, []KV{
		{Key: "traj/ok", Val: []byte("v")},
		{Key: "", Val: []byte("smuggled")},
	})
	if err := writeFrame(conn, 'p', "", blob); err != nil {
		t.Fatal(err)
	}
	status, payload, err := readResp(conn)
	if err != nil {
		t.Fatal(err)
	}
	if status != '!' {
		t.Fatalf("batched put with empty key → status %q payload %q; want '!'", status, payload)
	}
	// Whole-batch rejection: the valid pair must not have landed either.
	if n, _ := srv.store.Len(); n != 0 {
		keys, _ := srv.store.Keys("")
		t.Fatalf("rejected batch partially applied: %v", keys)
	}

	if err := writeFrame(conn, 'g', "", appendGetNReq(nil, []string{"x", ""})); err != nil {
		t.Fatal(err)
	}
	status, payload, err = readResp(conn)
	if err != nil {
		t.Fatal(err)
	}
	if status != '!' {
		t.Fatalf("batched get with empty key → status %q payload %q; want '!'", status, payload)
	}
	checkHealthy(t, addr)

	// Through the client the '!' is the call's error — the batch is not
	// resent in some other form — and the connection keeps batching.
	cli, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if err := cli.PutN([]KV{{Key: "traj/ok", Val: []byte("v")}, {Key: "", Val: []byte("x")}}); err == nil {
		t.Fatal("PutN with empty key succeeded")
	}
	if vals, err := cli.GetN([]string{"a", ""}); err == nil {
		t.Fatalf("GetN with empty key succeeded: %v", vals)
	}
	if _, err := srv.store.Get("traj/ok"); err == nil {
		t.Fatal("rejected batch partially applied through the client")
	}
	if err := cli.PutN([]KV{{Key: "a", Val: []byte("1")}, {Key: "b", Val: []byte("2")}}); err != nil {
		t.Fatalf("clean PutN after rejection: %v", err)
	}
}
