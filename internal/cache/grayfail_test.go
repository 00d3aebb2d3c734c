package cache

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"stellaris/internal/cache/cluster"
	"stellaris/internal/leaktest"
)

// brownoutShard is one leader (reachable only through a FaultProxy)
// with a live follower replica — the alive-but-slow topology the
// gray-failure detector exists for.
type brownoutShard struct {
	leaderStore, followerStore *MemCache
	proxy                      *FaultProxy
	proxyAddr, followerAddr    string
}

func startBrownoutShard(t *testing.T) *brownoutShard {
	t.Helper()
	s := &brownoutShard{leaderStore: NewMemCache(), followerStore: NewMemCache()}
	leader := NewServer(s.leaderStore)
	laddr, err := leader.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s.proxy = NewFaultProxy(laddr, FaultConfig{Seed: 9})
	s.proxyAddr, err = s.proxy.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	follower := NewServer(s.followerStore)
	s.followerAddr, err = follower.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rep := NewReplica(s.followerStore, laddr, fastReplicaOpts())
	rep.Start()
	t.Cleanup(func() {
		rep.Stop()
		_ = follower.Close()
		_ = s.proxy.Close()
		_ = leader.Close()
	})
	return s
}

func (s *brownoutShard) topology() *cluster.Topology {
	return &cluster.Topology{Version: 1, Shards: []cluster.Shard{
		{ID: 0, Addr: s.proxyAddr, Follower: s.followerAddr},
	}}
}

// TestBreakerOpensAndFastFails drives a followerless shard through the
// full breaker cycle: consecutive transport failures open it, open
// means an immediate local refusal (no connection attempt, no timeout
// burn), and the half-open probe against a resurrected server recloses
// it.
func TestBreakerOpensAndFastFails(t *testing.T) {
	leaktest.Check(t)
	store := NewMemCache()
	srv := NewServer(store)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	topo := &cluster.Topology{Version: 1, Shards: []cluster.Shard{{ID: 0, Addr: addr}}}
	sc, err := DialSharded(topo, DialOptions{
		OpTimeout: 300 * time.Millisecond, Attempts: 1,
		BreakerThreshold: 2, BreakerCooldown: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	if err := sc.Put("traj/up", []byte("v")); err != nil {
		t.Fatal(err)
	}

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		err := sc.Put("traj/down", []byte("v"))
		if !errors.As(err, new(*TransportError)) {
			t.Fatalf("failure %d: want TransportError, got %v", i, err)
		}
	}
	start := time.Now()
	err = sc.Put("traj/down", []byte("v"))
	if !errors.As(err, new(*ErrBreakerOpen)) {
		t.Fatalf("want ErrBreakerOpen after %d failures, got %v", 2, err)
	}
	if fast := time.Since(start); fast > 100*time.Millisecond {
		t.Fatalf("open breaker took %v to refuse; must fail locally", fast)
	}

	srv2 := NewServer(store)
	waitFor(t, 5*time.Second, func() error {
		_, err := srv2.Listen(addr)
		return err
	})
	defer srv2.Close()
	// After the cooldown the single half-open probe lands, recloses the
	// breaker, and normal traffic resumes.
	waitFor(t, 5*time.Second, func() error {
		return sc.Put("traj/back", []byte("v"))
	})
	if st := sc.ShardedStats(); st.BreakerOpens < 1 {
		t.Fatalf("BreakerOpens = %d, want >= 1", st.BreakerOpens)
	}
}

// TestHedgedReadServesFromFollower brownouts the leader just enough to
// cross the SUSPECT line (half of DegradeLatency) without crossing the
// evacuation line: reads must start racing the follower and winning,
// while the shard is NOT failed over.
func TestHedgedReadServesFromFollower(t *testing.T) {
	leaktest.Check(t)
	s := startBrownoutShard(t)
	sc, err := DialSharded(s.topology(), DialOptions{
		OpTimeout: 2 * time.Second, Attempts: 1,
		DegradeLatency: 220 * time.Millisecond, DegradeWindow: 4,
		HedgeReads: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	if err := sc.Put("traj/h", []byte("hot")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() error {
		_, err := s.followerStore.Get("traj/h")
		return err
	})

	// Floor both directions at 60ms: round trips settle near 120ms —
	// past the 110ms suspect line, well short of the 220ms evacuation
	// line.
	s.proxy.BrownoutNow(60*time.Millisecond, 0)
	waitFor(t, 10*time.Second, func() error {
		v, err := sc.Get("traj/h")
		if err != nil {
			return err
		}
		if !bytes.Equal(v, []byte("hot")) {
			return fmt.Errorf("got %q", v)
		}
		if sc.ShardedStats().HedgedReads < 1 {
			return fmt.Errorf("no hedged reads yet")
		}
		return nil
	})
	st := sc.ShardedStats()
	if st.GrayFailovers != 0 || st.Failovers != 0 {
		t.Fatalf("suspect-level brownout must hedge, not evacuate: %+v", st)
	}
}

// TestGrayFailoverEvacuatesBrownedOutShard brownouts the leader past
// DegradeLatency: the shard is alive and error-free, yet the client
// must evacuate it onto the follower through the same epoch-guarded
// promotion a dead leader gets — and then be fast again.
func TestGrayFailoverEvacuatesBrownedOutShard(t *testing.T) {
	leaktest.Check(t)
	s := startBrownoutShard(t)
	sc, err := DialSharded(s.topology(), DialOptions{
		OpTimeout: 3 * time.Second, Attempts: 1,
		DegradeLatency: 100 * time.Millisecond, DegradeWindow: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	if err := sc.Put("traj/g", []byte("v")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() error {
		_, err := s.followerStore.Get("traj/g")
		return err
	})

	s.proxy.BrownoutNow(150*time.Millisecond, 0)
	waitFor(t, 15*time.Second, func() error {
		if _, err := sc.Get("traj/g"); err != nil {
			return err
		}
		if sc.ShardedStats().GrayFailovers < 1 {
			return fmt.Errorf("no gray failover yet")
		}
		return nil
	})
	// Evacuated onto the direct follower: ops are fast again even though
	// the brownout still holds the old leader.
	start := time.Now()
	v, err := sc.Get("traj/g")
	if err != nil || !bytes.Equal(v, []byte("v")) {
		t.Fatalf("post-evacuation read: %v %q", err, v)
	}
	if rtt := time.Since(start); rtt >= 150*time.Millisecond {
		t.Fatalf("post-evacuation read took %v; still routed through the brownout?", rtt)
	}
}

// TestRetryBudgetCapsRetryStorm is the satellite regression: many
// workers hammering one dead shard must not multiply into an unbounded
// reconnect storm. A shared token bucket caps the GLOBAL retry rate —
// first attempts always pass (the budget only meters retries), so a
// healthy recovery is never starved.
func TestRetryBudgetCapsRetryStorm(t *testing.T) {
	leaktest.Check(t)
	const (
		workers  = 8
		opsPer   = 20
		unbudget = workers * opsPer * 4 // Attempts 5 => 4 retries each
		generous = 100                  // burst 5 + refill slack
	)
	store := NewMemCache()
	srv := NewServer(store)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	budget := NewRetryBudget(20, 5)
	clients := make([]*Client, workers)
	for i := range clients {
		clients[i], err = DialWith(addr, DialOptions{
			OpTimeout: 500 * time.Millisecond, Attempts: 5,
			BackoffBase: time.Millisecond, BackoffMax: 5 * time.Millisecond,
			RetryBudget: budget,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer clients[i].Close()
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for _, cl := range clients {
		wg.Add(1)
		go func(cl *Client) {
			defer wg.Done()
			for i := 0; i < opsPer; i++ {
				if err := cl.Put("traj/storm", []byte("v")); err == nil {
					t.Error("put against a dead shard succeeded")
					return
				}
			}
		}(cl)
	}
	wg.Wait()

	var retries int64
	for _, cl := range clients {
		retries += cl.Stats().Retries
	}
	if retries > generous {
		t.Fatalf("retry storm: %d retries across %d workers (unbudgeted would be ~%d)",
			retries, workers, unbudget)
	}
	if budget.Exhausted() == 0 {
		t.Fatal("budget never reported exhaustion during the storm")
	}
}

// TestRetryBudgetDefaultBurst: a burst below 1 defaults to one second
// of refill, max(1, ceil(rate)) tokens; an explicit burst is kept.
func TestRetryBudgetDefaultBurst(t *testing.T) {
	for _, c := range []struct {
		rate        float64
		burst, want int
	}{
		{rate: 50, want: 50},
		{rate: 2.5, want: 3},
		{rate: 0.2, want: 1},
		{rate: 0, want: 1},
		{rate: 50, burst: -1, want: 50},
		{rate: 50, burst: 7, want: 7},
	} {
		b := NewRetryBudget(c.rate, c.burst)
		allowed := 0
		for b.Allow() {
			allowed++
		}
		if allowed != c.want {
			t.Errorf("NewRetryBudget(%v, %d) let %d retries through a full bucket, want %d",
				c.rate, c.burst, allowed, c.want)
		}
	}
}
