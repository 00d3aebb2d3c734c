package cache

import (
	"bytes"
	"testing"
	"time"

	"stellaris/internal/leaktest"
)

// chaosProxiedStore stands up a MemCache server behind a FaultProxy.
func chaosProxiedStore(t *testing.T, cfg FaultConfig) (*MemCache, *FaultProxy, string) {
	t.Helper()
	store := NewMemCache()
	srv := NewServer(store)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	proxy := NewFaultProxy(addr, cfg)
	paddr, err := proxy.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = proxy.Close()
		_ = srv.Close()
	})
	return store, proxy, paddr
}

// TestFaultProxyDelayNoHeadOfLineBlocking is the satellite regression
// for the pump's old inline sleep: with every chunk delayed, a 128 KiB
// put crosses ~128 proxy chunks, and summing per-chunk delays would
// take seconds. The delivery queue bounds aggregate added latency by
// the largest single hold, so the round trip stays within a few
// MaxDelays.
func TestFaultProxyDelayNoHeadOfLineBlocking(t *testing.T) {
	leaktest.Check(t)
	const maxDelay = 30 * time.Millisecond
	_, proxy, paddr := chaosProxiedStore(t, FaultConfig{
		DelayRate: 1.0, MaxDelay: maxDelay, Seed: 7,
	})
	cl, err := DialWith(paddr, DialOptions{OpTimeout: 5 * time.Second, Attempts: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	payload := bytes.Repeat([]byte("x"), 128<<10)
	start := time.Now()
	if err := cl.Put("traj/big", payload); err != nil {
		t.Fatal(err)
	}
	rtt := time.Since(start)
	// The old pump summed ~128 × U(0, 30ms] ≈ 1.9s here. Allow generous
	// slack over the intended bound (one MaxDelay per direction plus
	// transit) for race-detector and CI jitter.
	if rtt > 600*time.Millisecond {
		t.Fatalf("head-of-line blocking: 128KiB put took %v with per-chunk MaxDelay %v", rtt, maxDelay)
	}
	if st := proxy.Stats(); st.Delays < 50 {
		t.Fatalf("expected many per-chunk delays, got %d", st.Delays)
	}
}

// TestFaultProxyAsymmetricPartition proves the two partition shapes
// differ observably: a response-direction partition loses only the ack
// (the write LANDS — the split-brain precursor fencing exists for),
// while a request-direction partition loses the write itself.
func TestFaultProxyAsymmetricPartition(t *testing.T) {
	leaktest.Check(t)
	store, proxy, paddr := chaosProxiedStore(t, FaultConfig{Seed: 3})
	dopts := DialOptions{OpTimeout: 250 * time.Millisecond, Attempts: 1}
	cl, err := DialWith(paddr, dopts)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Put("traj/pre", []byte("v")); err != nil {
		t.Fatal(err)
	}

	// Response direction blackholed: the write reaches the server, the
	// ack never comes back.
	proxy.PartitionNow(ServerToClient, 0)
	if err := cl.Put("traj/acklost", []byte("v")); err == nil {
		t.Fatal("put under a response partition should time out")
	}
	waitFor(t, time.Second, func() error {
		_, err := store.Get("traj/acklost")
		return err
	})

	// Request direction blackholed: the write never arrives at all.
	proxy.Heal()
	proxy.PartitionNow(ClientToServer, 0)
	if err := cl.Put("traj/lost", []byte("v")); err == nil {
		t.Fatal("put under a request partition should time out")
	}
	if _, err := store.Get("traj/lost"); err == nil {
		t.Fatal("request-partitioned write reached the server")
	}
	st := proxy.Stats()
	if st.Partitions != 2 || st.PartitionDrops == 0 {
		t.Fatalf("partition stats = %+v, want 2 partitions with drops", st)
	}

	// Healed: traffic flows again on a fresh connection.
	proxy.Heal()
	waitFor(t, 2*time.Second, func() error {
		return cl.Put("traj/healed", []byte("v"))
	})
}

// TestFaultProxyScheduledPartition exercises the op-count trigger: the
// partition arms exactly after the configured number of completed
// request frames, deterministically for a sequential client.
func TestFaultProxyScheduledPartition(t *testing.T) {
	leaktest.Check(t)
	store, proxy, paddr := chaosProxiedStore(t, FaultConfig{
		Seed:       11,
		Partitions: []Partition{{AfterOps: 3, Drop: ClientToServer, For: 0}},
	})
	cl, err := DialWith(paddr, DialOptions{OpTimeout: 250 * time.Millisecond, Attempts: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i, key := range []string{"traj/a", "traj/b"} {
		if err := cl.Put(key, []byte("v")); err != nil {
			t.Fatalf("op %d before the partition threshold failed: %v", i, err)
		}
	}
	// Request 3 completes the threshold frame and is therefore the first
	// chunk inside the window: blackholed.
	if err := cl.Put("traj/c", []byte("v")); err == nil {
		t.Fatal("op at the partition threshold should time out")
	}
	if _, err := store.Get("traj/c"); err == nil {
		t.Fatal("partitioned write reached the server")
	}
	if st := proxy.Stats(); st.Partitions != 1 {
		t.Fatalf("Partitions = %d, want 1", st.Partitions)
	}
}
