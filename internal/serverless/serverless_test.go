package serverless

import (
	"math"
	"testing"

	"stellaris/internal/rng"
	"stellaris/internal/simclock"
)

func noJitter() *LatencyModel {
	l := DefaultLatencyModel()
	l.JitterSigma = 0
	l.ColdStartSigma = 0
	l.ColdStartMean = math.Log(1.5) // exact 1.5s cold start
	return l
}

func newTestPlatform(slots int, svls bool) (*simclock.Clock, *Platform) {
	clock := simclock.New()
	p := NewPlatform(clock, noJitter(), 1, PoolConfig{
		Kind:             "learner",
		Instance:         P32xlarge,
		Instances:        1,
		SlotsPerInstance: slots,
		Serverless:       svls,
	})
	return clock, p
}

func TestSlotRate(t *testing.T) {
	want := 3.06 / 3600 / 4
	if got := P32xlarge.SlotRate(4); math.Abs(got-want) > 1e-15 {
		t.Fatalf("SlotRate = %v, want %v", got, want)
	}
	if math.Abs(P32xlarge.SlotRate(0)-3.06/3600) > 1e-15 {
		t.Fatal("zero slots should mean one slot")
	}
}

func TestInstancePresets(t *testing.T) {
	if P32xlarge.HourlyUSD != 3.06 || C6a32xlarge.HourlyUSD != 4.896 ||
		P316xlarge.HourlyUSD != 24.48 || Hpc7a96xlarge.HourlyUSD != 7.2 {
		t.Fatal("instance prices differ from the paper's footnote 2")
	}
	if P316xlarge.GPUs != 8 || C6a32xlarge.CPUCores != 128 || Hpc7a96xlarge.CPUCores != 192 {
		t.Fatal("instance shapes wrong")
	}
}

func TestInvokeColdThenWarm(t *testing.T) {
	clock, p := newTestPlatform(2, true)
	var invs []Invocation
	p.InvokeFixed("learner", 1.0, func(inv Invocation) { invs = append(invs, inv) })
	clock.Run()
	if len(invs) != 1 || !invs[0].Cold {
		t.Fatalf("first invocation should be cold: %+v", invs)
	}
	if math.Abs(invs[0].StartupDelay-1.5) > 1e-9 {
		t.Fatalf("cold start %v, want 1.5", invs[0].StartupDelay)
	}
	// Second invocation reuses the now-warm container.
	p.InvokeFixed("learner", 1.0, func(inv Invocation) { invs = append(invs, inv) })
	clock.Run()
	if len(invs) != 2 || invs[1].Cold {
		t.Fatal("second invocation should be warm")
	}
	if invs[1].StartupDelay >= 1.0 {
		t.Fatalf("warm start %v too slow", invs[1].StartupDelay)
	}
}

func TestPrewarmAvoidsColdStart(t *testing.T) {
	clock, p := newTestPlatform(2, true)
	p.Prewarm("learner", 1)
	var inv Invocation
	p.InvokeFixed("learner", 1.0, func(i Invocation) { inv = i })
	clock.Run()
	if inv.Cold {
		t.Fatal("prewarmed container still cold-started")
	}
}

func TestKeepAliveExpiry(t *testing.T) {
	clock, p := newTestPlatform(2, true)
	p.Prewarm("learner", 1)
	// Wait past the keep-alive window before invoking.
	clock.At(KeepAliveSeconds+1, func() {
		p.InvokeFixed("learner", 1.0, func(inv Invocation) {
			if !inv.Cold {
				t.Error("expired warm container reused")
			}
		})
	})
	clock.Run()
}

func TestCapacityQueuing(t *testing.T) {
	clock, p := newTestPlatform(1, true)
	var done []float64
	for i := 0; i < 3; i++ {
		p.InvokeFixed("learner", 10, func(Invocation) { done = append(done, clock.Now()) })
	}
	clock.Run()
	if len(done) != 3 {
		t.Fatalf("%d completions", len(done))
	}
	// With one slot, completions must be strictly serialized.
	if !(done[0] < done[1] && done[1] < done[2]) {
		t.Fatalf("completions not serialized: %v", done)
	}
	if done[1]-done[0] < 10 || done[2]-done[1] < 10 {
		t.Fatalf("queued work overlapped: %v", done)
	}
	s := p.PoolStats("learner")
	if s.Invocations != 3 {
		t.Fatalf("invocations %d", s.Invocations)
	}
	if s.MeanQueue <= 0 {
		t.Fatal("queue wait not recorded")
	}
}

func TestServerlessCostPerResourceSecond(t *testing.T) {
	clock, p := newTestPlatform(4, true)
	p.Prewarm("learner", 1)
	p.InvokeFixed("learner", 10, func(Invocation) {})
	clock.Run()
	want := 10 * P32xlarge.SlotRate(4)
	if got := p.Cost("learner"); math.Abs(got-want) > 1e-12 {
		t.Fatalf("cost %v, want %v", got, want)
	}
}

func TestServerfulCostByElapsedTime(t *testing.T) {
	clock, p := newTestPlatform(4, false)
	p.InvokeFixed("learner", 10, func(Invocation) {})
	clock.Run()
	elapsed := clock.Now()
	want := P32xlarge.HourlyUSD / 3600 * elapsed
	if got := p.Cost("learner"); math.Abs(got-want) > 1e-12 {
		t.Fatalf("serverful cost %v, want %v", got, want)
	}
}

func TestUtilization(t *testing.T) {
	clock, p := newTestPlatform(2, true)
	p.Prewarm("learner", 2)
	// Both slots busy for ~the entire run → utilization near 1... one
	// slot busy of two → ~0.5.
	p.InvokeFixed("learner", 100, func(Invocation) {})
	clock.Run()
	u := p.Utilization("learner")
	if u < 0.4 || u > 0.6 {
		t.Fatalf("utilization %v, want ~0.5", u)
	}
}

func TestUnknownPoolPanics(t *testing.T) {
	_, p := newTestPlatform(1, true)
	defer func() {
		if recover() == nil {
			t.Fatal("unknown pool accepted")
		}
	}()
	p.InvokeFixed("nope", 1, func(Invocation) {})
}

func TestKinds(t *testing.T) {
	clock := simclock.New()
	p := NewPlatform(clock, noJitter(), 1,
		PoolConfig{Kind: "b", Instance: P32xlarge, Instances: 1, SlotsPerInstance: 1},
		PoolConfig{Kind: "a", Instance: P32xlarge, Instances: 1, SlotsPerInstance: 1},
	)
	ks := p.Kinds()
	if len(ks) != 2 || ks[0] != "a" || ks[1] != "b" {
		t.Fatalf("Kinds = %v", ks)
	}
	if p.TotalCost() != 0 {
		t.Fatal("fresh platform has nonzero cost")
	}
}

func TestLatencyModelScaling(t *testing.T) {
	l := noJitter()
	r := rng.New(1)
	small := l.GradientTime(1000, 100, r)
	big := l.GradientTime(1000, 10000, r)
	if big <= small {
		t.Fatal("gradient time not increasing in samples")
	}
	a1 := l.ActorTime(100, 1000, r)
	a2 := l.ActorTime(1000, 1000, r)
	if a2 <= a1 {
		t.Fatal("actor time not increasing in steps")
	}
	tr1 := l.TransferTime(1000, r)
	tr2 := l.TransferTime(100_000_000, r)
	if tr2 <= tr1 {
		t.Fatal("transfer time not increasing in bytes")
	}
	if l.AggregateTime(4, 100000, r) <= 0 {
		t.Fatal("aggregate time not positive")
	}
}

func TestJitterDistribution(t *testing.T) {
	l := DefaultLatencyModel()
	r := rng.New(2)
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		sum += l.jitter(1.0, r)
	}
	mean := sum / n
	// Lognormal with mu=-σ²/2 has mean 1.
	if math.Abs(mean-1) > 0.02 {
		t.Fatalf("jitter mean %v, want ~1", mean)
	}
}

func TestEmptyPoolPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero-slot pool accepted")
		}
	}()
	NewPlatform(simclock.New(), noJitter(), 1,
		PoolConfig{Kind: "x", Instance: P32xlarge, Instances: 0, SlotsPerInstance: 4})
}

func TestVMPlacementLeastLoaded(t *testing.T) {
	clock := simclock.New()
	p := NewPlatform(clock, noJitter(), 1, PoolConfig{
		Kind: "learner", Instance: P32xlarge, Instances: 3,
		SlotsPerInstance: 2, Serverless: true,
	})
	var vms []int
	for i := 0; i < 6; i++ {
		p.InvokeFixed("learner", 100, func(inv Invocation) { vms = append(vms, inv.VM) })
	}
	clock.Run()
	counts := map[int]int{}
	for _, vm := range vms {
		counts[vm]++
	}
	// Six concurrent invocations over 3 VMs x 2 slots: 2 each.
	for vm := 0; vm < 3; vm++ {
		if counts[vm] != 2 {
			t.Fatalf("vm %d got %d invocations: %v", vm, counts[vm], vms)
		}
	}
}

func TestDurationFnSeesPlacement(t *testing.T) {
	clock := simclock.New()
	p := NewPlatform(clock, noJitter(), 1, PoolConfig{
		Kind: "learner", Instance: P32xlarge, Instances: 2,
		SlotsPerInstance: 1, Serverless: true,
	})
	var sawVM []int
	for i := 0; i < 2; i++ {
		p.Invoke("learner", func(inv Invocation) float64 {
			sawVM = append(sawVM, inv.VM)
			return 1
		}, func(Invocation) {})
	}
	clock.Run()
	if len(sawVM) != 2 || sawVM[0] == sawVM[1] {
		t.Fatalf("duration fn placements %v", sawVM)
	}
}

func TestWarmCountAndQueueDepth(t *testing.T) {
	clock, p := newTestPlatform(1, true)
	p.Prewarm("learner", 3)
	if p.WarmCount("learner") != 3 {
		t.Fatalf("warm count %d", p.WarmCount("learner"))
	}
	p.InvokeFixed("learner", 5, func(Invocation) {})
	p.InvokeFixed("learner", 5, func(Invocation) {})
	if p.QueueDepth("learner") != 1 {
		t.Fatalf("queue depth %d", p.QueueDepth("learner"))
	}
	clock.Run()
}

func TestTierTimeOrdering(t *testing.T) {
	l := noJitter()
	r := rng.New(3)
	const bytes = 1 << 20
	shm := l.TierTime(TierShm, bytes, r)
	rpc := l.TierTime(TierRPC, bytes, r)
	cache := l.TierTime(TierCache, bytes, r)
	if !(shm < rpc && rpc < cache) {
		t.Fatalf("tier ordering violated: shm=%v rpc=%v cache=%v", shm, rpc, cache)
	}
	if TierShm.String() != "shm" || TierRPC.String() != "rpc" || TierCache.String() != "cache" {
		t.Fatal("tier names wrong")
	}
}
