package cache

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"stellaris/internal/leaktest"
	"stellaris/internal/obs/lineage"
)

func TestBuildDeltaChoosesRepresentation(t *testing.T) {
	base := make([]float64, 100)
	next := append([]float64(nil), base...)
	next[3], next[42] = 1.5, -2.5
	d, err := BuildDelta(7, 6, base, next)
	if err != nil {
		t.Fatal(err)
	}
	if d.Indices == nil || len(d.Indices) != 2 || d.Indices[0] != 3 || d.Indices[1] != 42 ||
		d.Values[0] != 1.5 || d.Values[1] != -2.5 {
		t.Fatalf("2/100 changed should be sparse [3 42] → [1.5 -2.5], got %+v", d)
	}

	for i := range next {
		next[i] = float64(i)
	}
	d, err = BuildDelta(8, 7, base, next)
	if err != nil {
		t.Fatal(err)
	}
	if d.Indices != nil || len(d.Values) != d.Len || d.Values[99] != 99 {
		t.Fatalf("all-changed should be dense, got sparse nnz=%d", len(d.Indices))
	}
	if _, err := BuildDelta(1, 0, make([]float64, 2), make([]float64, 3)); err == nil {
		t.Fatal("mismatched BuildDelta accepted")
	}
}

// TestPublisherSubscriber runs the weight broadcast over a MemCache: a
// cold subscriber reads the vector, an unchanged head skips the fetch,
// and one read catches up however many versions were published since.
func TestPublisherSubscriber(t *testing.T) {
	mem := NewMemCache()
	pub := &WeightsPublisher{C: mem}
	w := []float64{1, 2, 3, 4}
	trace := func(v int) lineage.Meta {
		return lineage.Meta{ID: lineage.WeightsID(v), Kind: lineage.KindWeights, Origin: "param"}
	}
	if err := pub.Publish(0, w, trace(0)); err != nil {
		t.Fatal(err)
	}

	sub := &WeightsSub{C: mem}
	got, ver, err := sub.Fetch()
	if err != nil || ver != 0 {
		t.Fatalf("initial fetch: v%d err=%v", ver, err)
	}
	requireBits(t, "initial fetch", got, w)
	if st := sub.Stats(); st.FullFetches != 1 {
		t.Fatalf("cold subscriber should read the vector once: %+v", st)
	}

	// Head unchanged → served from the cached copy.
	if _, ver, err = sub.Fetch(); err != nil || ver != 0 {
		t.Fatalf("cached fetch: v%d err=%v", ver, err)
	}
	if st := sub.Stats(); st.Skipped != 1 || st.FullFetches != 1 {
		t.Fatalf("unchanged head should skip: %+v", st)
	}

	// Three versions later, one read catches up.
	for v := 1; v <= 3; v++ {
		w[v%4] += 0.5
		if err := pub.Publish(v, w, trace(v)); err != nil {
			t.Fatal(err)
		}
	}
	got, ver, err = sub.Fetch()
	if err != nil || ver != 3 {
		t.Fatalf("catch-up fetch: v%d err=%v", ver, err)
	}
	requireBits(t, "catch-up fetch", got, w)
	if st := sub.Stats(); st.FullFetches != 2 || st.Skipped != 1 || st.DeltaHits != 0 {
		t.Fatalf("three versions should cost one read: %+v", st)
	}
	raw, err := mem.Get(KeyWeightsLatest)
	if err != nil {
		t.Fatal(err)
	}
	if m, err := DecodeWeights(raw); err != nil || m.Trace != trace(3) {
		t.Fatalf("the vector's trace: %+v, %v; want %+v", m, err, trace(3))
	}

	// A second cold subscriber reads the same bits.
	sub2 := &WeightsSub{C: mem}
	got2, ver2, err := sub2.Fetch()
	if err != nil || ver2 != 3 {
		t.Fatalf("cold re-fetch: v%d err=%v", ver2, err)
	}
	requireBits(t, "second subscriber", got2, got)
}

// headPutHook is a MemCache whose head puts first call hook: a reader
// that runs between the publisher's two puts, or a head put that fails.
type headPutHook struct {
	*MemCache
	hook func() error
}

func (c *headPutHook) Put(key string, val []byte) error {
	if key == KeyWeightsHead && c.hook != nil {
		if err := c.hook(); err != nil {
			return err
		}
	}
	return c.MemCache.Put(key, val)
}

// TestPublishFailedHeadKeepsSubscribersOnTheirCopy: a publish whose head
// put fails returns the error, a subscriber keeps serving the (weights,
// version) pair it has, and the next publish moves it on.
func TestPublishFailedHeadKeepsSubscribersOnTheirCopy(t *testing.T) {
	c := &headPutHook{MemCache: NewMemCache()}
	pub, sub := &WeightsPublisher{C: c}, &WeightsSub{C: c}
	v1, v2, v3 := []float64{1, 1}, []float64{2, 2}, []float64{3, 3}
	if err := pub.Publish(1, v1, lineage.Meta{}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sub.Fetch(); err != nil {
		t.Fatal(err)
	}
	lost := errors.New("head put lost")
	c.hook = func() error { c.hook = nil; return lost }
	if err := pub.Publish(2, v2, lineage.Meta{}); !errors.Is(err, lost) {
		t.Fatalf("Publish with a failed head put = %v, want %v", err, lost)
	}
	got, ver, err := sub.Fetch()
	if err != nil || ver != 1 {
		t.Fatalf("fetch after the failed publish: v%d err=%v, want v1", ver, err)
	}
	requireBits(t, "after the failed publish", got, v1)
	if err := pub.Publish(3, v3, lineage.Meta{}); err != nil {
		t.Fatal(err)
	}
	got, ver, err = sub.Fetch()
	if err != nil || ver != 3 {
		t.Fatalf("fetch after the next publish: v%d err=%v, want v3", ver, err)
	}
	requireBits(t, "after the next publish", got, v3)
	if st := sub.Stats(); st.Regressions != 0 {
		t.Fatalf("a lost head counted as a regression: %+v", st)
	}
}

// TestSubscriberReadsBetweenThePuts: a subscriber one version behind
// that runs between the publisher's two puts reads the new vector,
// adopts the version stamped in it, keeps it (no regression) while the
// head trails it, and skips once the head catches up.
func TestSubscriberReadsBetweenThePuts(t *testing.T) {
	c := &headPutHook{MemCache: NewMemCache()}
	pub, sub := &WeightsPublisher{C: c}, &WeightsSub{C: c}
	v0, v1, v2 := []float64{0, 0}, []float64{1, 1}, []float64{2, 2}
	if err := pub.Publish(0, v0, lineage.Meta{}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sub.Fetch(); err != nil {
		t.Fatal(err)
	}
	if err := pub.Publish(1, v1, lineage.Meta{}); err != nil {
		t.Fatal(err)
	}
	c.hook = func() error {
		c.hook = nil
		for i := 0; i < 2; i++ {
			got, ver, err := sub.Fetch()
			if err != nil || ver != 2 {
				t.Fatalf("fetch %d between the puts: v%d err=%v, want the vector's v2", i, ver, err)
			}
			requireBits(t, "between the puts", got, v2)
		}
		return nil
	}
	if err := pub.Publish(2, v2, lineage.Meta{}); err != nil {
		t.Fatal(err)
	}
	if _, ver, err := sub.Fetch(); err != nil || ver != 2 {
		t.Fatalf("fetch after the head: v%d err=%v", ver, err)
	}
	if st := sub.Stats(); st.FullFetches != 2 || st.Skipped != 2 || st.Regressions != 0 {
		t.Fatalf("want 2 reads, 2 skips, 0 regressions: %+v", st)
	}
}

// TestWeightsOrderAcrossShards: on three shards, with the vector and the
// head on different ones, a subscriber polling while 50 versions are
// published never returns a version with a vector other than the one
// that version was published with, and — the head never leading its
// vector — reads the vector at most once per version it returns.
func TestWeightsOrderAcrossShards(t *testing.T) {
	leaktest.Check(t)
	tc := startTestCluster(t, 3, false)
	pubCli, err := DialSharded(tc.topo, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer pubCli.Close()
	subCli, err := DialSharded(tc.topo, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer subCli.Close()
	if pubCli.slotFor(KeyWeightsLatest) == pubCli.slotFor(KeyWeightsHead) {
		t.Fatal("the vector and the head hash to one shard: this test needs them apart")
	}
	// Version v's vector holds v in every element.
	vec := func(v int) []float64 {
		w := make([]float64, 512)
		for i := range w {
			w[i] = float64(v)
		}
		return w
	}
	const versions = 50
	pub, sub := &WeightsPublisher{C: pubCli}, &WeightsSub{C: subCli}
	if err := pub.Publish(0, vec(0), lineage.Meta{}); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	errc := make(chan error, 1)
	seen := map[int]bool{} // the poller's until it sends on errc
	go func() {
		last := 0
		for {
			select {
			case <-done:
				errc <- nil
				return
			default:
			}
			got, ver, err := sub.Fetch()
			if err == nil && ver < last {
				err = fmt.Errorf("fetched v%d after v%d", ver, last)
			}
			for i := 0; err == nil && i < len(got); i++ {
				if got[i] != float64(ver) {
					err = fmt.Errorf("v%d returned with element %d = %v", ver, i, got[i])
				}
			}
			if err != nil {
				errc <- err
				return
			}
			last = ver
			seen[ver] = true
		}
	}()
	for v := 1; v <= versions; v++ {
		if err := pub.Publish(v, vec(v), lineage.Meta{}); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if _, ver, err := sub.Fetch(); err != nil || ver != versions {
		t.Fatalf("final fetch: v%d err=%v, want v%d", ver, err, versions)
	}
	seen[versions] = true
	if st := sub.Stats(); st.Regressions != 0 || st.FullFetches > int64(len(seen)) {
		t.Fatalf("%d versions returned: %+v", len(seen), st)
	}
}

// TestWeightsOverNetwork runs publisher and subscriber through the TCP
// client: the store holds the vector and its head and no other weights
// key, an unchanged head is a skip, and the vector is read at most once
// per version seen.
func TestWeightsOverNetwork(t *testing.T) {
	leaktest.Check(t)
	srv := NewServer(nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	pubCli, err := DialWith(addr, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer pubCli.Close()
	subCli, err := DialWith(addr, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer subCli.Close()

	pub, sub := &WeightsPublisher{C: pubCli}, &WeightsSub{C: subCli}
	w := make([]float64, 256)
	seen := map[int]bool{}
	fetch := func(want int) {
		got, ver, err := sub.Fetch()
		if err != nil || ver != want {
			t.Fatalf("network fetch: v%d err=%v, want v%d", ver, err, want)
		}
		requireBits(t, "network fetch", got, w)
		seen[ver] = true
	}
	for v := 0; v <= 5; v++ {
		w[v] = float64(v) * 1.25
		if err := pub.Publish(v, w, lineage.Meta{}); err != nil {
			t.Fatal(err)
		}
		if v%2 == 1 {
			fetch(v)
			fetch(v)
		}
	}
	keys, err := srv.store.Keys("weights")
	if err != nil || len(keys) != 2 || keys[0] != KeyWeightsHead || keys[1] != KeyWeightsLatest {
		t.Fatalf("weight keys %v (err %v), want the head and the vector only", keys, err)
	}
	st := sub.Stats()
	if st.Skipped == 0 || st.FullFetches > int64(len(seen))+st.Regressions {
		t.Fatalf("%d versions seen: %+v", len(seen), st)
	}
}

// TestSubscriberFullFetchesWithoutHead checks a subscriber against a
// store holding "weights/latest" but no head pointer — what a failover
// onto state that lost the head leaves behind.
func TestSubscriberFullFetchesWithoutHead(t *testing.T) {
	mem := NewMemCache()
	b, err := EncodeWeights(&WeightsMsg{Version: 7, Weights: []float64{4, 5}})
	if err != nil {
		t.Fatal(err)
	}
	if err := mem.Put(KeyWeightsLatest, b); err != nil {
		t.Fatal(err)
	}
	sub := &WeightsSub{C: mem}
	got, ver, err := sub.Fetch()
	if err != nil || ver != 7 || len(got) != 2 {
		t.Fatalf("headless fetch: v%d %v err=%v", ver, got, err)
	}
}

// requireCached fails unless sub's stale copy is exactly want at ver.
func requireCached(t *testing.T, sub *WeightsSub, want []float64, ver int) {
	t.Helper()
	got, gotVer, ok := sub.Cached()
	if !ok || gotVer != ver {
		t.Fatalf("Cached() = v%d ok=%v, want v%d", gotVer, ok, ver)
	}
	requireBits(t, "Cached()", got, want)
}

// TestSubscriberKeepsCachedCopyOnCorruptPayload: after a good fetch, a
// moved head over a vector that is missing or fails its checks — decoded
// in place, over the subscriber's own vector — fails the Fetch and leaves
// Cached() bit for bit as it was.
func TestSubscriberKeepsCachedCopyOnCorruptPayload(t *testing.T) {
	v1 := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	v2 := []float64{-1, -2, -3, -4, -5, -6, -7, -8}
	enc := func(b []byte, err error) []byte {
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	trailing := func(b []byte) []byte { return append(append([]byte(nil), b...), 0) }
	for _, tc := range []struct {
		name   string
		vector []byte // what the store holds under KeyWeightsLatest; nil deletes it
	}{
		{"no vector", nil},
		{"no delta, corrupt snapshot", trailing(enc(EncodeWeights(&WeightsMsg{Version: 2, Weights: v2})))},
		{"no delta, snapshot of another kind", enc(EncodeGrad(&GradMsg{Grad: v2}))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bothSlabPaths(t, func(t *testing.T) {
				mem := NewMemCache()
				if err := (&WeightsPublisher{C: mem}).Publish(1, v1, lineage.Meta{}); err != nil {
					t.Fatal(err)
				}
				sub := &WeightsSub{C: mem}
				if _, _, err := sub.Fetch(); err != nil {
					t.Fatal(err)
				}
				var err error
				if tc.vector == nil {
					err = mem.Delete(KeyWeightsLatest)
				} else {
					err = mem.Put(KeyWeightsLatest, tc.vector)
				}
				if err != nil {
					t.Fatal(err)
				}
				if err := mem.Put(KeyWeightsHead, enc(EncodeWeights(&WeightsMsg{Version: 2}))); err != nil {
					t.Fatal(err)
				}
				if _, ver, err := sub.Fetch(); err == nil {
					t.Fatalf("Fetch answered v%d without a readable vector", ver)
				}
				requireCached(t, sub, v1, 1)
			})
		})
	}
}

// TestBoundSubscriberRefusesOtherLength: a subscriber bound to a model's
// weight slab decodes into that slab, and a published vector of another
// length — shorter, which would fit its array, or longer — is refused
// before a byte of it lands: the slab and Cached() stay as they were.
func TestBoundSubscriberRefusesOtherLength(t *testing.T) {
	v1 := []float64{1, 2, 3, 4, 5, 6}
	for _, n := range []int{0, 5, 7} {
		t.Run(fmt.Sprintf("%d values", n), func(t *testing.T) {
			bothSlabPaths(t, func(t *testing.T) {
				mem := NewMemCache()
				pub := &WeightsPublisher{C: mem}
				if err := pub.Publish(1, v1, lineage.Meta{}); err != nil {
					t.Fatal(err)
				}
				slab := make([]float64, len(v1))
				sub := &WeightsSub{C: mem}
				sub.Bind(slab)
				got, _, err := sub.Fetch()
				if err != nil || &got[0] != &slab[0] {
					t.Fatalf("bound fetch: err=%v, or the vector is not the bound slab", err)
				}
				requireBits(t, "the bound slab", slab, v1)
				other := make([]float64, n)
				for i := range other {
					other[i] = -9
				}
				if err := pub.Publish(2, other, lineage.Meta{}); err != nil {
					t.Fatal(err)
				}
				if _, ver, err := sub.Fetch(); err == nil || !strings.Contains(err.Error(), "the bound model 6") {
					t.Fatalf("Fetch of %d values into a 6-value slab: v%d err=%v", n, ver, err)
				}
				requireBits(t, "the bound slab", slab, v1)
				requireCached(t, sub, v1, 1)
				if got, _, _ := sub.Cached(); &got[0] != &slab[0] {
					t.Fatal("Cached() is not the bound slab")
				}
				sub.Reset()
				if err := pub.Publish(3, []float64{6, 5, 4, 3, 2, 1}, lineage.Meta{}); err != nil {
					t.Fatal(err)
				}
				if got, ver, err := sub.Fetch(); err != nil || ver != 3 || &got[0] != &slab[0] {
					t.Fatalf("fetch after Reset: v%d err=%v, or not into the bound slab", ver, err)
				}
				requireBits(t, "the bound slab", slab, []float64{6, 5, 4, 3, 2, 1})
			})
		})
	}
}

// TestFetchAllocatesNoVector guards the receive path: once warm, a Fetch
// whose head moved — the head, then the 82 KB vector, over a loopback
// server — allocates less than 4 KB in the whole process, so a
// value-sized allocation creeping back fails here.
func TestFetchAllocatesNoVector(t *testing.T) {
	leaktest.Check(t)
	srv := NewServer(nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	pubCli, err := DialWith(addr, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer pubCli.Close()
	subCli, err := DialWith(addr, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer subCli.Close()
	pub, sub := &WeightsPublisher{C: pubCli}, &WeightsSub{C: subCli}
	w := make([]float64, 82<<10/8)
	publish := func(v int) {
		for i := range w {
			w[i] += 1
		}
		if err := pub.Publish(v, w, lineage.Meta{}); err != nil {
			t.Fatal(err)
		}
	}
	fetch := func(v int) {
		if got, ver, err := sub.Fetch(); err != nil || ver != v || got[0] != w[0] {
			t.Fatalf("fetch: v%d err=%v, want v%d", ver, err, v)
		}
	}
	for v := 0; v < 3; v++ {
		publish(v)
		fetch(v)
	}
	const fetches = 100
	var total uint64
	for v := 3; v < 3+fetches; v++ {
		publish(v)
		total += allocatedDuring(func() { fetch(v) })
	}
	if st := sub.Stats(); st.FullFetches != 3+fetches {
		t.Fatalf("%d vector reads for %d moved heads: %+v", st.FullFetches, 3+fetches, st)
	}
	if per := total / fetches; per >= 4<<10 {
		t.Fatalf("a changed-head Fetch allocates %d bytes, want < 4096 (the vector is %d)", per, 8*len(w))
	} else {
		t.Logf("a changed-head Fetch allocates %d bytes for a %d-byte vector", per, 8*len(w))
	}
}
