package cache

import (
	"math"
	"strings"
	"testing"

	"stellaris/internal/leaktest"
	"stellaris/internal/obs/lineage"
)

func TestDeltaRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		d    *DeltaMsg
	}{
		{"sparse", &DeltaMsg{Version: 5, BaseVersion: 4, Len: 10,
			Indices: []uint32{1, 7}, Values: []float64{-0.25, math.Pi}}},
		{"sparse-empty", &DeltaMsg{Version: 2, BaseVersion: 1, Len: 4,
			Indices: []uint32{}, Values: nil}},
		{"dense", &DeltaMsg{Version: 9, BaseVersion: 8, Len: 3,
			Values: []float64{1, 2, 3}}},
		{"traced", &DeltaMsg{Version: 3, BaseVersion: 2, Len: 2,
			Indices: []uint32{0}, Values: []float64{math.Inf(1)},
			Trace: lineage.Meta{ID: "weights/3", Kind: lineage.KindWeights, Origin: "param"}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bothSlabPaths(t, func(t *testing.T) {
				b, err := EncodeDelta(tc.d)
				if err != nil {
					t.Fatal(err)
				}
				got, err := DecodeDelta(b)
				if err != nil {
					t.Fatal(err)
				}
				if got.Version != tc.d.Version || got.BaseVersion != tc.d.BaseVersion || got.Len != tc.d.Len {
					t.Fatalf("header round-trip: got %+v want %+v", got, tc.d)
				}
				if got.Dense() != tc.d.Dense() {
					t.Fatalf("density flag flipped: got dense=%v", got.Dense())
				}
				if len(got.Indices) != len(tc.d.Indices) || len(got.Values) != len(tc.d.Values) {
					t.Fatalf("payload sizes: got %d/%d want %d/%d",
						len(got.Indices), len(got.Values), len(tc.d.Indices), len(tc.d.Values))
				}
				for i := range got.Values {
					if math.Float64bits(got.Values[i]) != math.Float64bits(tc.d.Values[i]) {
						t.Fatalf("value %d: %v != %v", i, got.Values[i], tc.d.Values[i])
					}
				}
				if got.Trace != tc.d.Trace {
					t.Fatalf("trace round-trip: got %+v want %+v", got.Trace, tc.d.Trace)
				}
			})
		})
	}
}

func TestBuildDeltaChoosesRepresentation(t *testing.T) {
	base := make([]float64, 100)
	next := append([]float64(nil), base...)
	next[3], next[42] = 1.5, -2.5
	d, err := BuildDelta(7, 6, base, next)
	if err != nil {
		t.Fatal(err)
	}
	if d.Dense() || len(d.Indices) != 2 {
		t.Fatalf("2/100 changed should be sparse, got %+v", d)
	}
	w := append([]float64(nil), base...)
	if err := d.Apply(w); err != nil {
		t.Fatal(err)
	}
	for i := range w {
		if w[i] != next[i] {
			t.Fatalf("sparse apply diverged at %d: %v != %v", i, w[i], next[i])
		}
	}

	for i := range next {
		next[i] = float64(i)
	}
	d, err = BuildDelta(8, 7, base, next)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Dense() {
		t.Fatalf("all-changed should be dense, got sparse nnz=%d", len(d.Indices))
	}
	w = append(w[:0], base...)
	if err := d.Apply(w); err != nil {
		t.Fatal(err)
	}
	if w[99] != 99 {
		t.Fatalf("dense apply diverged: %v", w[99])
	}
}

func TestDeltaApplyRejectsBadInputs(t *testing.T) {
	d := &DeltaMsg{Version: 1, Len: 4, Indices: []uint32{9}, Values: []float64{1}}
	if err := d.Apply(make([]float64, 4)); err == nil {
		t.Fatal("out-of-range index accepted")
	}
	if err := d.Apply(make([]float64, 3)); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := BuildDelta(1, 0, make([]float64, 2), make([]float64, 3)); err == nil {
		t.Fatal("mismatched BuildDelta accepted")
	}
}

// TestPublisherSubscriber runs the full delta path over a MemCache:
// incremental fetches ride the delta chain, an unchanged head skips the
// fetch, and a cold subscriber full-fetches then tops up.
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
	if len(got) != 4 || got[2] != 3 {
		t.Fatalf("initial fetch wrong: %v", got)
	}
	if st := sub.Stats(); st.FullFetches != 1 {
		t.Fatalf("cold subscriber should full-fetch once: %+v", st)
	}

	// Head unchanged → served from cache, no reconstruction.
	if _, ver, err = sub.Fetch(); err != nil || ver != 0 {
		t.Fatalf("cached fetch: v%d err=%v", ver, err)
	}
	if st := sub.Stats(); st.Skipped != 1 {
		t.Fatalf("unchanged head should skip: %+v", st)
	}

	// Publish a few versions; the warm subscriber follows deltas only.
	for v := 1; v <= 3; v++ {
		w[v%4] += 0.5
		if err := pub.Publish(v, w, trace(v)); err != nil {
			t.Fatal(err)
		}
	}
	got, ver, err = sub.Fetch()
	if err != nil || ver != 3 {
		t.Fatalf("delta fetch: v%d err=%v", ver, err)
	}
	for i := range w {
		if math.Float64bits(got[i]) != math.Float64bits(w[i]) {
			t.Fatalf("delta reconstruction diverged at %d: %v != %v", i, got[i], w[i])
		}
	}
	st := sub.Stats()
	if st.DeltaHits != 1 || st.FullFetches != 1 {
		t.Fatalf("warm fetch should ride the chain: %+v", st)
	}

	// A second cold subscriber reconstructs the same bits from scratch.
	sub2 := &WeightsSub{C: mem}
	got2, ver2, err := sub2.Fetch()
	if err != nil || ver2 != 3 {
		t.Fatalf("cold re-fetch: v%d err=%v", ver2, err)
	}
	for i := range got {
		if math.Float64bits(got2[i]) != math.Float64bits(got[i]) {
			t.Fatalf("subscribers disagree at %d", i)
		}
	}
}

// TestSubscriberFallsBackOnBrokenChain wipes a delta out of the chain
// and checks the subscriber recovers through the full snapshot.
func TestSubscriberFallsBackOnBrokenChain(t *testing.T) {
	mem := NewMemCache()
	pub := &WeightsPublisher{C: mem}
	w := []float64{1, 1}
	sub := &WeightsSub{C: mem}
	if err := pub.Publish(0, w, lineage.Meta{}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sub.Fetch(); err != nil {
		t.Fatal(err)
	}
	for v := 1; v <= 2; v++ {
		w[0] = float64(v)
		if err := pub.Publish(v, w, lineage.Meta{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := mem.Delete(WeightsDeltaKey(1)); err != nil {
		t.Fatal(err)
	}
	got, ver, err := sub.Fetch()
	if err != nil || ver != 2 || got[0] != 2 {
		t.Fatalf("broken-chain fetch: v%d %v err=%v", ver, got, err)
	}
	if st := sub.Stats(); st.FullFetches != 2 {
		t.Fatalf("broken chain should force a full fetch: %+v", st)
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

// TestPublisherPrunesHistory checks deltas older than deltaHistory
// versions fall out of the cache.
func TestPublisherPrunesHistory(t *testing.T) {
	mem := NewMemCache()
	pub := &WeightsPublisher{C: mem}
	w := []float64{0}
	last := deltaHistory + 2
	for v := 0; v <= last; v++ {
		w[0] = float64(v)
		if err := pub.Publish(v, w, lineage.Meta{}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := mem.Get(WeightsDeltaKey(1)); err == nil {
		t.Fatalf("delta 1 should have been pruned %d versions on", last)
	}
	if _, err := mem.Get(WeightsDeltaKey(last - deltaHistory + 1)); err != nil {
		t.Fatalf("delta %d is inside the history and should survive: %v", last-deltaHistory+1, err)
	}
	if n, _ := mem.Keys(weightsDeltaPrefix); len(n) != deltaHistory {
		t.Fatalf("%d deltas in the cache, want %d", len(n), deltaHistory)
	}
}

// TestDeltaOverNetwork runs publisher and subscriber through the TCP
// client, exercising the batched delta fetch end to end.
func TestDeltaOverNetwork(t *testing.T) {
	srv := NewServer(nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	pubCli, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer pubCli.Close()
	subCli, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer subCli.Close()

	pub := &WeightsPublisher{C: pubCli}
	sub := &WeightsSub{C: subCli}
	w := make([]float64, 256)
	if err := pub.Publish(0, w, lineage.Meta{}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sub.Fetch(); err != nil {
		t.Fatal(err)
	}
	for v := 1; v <= 5; v++ {
		w[v] = float64(v) * 1.25
		if err := pub.Publish(v, w, lineage.Meta{}); err != nil {
			t.Fatal(err)
		}
	}
	got, ver, err := sub.Fetch()
	if err != nil || ver != 5 {
		t.Fatalf("network delta fetch: v%d err=%v", ver, err)
	}
	for i := range w {
		if got[i] != w[i] {
			t.Fatalf("network reconstruction diverged at %d", i)
		}
	}
	if st := sub.Stats(); st.DeltaHits != 1 {
		t.Fatalf("network fetch should ride the chain: %+v", st)
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

// TestHalfAppliedSparseDeltaKeepsStaleCopy is the regression test for a
// sparse delta whose second index is out of range: Apply used to patch
// the cached vector before it reached the bad index, so with the
// snapshot unreadable too, Cached() answered [-1 2 3 … 8] labelled v1.
// DecodeDelta now refuses the delta, and Apply checks every index before
// its first write.
func TestHalfAppliedSparseDeltaKeepsStaleCopy(t *testing.T) {
	bothSlabPaths(t, func(t *testing.T) {
		mem := NewMemCache()
		v1 := []float64{1, 2, 3, 4, 5, 6, 7, 8}
		if err := (&WeightsPublisher{C: mem}).Publish(1, v1, lineage.Meta{}); err != nil {
			t.Fatal(err)
		}
		sub := &WeightsSub{C: mem}
		if _, ver, err := sub.Fetch(); err != nil || ver != 1 {
			t.Fatalf("first fetch: v%d err=%v", ver, err)
		}
		bad := &DeltaMsg{Version: 2, BaseVersion: 1, Len: 8, Indices: []uint32{0, 99}, Values: []float64{-1, -1}}
		w := append([]float64(nil), v1...)
		if err := bad.Apply(w); err == nil {
			t.Fatal("Apply accepted index 99 of 8")
		}
		requireBits(t, "after a refused Apply", w, v1)
		raw, err := EncodeDelta(bad)
		if err != nil {
			t.Fatal(err)
		}
		if d, err := DecodeDelta(raw); err == nil || !strings.Contains(err.Error(), "index 99 out of range") {
			t.Fatalf("DecodeDelta = %+v, %v; want the index error", d, err)
		}
		head, err := EncodeWeights(&WeightsMsg{Version: 2})
		if err != nil {
			t.Fatal(err)
		}
		if err := mem.PutN([]KV{{WeightsDeltaKey(2), raw}, {KeyWeightsHead, head}}); err != nil {
			t.Fatal(err)
		}
		if err := mem.Delete(KeyWeightsLatest); err != nil {
			t.Fatal(err)
		}
		if _, ver, err := sub.Fetch(); err == nil {
			t.Fatalf("Fetch answered v%d with neither the delta nor the snapshot readable", ver)
		}
		requireCached(t, sub, v1, 1)
	})
}

// TestSubscriberKeepsCachedCopyOnCorruptPayload: after a good fetch, a
// delta or snapshot that fails its checks — decoded in place, over the
// subscriber's own vector — leaves Cached() bit for bit as it was, and a
// chain that breaks halfway leaves the version it reached.
func TestSubscriberKeepsCachedCopyOnCorruptPayload(t *testing.T) {
	v1 := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	v2 := []float64{-1, -2, -3, -4, -5, -6, -7, -8}
	v3 := []float64{9, 9, 9, 9, 9, 9, 9, 9}
	enc := func(b []byte, err error) []byte {
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	dense := func(v int, w []float64) []byte {
		return enc(EncodeDelta(&DeltaMsg{Version: v, BaseVersion: v - 1, Len: len(w), Values: w}))
	}
	trailing := func(b []byte) []byte { return append(append([]byte(nil), b...), 0) }
	for _, tc := range []struct {
		name   string
		head   int
		kvs    []KV // what the store holds besides the head; a nil Val deletes
		want   []float64
		wantAt int
	}{
		{"corrupt delta, no snapshot", 2, []KV{
			{WeightsDeltaKey(2), trailing(dense(2, v2))}, {KeyWeightsLatest, nil}}, v1, 1},
		{"no delta, corrupt snapshot", 2, []KV{
			{WeightsDeltaKey(2), nil}, {KeyWeightsLatest, trailing(enc(EncodeWeights(&WeightsMsg{Version: 2, Weights: v2})))}}, v1, 1},
		{"no delta, snapshot of another kind", 2, []KV{
			{WeightsDeltaKey(2), nil}, {KeyWeightsLatest, enc(EncodeGrad(&GradMsg{Grad: v2}))}}, v1, 1},
		{"chain breaks at its second delta", 3, []KV{
			{WeightsDeltaKey(2), dense(2, v2)}, {WeightsDeltaKey(3), dense(3, v3)[:20]}, {KeyWeightsLatest, nil}}, v2, 2},
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
				for _, kv := range append(tc.kvs, KV{KeyWeightsHead, enc(EncodeWeights(&WeightsMsg{Version: tc.head}))}) {
					var err error
					if kv.Val == nil {
						err = mem.Delete(kv.Key)
					} else {
						err = mem.Put(kv.Key, kv.Val)
					}
					if err != nil {
						t.Fatal(err)
					}
				}
				if _, ver, err := sub.Fetch(); err == nil {
					t.Fatalf("Fetch answered v%d from corrupt payloads", ver)
				}
				requireCached(t, sub, tc.want, tc.wantAt)
			})
		})
	}
}

// TestFetchAllocatesNoVector guards the receive path: once warm, a Fetch
// whose head moved — head, then a dense one-version delta of an 82 KB
// vector, over a loopback server — allocates less than 4 KB in the whole
// process, so a value-sized allocation creeping back fails here.
func TestFetchAllocatesNoVector(t *testing.T) {
	leaktest.Check(t)
	srv := NewServer(nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	pubCli, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer pubCli.Close()
	subCli, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer subCli.Close()
	pub, sub := &WeightsPublisher{C: pubCli}, &WeightsSub{C: subCli}
	w := make([]float64, 82<<10/8)
	publish := func(v int) {
		for i := range w {
			w[i] += 1 // every weight moves: the delta is dense
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
	if st := sub.Stats(); st.DeltaHits < fetches {
		t.Fatalf("the fetches did not ride the one-delta path: %+v", st)
	}
	if per := total / fetches; per >= 4<<10 {
		t.Fatalf("a changed-head Fetch allocates %d bytes, want < 4096 (the vector is %d)", per, 8*len(w))
	} else {
		t.Logf("a changed-head Fetch allocates %d bytes for a %d-byte vector", per, 8*len(w))
	}
}
