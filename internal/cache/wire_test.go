package cache

// Tests of the ownership-passing wire path: who may hold a stored
// slice, what a batch of replication records looks like to a follower,
// and how many bytes a round trip may allocate and must count.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"stellaris/internal/leaktest"
	"stellaris/internal/obs"
)

// appendPutNBlob stages a PutN request blob in one buffer — the layout
// frameWriter.request gathers from the caller's slices — for tests that
// speak the raw protocol.
func appendPutNBlob(b []byte, kvs []KV) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(len(kvs)))
	for _, kv := range kvs {
		b = binary.BigEndian.AppendUint32(b, uint32(len(kv.Key)))
		b = append(b, kv.Key...)
		b = binary.BigEndian.AppendUint32(b, uint32(len(kv.Val)))
		b = append(b, kv.Val...)
	}
	return b
}

// writeResp writes one response frame to w, for tests that play a
// server by hand.
func writeResp(w io.Writer, status byte, payload []byte) error {
	fw := frameWriter{w: w}
	fw.resp(status, payload)
	return fw.flush()
}

// filled returns n bytes of c; whole reports whether v is exactly such
// a value for one of the allowed fill bytes.
func filled(c byte, n int) []byte { return bytes.Repeat([]byte{c}, n) }

func whole(v []byte, n int, allowed string) bool {
	if len(v) != n {
		return false
	}
	return bytes.IndexByte([]byte(allowed), v[0]) >= 0 && bytes.Count(v, v[:1]) == n
}

// startFollower attaches a running replica of addr and returns its
// store.
func startFollower(t *testing.T, addr string) (*MemCache, *Replica) {
	t.Helper()
	store := NewMemCache()
	rep := NewReplica(store, addr, fastReplicaOpts())
	rep.Start()
	t.Cleanup(rep.Stop)
	return store, rep
}

// storesEqual compares two stores key for key.
func storesEqual(a, b *MemCache) error {
	a.mu.RLock()
	defer a.mu.RUnlock()
	b.mu.RLock()
	defer b.mu.RUnlock()
	if len(a.data) != len(b.data) {
		return fmt.Errorf("sizes differ: %d vs %d keys", len(a.data), len(b.data))
	}
	for k, v := range a.data {
		if w, ok := b.data[k]; !ok || !bytes.Equal(v, w) {
			return fmt.Errorf("key %q differs (present=%v, %d vs %d bytes)", k, ok, len(v), len(w))
		}
	}
	return nil
}

// TestStoredSlicesAreSharedNeverTorn overwrites a key while a Get, a
// GetN and a follower all read slices the store shares with them: with
// -race this is the test that a stored value is never written to.
func TestStoredSlicesAreSharedNeverTorn(t *testing.T) {
	leaktest.Check(t)
	const size = 64 << 10
	leader := NewMemCache()
	srv, addr := startLeader(t, leader)
	defer srv.Close()
	follower, _ := startFollower(t, addr)
	cli, err := Dial(addr) // one connection carries every request below
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	if err := cli.Put("k1", filled('A', size)); err != nil {
		t.Fatal(err)
	}
	if err := cli.Put("k2", filled('B', size)); err != nil {
		t.Fatal(err)
	}
	const rounds = 60
	var wg sync.WaitGroup
	wg.Add(3)
	go func() { // overwrite k1, the buffer scribbled on as soon as Put returns
		defer wg.Done()
		buf := make([]byte, size)
		for i := 0; i < rounds; i++ {
			copy(buf, filled("CA"[i%2], size))
			if err := cli.Put("k1", buf); err != nil {
				t.Error(err)
				return
			}
			copy(buf, filled('x', size))
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if v, err := cli.Get("k1"); err != nil || !whole(v, size, "AC") {
				t.Errorf("Get k1: torn or foreign value (%d bytes, err %v)", len(v), err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			vals, err := cli.GetN([]string{"k1", "k2"})
			if err != nil || !whole(vals[0], size, "AC") || !whole(vals[1], size, "B") {
				t.Errorf("GetN: torn or foreign value (err %v)", err)
				return
			}
		}
	}()
	wg.Wait()
	if err := cli.Put("k1", filled('C', size)); err != nil {
		t.Fatal(err)
	}
	if v, _ := leader.Get("k1"); !whole(v, size, "C") {
		t.Fatal("leader does not hold the last value put")
	}
	waitFor(t, 5*time.Second, func() error { return storesEqual(leader, follower) })
}

// TestMemCachePutCopiesCallerBuffer: the public API keeps copying, so
// what the caller does with its buffer afterwards — mutate it, Recycle
// it and have the pool hand it to someone else — never reaches the
// store.
func TestMemCachePutCopiesCallerBuffer(t *testing.T) {
	c := NewMemCache()
	buf := append(grabFrame(64), "original"...)
	if err := c.Put("k", buf); err != nil {
		t.Fatal(err)
	}
	if err := c.PutN([]KV{{Key: "kn", Val: buf}, {Key: "kn2", Val: buf}}); err != nil {
		t.Fatal(err)
	}
	copy(buf, "MUTATED!")
	Recycle(buf)
	copy(grabFrame(8)[:8], "POOLUSER")
	for _, k := range []string{"k", "kn"} {
		if v, _ := c.Get(k); string(v) != "original" {
			t.Fatalf("Get %s = %q after the caller reused its buffer", k, v)
		}
	}
	// And out: a Get result is the caller's to scribble on.
	v, _ := c.Get("k")
	copy(v, "scribble")
	vs, _ := c.GetN([]string{"k"})
	copy(vs[0], "scribble")
	if v, _ := c.Get("k"); string(v) != "original" {
		t.Fatalf("Get = %q after a previous result was written to", v)
	}
}

// TestGetNEmptyValueIsFound: found-but-empty stays distinct from
// missing through the server's gather and the client's aliasing parse,
// and entries cannot grow into each other.
func TestGetNEmptyValueIsFound(t *testing.T) {
	leaktest.Check(t)
	store := NewMemCache()
	srv, addr := startLeader(t, store)
	defer srv.Close()
	cli, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if err := cli.Put("empty/wire", nil); err != nil {
		t.Fatal(err)
	}
	if err := cli.PutN([]KV{{Key: "empty/batch", Val: nil}, {Key: "full", Val: []byte("abc")}}); err != nil {
		t.Fatal(err)
	}
	if err := store.Put("empty/local", nil); err != nil {
		t.Fatal(err)
	}
	keys := []string{"empty/wire", "missing", "empty/batch", "full", "empty/local", "tail"}
	if err := cli.Put("tail", []byte("z")); err != nil {
		t.Fatal(err)
	}
	vals, err := cli.GetN(keys)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		switch {
		case k == "missing":
			if vals[i] != nil {
				t.Errorf("%s: got %q, want nil", k, vals[i])
			}
		case vals[i] == nil:
			t.Errorf("%s: found key came back nil", k)
		case cap(vals[i]) != len(vals[i]):
			t.Errorf("%s: entry has spare capacity %d into its neighbour", k, cap(vals[i])-len(vals[i]))
		}
	}
	_ = append(vals[3], "OVERRUN"...)
	if string(vals[5]) != "z" || len(vals[0]) != 0 || len(vals[4]) != 0 {
		t.Fatalf("entries after append to a neighbour: %q", vals)
	}
	local, _ := store.GetN(keys)
	if local[0] == nil || local[1] != nil || local[2] == nil {
		t.Fatalf("MemCache.GetN: %q", local)
	}
}

// TestPersistedEmptyValueIsFound: recovery must not turn an empty value
// into the nil that means "missing".
func TestPersistedEmptyValueIsFound(t *testing.T) {
	dir := t.TempDir()
	for pass := 0; pass < 3; pass++ { // written, replayed from the AOF, loaded from the snapshot
		c, err := NewPersistentMemCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		if pass == 0 {
			if err := c.Put("e", nil); err != nil {
				t.Fatal(err)
			}
		}
		if v := c.viewN([]string{"e"}); v[0] == nil {
			t.Fatalf("pass %d: empty value reads as missing", pass)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReplBatchLen pins the two batch bounds and the lone oversize
// record.
func TestReplBatchLen(t *testing.T) {
	small := tapRec{op: aofPut, key: "k", val: make([]byte, 100)}
	big := tapRec{op: aofPut, key: "k", val: make([]byte, replBatchBytes+1)}
	half := tapRec{op: aofPut, key: "k", val: make([]byte, replBatchBytes/2)}
	many := make([]tapRec, 3*replBatchRecords)
	for i := range many {
		many[i] = small
	}
	for _, tc := range []struct {
		name string
		recs []tapRec
		want int
	}{
		{"count bound", many, replBatchRecords},
		{"short tail", many[:5], 5},
		{"oversize travels alone", []tapRec{big, small}, 1},
		{"oversize ends the batch before it", []tapRec{small, small, big, small}, 2},
		{"byte bound", []tapRec{half, small, half, small}, 2},
		{"one record", []tapRec{small}, 1},
	} {
		if got := replBatchLen(tc.recs); got != tc.want {
			t.Errorf("%s: %d records in the write, want %d", tc.name, got, tc.want)
		}
	}
}

// readReplFrames reads replication frames off a raw subscriber
// connection until EOF or an error, sending each verified record (and
// nil for a keepalive) to out; it returns the bytes it consumed.
func readReplFrames(conn net.Conn, out chan<- *tapRec) (int, error) {
	defer close(out)
	br, total := bufio.NewReader(conn), 0
	for {
		status, payload, err := readResp(br)
		if err != nil {
			return total, err
		}
		total += 5 + len(payload)
		if status != '+' {
			return total, fmt.Errorf("status %q on the stream", status)
		}
		if len(payload) == 0 {
			out <- nil
			continue
		}
		op, kb, val, n := scanRecord(payload)
		if n != len(payload) {
			return total, fmt.Errorf("record of %d bytes fails its checksum or framing", len(payload))
		}
		out <- &tapRec{op: op, key: string(kb), val: val}
	}
}

// subscribeRaw opens a replication stream without a Replica behind it.
func subscribeRaw(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(conn, 'R', "", nil); err != nil {
		t.Fatal(err)
	}
	return conn
}

// TestReplicationBurstArrivesInOrder: a burst far above the count
// bound, with one value above the byte bound in the middle, reaches a
// subscriber that was not reading while it was made (so the records
// were ready together and travelled batched) as exactly the mutation
// sequence, every record checksummed; and a real follower ends up key
// for key equal to the leader.
func TestReplicationBurstArrivesInOrder(t *testing.T) {
	leaktest.Check(t)
	leader := NewMemCache()
	for i := 0; i < 2*replBatchRecords; i++ { // the snapshot is batched too
		if err := leader.Put(fmt.Sprintf("pre/%d", i), filled(byte(i), 100+i)); err != nil {
			t.Fatal(err)
		}
	}
	srv, addr := startLeader(t, leader)
	defer srv.Close()
	follower, _ := startFollower(t, addr)
	raw := subscribeRaw(t, addr)
	defer raw.Close()
	waitFor(t, 5*time.Second, func() error { // both taps attached before the burst
		leader.mu.RLock()
		defer leader.mu.RUnlock()
		if len(leader.taps) != 2 {
			return fmt.Errorf("%d taps", len(leader.taps))
		}
		return nil
	})

	const burst = 5*replBatchRecords + 7
	var want []tapRec
	for i := 0; i < burst; i++ {
		key, val := fmt.Sprintf("live/%d", i%50), filled(byte(i), 10+i)
		if i == burst/2 {
			val = filled('L', replBatchBytes+4096)
		}
		if i%5 == 3 {
			_ = leader.Delete(key)
			want = append(want, tapRec{op: aofDelete, key: key})
		} else {
			_ = leader.Put(key, val)
			want = append(want, tapRec{op: aofPut, key: key, val: val})
		}
	}

	got := make(chan *tapRec, 4096) // roomy: the reader must never wait on the test
	go func() { _, _ = readReplFrames(raw, got) }()
	snapshot := 1 + 2*replBatchRecords
	for i := 0; i < snapshot; i++ {
		if r := nextRecord(t, got); (i == 0) != (r.op == aofReset) {
			t.Fatalf("snapshot record %d has op %q", i, r.op)
		}
	}
	for i, w := range want {
		r := nextRecord(t, got)
		if r.op != w.op || r.key != w.key || !bytes.Equal(r.val, w.val) {
			t.Fatalf("live record %d: got %c %q (%d bytes), want %c %q (%d bytes)", i, r.op, r.key, len(r.val), w.op, w.key, len(w.val))
		}
	}
	waitFor(t, 5*time.Second, func() error { return storesEqual(leader, follower) })
}

// nextRecord returns the next non-keepalive frame from a raw stream.
func nextRecord(t *testing.T, got <-chan *tapRec) *tapRec {
	t.Helper()
	for {
		select {
		case r, ok := <-got:
			if !ok {
				t.Fatal("replication stream ended early")
			}
			if r != nil {
				return r
			}
		case <-time.After(5 * time.Second):
			t.Fatal("replication stream stalled")
		}
	}
}

// TestReplicaStopsAtCorruptRecordInBatch: a leader's write carries five
// records, the third with one value byte flipped. The follower must
// apply the two before it, nothing from it on — the fourth and fifth
// are intact and already in its read buffer — drop the stream, and
// converge through the full sync of its reconnect.
func TestReplicaStopsAtCorruptRecordInBatch(t *testing.T) {
	leaktest.Check(t)
	recs := []tapRec{
		{op: aofReset},
		{op: aofPut, key: "a", val: []byte("first")},
		{op: aofPut, key: "b", val: []byte("second")},
		{op: aofPut, key: "c", val: []byte("third")},
		{op: aofPut, key: "d", val: []byte("fourth")},
	}
	var batch bytes.Buffer
	fw := frameWriter{w: &batch}
	for _, r := range recs {
		fw.record(r)
	}
	if err := fw.flush(); err != nil {
		t.Fatal(err)
	}
	clean := append([]byte(nil), batch.Bytes()...)
	corrupt := append([]byte(nil), clean...)
	corrupt[bytes.Index(corrupt, []byte("second"))] ^= 0xFF

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	store := NewMemCache()
	// The leader serves one subscriber at a time: the first gets the
	// corrupt batch, and what the follower holds when it hangs up is
	// recorded before the second — its reconnect — is even accepted.
	afterCorrupt := make(chan []string, 1)
	go func() {
		for n := 0; ; n++ {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			if f, err := readFrame(conn); err != nil || f.op != 'R' {
				t.Errorf("subscriber %d sent %+v, %v", n, f, err)
			}
			batch := clean
			if n == 0 {
				batch = corrupt
			}
			_, _ = conn.Write(batch)
			_, _ = conn.Read(make([]byte, 1)) // returns when the follower hangs up
			if n == 0 {
				keys, _ := store.Keys("")
				afterCorrupt <- keys
			}
			_ = conn.Close()
		}
	}()

	rep := NewReplica(store, ln.Addr().String(), fastReplicaOpts())
	rep.Start()
	defer rep.Stop()
	select {
	case keys := <-afterCorrupt:
		if len(keys) != 1 || keys[0] != "a" {
			t.Fatalf("after the corrupt batch the follower holds %q, want just [a]", keys)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("follower kept a stream that carried a corrupt record")
	}
	waitFor(t, 5*time.Second, func() error {
		if keys, _ := store.Keys(""); len(keys) != 4 {
			return fmt.Errorf("keys %q", keys)
		}
		return nil
	})
	if st := rep.Stats(); st.FullSyncs < 2 || st.Reconnects < 1 {
		t.Fatalf("no resync after the corrupt record: %+v", st)
	}
}

// TestChaosReplicationCorruptionConverges runs the follower through a
// FaultProxy that flips bytes in the batched stream: whatever is hit —
// a length word, a key, a value, a checksum — the follower never holds
// a value that was not put whole, and converges once the faults stop.
func TestChaosReplicationCorruptionConverges(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos drill skipped in -short")
	}
	leaktest.Check(t)
	const size = 4 << 10
	leader := NewMemCache()
	srv, addr := startLeader(t, leader)
	defer srv.Close()
	proxy := NewFaultProxy(addr, FaultConfig{CorruptRate: 0.01, Seed: 18})
	paddr, err := proxy.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	follower, rep := startFollower(t, paddr)

	stop := make(chan struct{})
	var checker sync.WaitGroup
	checker.Add(1)
	go func() { // every value the follower ever exposes is one that was put
		defer checker.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			keys, _ := follower.Keys("k/")
			vals, _ := follower.GetN(keys)
			for i, v := range vals {
				if v != nil && !whole(v, size, "abcdefgh") {
					t.Errorf("follower holds a corrupt value under %s", keys[i])
					return
				}
			}
			time.Sleep(time.Millisecond)
		}
	}()
	for i := 0; i < 400; i++ {
		kvs := make([]KV, 8)
		for j := range kvs {
			kvs[j] = KV{Key: fmt.Sprintf("k/%d", (i+j)%32), Val: filled("abcdefgh"[(i+j)%8], size)}
		}
		if err := leader.PutN(kvs); err != nil {
			t.Fatal(err)
		}
		if i%50 == 49 {
			time.Sleep(20 * time.Millisecond) // let a resync land now and then
		}
	}
	close(stop)
	checker.Wait()
	if proxy.Stats().Corruptions == 0 || rep.Stats().Reconnects == 0 {
		t.Fatalf("the drill injected nothing: %+v, %+v", proxy.Stats(), rep.Stats())
	}
	// Converge through a clean path: the proxy keeps corrupting for as
	// long as bytes flow, full syncs included.
	rep.Stop()
	clean, _ := startFollower(t, addr)
	waitFor(t, 5*time.Second, func() error { return storesEqual(leader, clean) })
}

// allocatedDuring returns the bytes the whole process allocated while f
// ran (f must wait for any goroutine whose allocations it means to
// count).
func allocatedDuring(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestAttachTapAllocatesPerKeyNotPerByte: attaching a follower to a
// store holding 8 MB shares the stored slices, so under the store's
// write lock it allocates a record per key — not a copy of the
// keyspace.
func TestAttachTapAllocatesPerKeyNotPerByte(t *testing.T) {
	const keys, size = 128, 64 << 10
	c := NewMemCache()
	for i := 0; i < keys; i++ {
		if err := c.Put(fmt.Sprintf("k/%d", i), make([]byte, size)); err != nil {
			t.Fatal(err)
		}
	}
	var snapshot []tapRec
	got := allocatedDuring(func() {
		var tp *tap
		snapshot, tp = c.attachTap()
		c.detachTap(tp)
	})
	if len(snapshot) != 1+keys {
		t.Fatalf("snapshot has %d records, want %d", len(snapshot), 1+keys)
	}
	// The tap's channel (replTapBuffer records) dominates; 256 KB is 3 %
	// of the bytes stored.
	t.Logf("attachTap allocated %d bytes on a store holding %d", got, keys*size)
	if got > 256<<10 {
		t.Fatal("attachTap allocates by the byte, not by the key")
	}
}

// TestRoundTripAllocationPin bounds what one round trip allocates in
// the whole process — client, leader and follower run in this one — in
// units of the value size: a fenced, replicated put needs the leader's
// request frame and the follower's record frame (each handed to its
// store, not copied), a get needs the client's response buffer.
func TestRoundTripAllocationPin(t *testing.T) {
	leaktest.Check(t)
	const size, rounds = 64 << 10, 40
	leader := NewMemCache()
	srv, addr := startLeader(t, leader)
	defer srv.Close()
	follower, _ := startFollower(t, addr)
	cli, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	val, stamp := filled('v', size), byte(0)
	put := func(n int) {
		for i := 0; i < n; i++ {
			stamp++
			val[0] = stamp
			if err := cli.PutFenced(1, "grad/0", val); err != nil {
				t.Fatal(err)
			}
		}
		// The follower's allocations belong to the puts: wait (without
		// allocating) until it holds the last one.
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			if v, ok := follower.view("grad/0"); ok && v[0] == stamp {
				return
			}
			if time.Now().After(deadline) {
				t.Fatal("follower never applied the last put")
			}
		}
	}
	put(3) // connections, buffers and the fence term settle

	if per := float64(allocatedDuring(func() { put(rounds) })) / rounds / size; per >= 2.5 {
		t.Errorf("a fenced, replicated put allocates %.2f x the value size, want < 2.5", per)
	} else {
		t.Logf("put: %.2f x the value size", per)
	}
	get := func() {
		for i := 0; i < rounds; i++ {
			if v, err := cli.Get("grad/0"); err != nil || len(v) != size {
				t.Fatal(len(v), err)
			}
		}
	}
	if per := float64(allocatedDuring(get)) / rounds / size; per >= 1.5 {
		t.Errorf("a get allocates %.2f x the value size, want < 1.5", per)
	} else {
		t.Logf("get: %.2f x the value size", per)
	}
}

// TestServerCountsEveryByteOut: cache_server_frame_bytes_total{dir="out"}
// is the sum of the frames the server wrote — responses gathered from
// stored slices and replication records batched into vectored writes
// included — computed here from the protocol tables, not from what the
// writer says it wrote.
func TestServerCountsEveryByteOut(t *testing.T) {
	leaktest.Check(t)
	reg := obs.NewRegistry()
	srv := NewServer(nil)
	srv.Instrument(reg)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	raw := subscribeRaw(t, addr)
	defer raw.Close()
	got := make(chan *tapRec, 64)
	type tally struct {
		bytes int
		err   error
	}
	done := make(chan tally, 1)
	go func() {
		n, err := readReplFrames(raw, got)
		done <- tally{n, err}
	}()
	if r := nextRecord(t, got); r.op != aofReset {
		t.Fatalf("stream opens with %q", r.op)
	}

	cli, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	big, small := filled('g', 70<<10), []byte("small")
	responses := 0 // bytes of the replies to cli, by §10.1
	step := func(err error, payload int) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		responses += 4 + 1 + payload
	}
	step(cli.Put("grad/1", big), 0)
	step(cli.PutFenced(3, "traj/1", small), 0)
	step(cli.PutN([]KV{{Key: "traj/2", Val: small}, {Key: "traj/3", Val: nil}}), 0)
	_, err = cli.Get("grad/1")
	step(err, len(big))
	_, err = cli.GetN([]string{"grad/1", "nope", "traj/3", "traj/2"})
	step(err, 4+4*5+len(big)+len(small))
	step(cli.Delete("traj/1"), 0)
	_, err = cli.Keys("traj/")
	step(err, len("traj/2\ntraj/3"))
	if _, err := cli.Get("nope"); err == nil {
		t.Fatal("missing key found")
	}
	responses += 5

	mutations := []tapRec{
		{op: aofPut, key: "grad/1", val: big}, {op: aofPut, key: "traj/1", val: small},
		{op: aofPut, key: "traj/2", val: small}, {op: aofPut, key: "traj/3"},
		{op: aofDelete, key: "traj/1"},
	}
	stream := replFrameSize(tapRec{op: aofReset})
	for _, m := range mutations {
		if r := nextRecord(t, got); r.op != m.op || r.key != m.key || !bytes.Equal(r.val, m.val) {
			t.Fatalf("stream carried %c %q, want %c %q", r.op, r.key, m.op, m.key)
		}
		stream += replFrameSize(m)
	}
	// Close drains the handlers, so every byte counted has been written;
	// the subscriber then reads to EOF, keepalives included.
	_ = cli.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	end := <-done
	if keepalives := end.bytes - stream; keepalives < 0 || keepalives%5 != 0 {
		t.Fatalf("stream carried %d bytes, records account for %d and the rest is not keepalives (%v)", end.bytes, stream, end.err)
	}
	out, ok := reg.Snapshot().Find("cache_server_frame_bytes_total", map[string]string{"dir": "out"})
	if !ok || int(out.Value) != responses+end.bytes {
		t.Fatalf("frame bytes out = %v, want %d replies + %d replication", out.Value, responses, end.bytes)
	}
}
