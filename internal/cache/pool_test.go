package cache

// Tests of the size-classed buffer pool and of the reference counts
// that decide when a stored value's buffer may return to it.

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"stellaris/internal/cache/cluster"
	"stellaris/internal/leaktest"
	"stellaris/internal/replay"
)

// TestSizeClassesBoundSlack: every size up to maxFrame has a class at
// most an eighth (or minClass bytes) larger than itself, the classes
// grow with the size, and a buffer returned with a class's capacity
// files back into that class.
func TestSizeClassesBoundSlack(t *testing.T) {
	prev := -1
	for n := 0; n <= maxFrame; n += 1 + n/97 {
		class := sizeClass(n)
		size := classSize(class)
		if class >= numClasses {
			t.Fatalf("%d bytes fall outside the pool (class %d)", n, class)
		}
		if size < n || (n > minClass && 8*int64(size) > 9*int64(n)) { // int64: 9n passes 2^31 on a 32-bit int
			t.Fatalf("%d bytes get a %d-byte buffer", n, size)
		}
		if class < prev || (class > 0 && classSize(class-1) >= n) {
			t.Fatalf("%d bytes: class %d is not the smallest that holds them", n, class)
		}
		if got := sizeClass(size); got != class {
			t.Fatalf("a %d-byte buffer files into class %d, not %d", size, got, class)
		}
		prev = class
	}
	if sizeClass(maxFrame+1) < numClasses {
		t.Fatal("a buffer larger than maxFrame is pooled")
	}
}

// TestPoolReusesAcrossSizes: encoding a trajectory and a gradient
// alternately and recycling each reuses both buffers. A pool that kept
// one buffer of any size would throw the small one away for the large
// one, and the large one for the small.
func TestPoolReusesAcrossSizes(t *testing.T) {
	traj := &replay.Trajectory{}
	for i := 0; i < 106; i++ {
		traj.Steps = append(traj.Steps, replay.Step{Obs: canaries(8), Action: canaries(1), DistParams: canaries(2), Reward: 1})
	}
	grad := &GradMsg{Grad: canaries(10 << 10), Samples: 128}
	round := func() {
		tb, err := EncodeTrajectory(traj)
		if err != nil {
			t.Fatal(err)
		}
		gb, _ := EncodeGrad(grad)
		Recycle(tb)
		Recycle(gb)
	}
	round()
	tb, _ := EncodeTrajectory(traj)
	gb, _ := EncodeGrad(grad)
	t.Logf("trajectory %d B, gradient %d B", len(tb), len(gb))
	Recycle(tb)
	Recycle(gb)
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Fatalf("an encode-and-recycle round allocates %.0f times", allocs)
	}
}

// TestSpareSurvivesCollections: the last buffer returned to a class up
// to maxSpare is handed out again after collections that empty the
// sync.Pools.
func TestSpareSurvivesCollections(t *testing.T) {
	const n = 1 << 20
	b := getBuf(n)
	spares[sizeClass(n)].Store(nil) // whatever an earlier test left there
	putBuf(b)
	runtime.GC()
	runtime.GC()
	if again := getBuf(n); &again[0] != &b[0] {
		t.Fatal("the spare did not survive two collections")
	}
}

// TestLargeValuesAreLeftToTheCollector: a stored value up to
// maxPooledValue bytes lives in a pool buffer, put in process or over
// the wire; a larger one lives in memory of its own, which no release
// hands to the pool.
func TestLargeValuesAreLeftToTheCollector(t *testing.T) {
	leaktest.Check(t)
	store := NewMemCache()
	srv, addr := startLeader(t, store)
	defer srv.Close()
	cli, err := DialWith(addr, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	for _, n := range []int{maxPooledValue - 64, maxPooledValue + 1} { // 64: room for a request frame's header
		for how, put := range map[string]func(string, []byte) error{"Put": store.Put, "wire Put": cli.Put} {
			if err := put("k", make([]byte, n)); err != nil {
				t.Fatal(err)
			}
			v := store.view("k")
			if pooled := v.buf != nil; pooled != (n <= maxPooledValue) {
				t.Errorf("%s of %d bytes: pooled %v", how, n, pooled)
			}
			v.release()
		}
	}
}

// TestReleasedFramesNeverReachAReader hammers every holder of a stored
// value at once — two connections putting, overwriting and deleting
// values of three sizes and overwriting sys/topology, Get and GetN on
// the wire and in process, and a follower that full-syncs again and
// again while its own server answers reads — with every buffer filled
// with a sentinel as it returns to the pool. A reader that uses a value
// after its last reference is gone reads the sentinel, or another
// value's bytes, and every read here must be whole.
func TestReleasedFramesNeverReachAReader(t *testing.T) {
	leaktest.Check(t)
	poisonReleased.Store(true)
	defer poisonReleased.Store(false)
	sizes := []int{100, 11 << 10, 82 << 10}
	const writers, rounds = 2, 60

	leader := NewMemCache()
	srv := NewServer(leader)
	srv.SetShardID(0)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	follower := NewMemCache()
	fsrv, faddr := startLeader(t, follower)
	defer fsrv.Close()

	var keys []string
	for w := 0; w < writers; w++ {
		for _, n := range sizes {
			keys = append(keys, fmt.Sprintf("k/%d/%d", w, n))
		}
	}
	// wholeValue reports whether v is one value put whole: a size put,
	// all one letter.
	wholeValue := func(v []byte) bool {
		for _, n := range sizes {
			if len(v) == n {
				return v[0] >= 'a' && v[0] <= 'z' && bytes.Count(v, v[:1]) == n
			}
		}
		return false
	}
	check := func(who string, v []byte, err error) {
		if errors.As(err, new(ErrNotFound)) {
			return
		}
		if err != nil || !wholeValue(v) {
			t.Errorf("%s: torn or released value (%d bytes, err %v)", who, len(v), err)
		}
	}
	checkN := func(who string, vals [][]byte, err error) {
		if err != nil || len(vals) != len(keys) {
			t.Errorf("%s: %d entries, err %v", who, len(vals), err)
			return
		}
		for _, v := range vals {
			if v != nil {
				check(who, v, nil)
			}
		}
	}
	dial := func(a string) *Client {
		c, err := DialWith(a, DialOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}

	var writing, reading sync.WaitGroup
	done := make(chan struct{})
	lastTerm := make([]int64, writers)
	for w := 0; w < writers; w++ {
		cli := dial(addr)
		defer cli.Close()
		writing.Add(1)
		go func(w int) {
			defer writing.Done()
			for i := 0; i < rounds; i++ {
				for j, n := range sizes {
					key := keys[w*len(sizes)+j]
					for _, c := range []byte{'a' + byte(i%13), 'n' + byte(i%13)} { // put, then overwrite
						if err := cli.Put(key, filled(c, n)); err != nil {
							t.Error(err)
							return
						}
					}
					if i%3 == 2 {
						if err := cli.Delete(key); err != nil {
							t.Error(err)
							return
						}
					}
				}
				term := int64(writers*i + w + 1)
				doc, _ := (&cluster.Topology{Version: int(term), Shards: []cluster.Shard{{ID: 0, Addr: addr, Term: term}}}).Encode()
				if err := cli.Put(cluster.TopologyKey, doc); err != nil {
					t.Error(err)
					return
				}
				lastTerm[w] = term
			}
		}(w)
	}

	reader, freader := dial(addr), dial(faddr)
	defer reader.Close()
	defer freader.Close()
	syncs := 0
	readers := []func(){
		func() {
			for n := 0; ; n++ {
				select {
				case <-done:
					return
				default:
				}
				v, err := reader.Get(keys[n%len(keys)])
				check("wire Get", v, err)
				vals, err := reader.GetN(keys)
				checkN("wire GetN", vals, err)
				doc, err := reader.Get(cluster.TopologyKey)
				if _, derr := cluster.Decode(doc); err == nil && derr != nil {
					t.Errorf("topology read back undecodable: %v", derr)
				}
			}
		},
		func() {
			for n := 0; ; n++ {
				select {
				case <-done:
					return
				default:
				}
				v, err := leader.Get(keys[n%len(keys)])
				check("in-process Get", v, err)
				vals, err := leader.GetN(keys)
				checkN("in-process GetN", vals, err)
			}
		},
		func() { // the follower's server, while its store is reset by full syncs
			for n := 0; ; n++ {
				select {
				case <-done:
					return
				default:
				}
				v, err := freader.Get(keys[n%len(keys)])
				check("follower Get", v, err)
				vals, err := freader.GetN(keys)
				checkN("follower GetN", vals, err)
			}
		},
		func() { // a fresh replica each time: every one opens with a full sync
			for ; ; syncs++ {
				rep := NewReplica(follower, addr, fastReplicaOpts())
				rep.Start()
				for rep.Stats().Records < 8 { // the sync and a few live records
					select {
					case <-done:
						rep.Stop()
						return
					case <-time.After(time.Millisecond):
					}
				}
				rep.Stop()
			}
		},
	}
	for _, r := range readers {
		reading.Add(1)
		go func(r func()) {
			defer reading.Done()
			r()
		}(r)
	}
	writing.Wait()
	close(done)
	reading.Wait()

	if syncs < 2 {
		t.Errorf("the follower full-synced %d times while the writers ran", syncs)
	}
	if want := max(lastTerm[0], lastTerm[1]); srv.term.Load() != want {
		t.Fatalf("leader learned term %d from the topology writes, want %d", srv.term.Load(), want)
	}
}
