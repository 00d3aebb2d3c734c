package cache

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"stellaris/internal/leaktest"
)

func TestHeartbeatRegistersAndBeats(t *testing.T) {
	leaktest.Check(t)
	mc := NewMemCache()
	hb := StartHeartbeat(mc, Instance{
		ID: "w0", Role: "cached", Addr: "127.0.0.1:9100", CacheAddr: "127.0.0.1:7000", Shard: 0, PID: 42,
	}, 5*time.Millisecond)
	defer hb.Stop() // a failure below must not leak the loop into later tests

	// Registration is synchronous: visible before StartHeartbeat returns.
	b, err := mc.Get(InstanceKey("w0"))
	if err != nil {
		t.Fatalf("registration missing: %v", err)
	}
	in, err := DecodeInstance(b)
	if err != nil || in.ID != "w0" || in.Beat < 1 {
		t.Fatalf("decoded %+v, %v", in, err)
	}
	if in.TTLSec != 3*(5*time.Millisecond).Seconds() {
		t.Fatalf("TTLSec default = %v", in.TTLSec)
	}

	// The beat counter advances on its own. beat() counts a beat just
	// after its Put returns, so the stored Beat can lead Beats() by one
	// for a moment: wait for both.
	deadline := time.Now().Add(2 * time.Second)
	for {
		b, _ = mc.Get(InstanceKey("w0"))
		cur, _ := DecodeInstance(b)
		if cur.Beat >= in.Beat+3 && hb.Beats() >= 4 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("beat stuck at %d, beats=%d", cur.Beat, hb.Beats())
		}
		time.Sleep(2 * time.Millisecond)
	}
	if hb.Errs() != 0 {
		t.Fatalf("beats=%d errs=%d", hb.Beats(), hb.Errs())
	}

	// Stop deregisters and is idempotent.
	hb.Stop()
	hb.Stop()
	if _, err := mc.Get(InstanceKey("w0")); !errors.As(err, &ErrNotFound{}) {
		t.Fatalf("registration survived Stop: %v", err)
	}
}

func TestHeartbeatSurvivesPutFailures(t *testing.T) {
	leaktest.Check(t)
	fc := newFlakyCache()
	fc.setFail(true)
	hb := StartHeartbeat(fc, Instance{ID: "w1", Role: "train", Addr: "a", Shard: -1}, 2*time.Millisecond)
	deadline := time.Now().Add(2 * time.Second)
	for hb.Errs() < 2 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if hb.Errs() < 2 {
		t.Fatal("failed puts not counted")
	}
	// Writes recover once the cache does.
	fc.setFail(false)
	for hb.Beats() < 1 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	hb.Stop()
	if hb.Beats() < 1 {
		t.Fatal("heartbeat never recovered after cache came back")
	}
}

func TestReadInstancesSkipsGarbage(t *testing.T) {
	mc := NewMemCache()
	if err := mc.Put(InstanceKey("ok"), []byte(`{"id":"ok","role":"train","addr":"a","beat":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := mc.Put(InstanceKey("junk"), []byte(`{not json`)); err != nil {
		t.Fatal(err)
	}
	if err := mc.Put(InstanceKey("anon"), []byte(`{"role":"noid"}`)); err != nil {
		t.Fatal(err)
	}
	out, err := ReadInstances(mc)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].ID != "ok" {
		t.Fatalf("ReadInstances = %+v", out)
	}
}

// flakyCache is a MemCache whose Puts can be switched to fail, for
// exercising heartbeat best-effort semantics.
type flakyCache struct {
	*MemCache
	fail atomic.Bool
}

func newFlakyCache() *flakyCache { return &flakyCache{MemCache: NewMemCache()} }

func (f *flakyCache) setFail(v bool) { f.fail.Store(v) }

func (f *flakyCache) Put(k string, v []byte) error {
	if f.fail.Load() {
		return errors.New("flaky: put refused")
	}
	return f.MemCache.Put(k, v)
}
