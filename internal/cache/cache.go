// Package cache implements Stellaris's Distributed Cache — the
// in-memory key-value buffer (Redis in the paper, §VII) that carries
// trajectories, gradients and policy weights between actors, learner
// functions and the parameter function.
//
// Two implementations share the Cache interface: MemCache, an in-process
// store used by the simulator, and Client, a TCP client speaking a
// small length-prefixed protocol to the standalone server in
// cmd/stellaris-cached (the Redis stand-in). Values are opaque byte
// slices; the Encode*/Decode* helpers in bincodec.go carry the
// structured payloads.
package cache

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// ErrNotFound reports a missing key.
type ErrNotFound struct{ Key string }

func (e ErrNotFound) Error() string { return fmt.Sprintf("cache: key %q not found", e.Key) }

// Cache is the key-value surface shared by the in-process store and the
// network client: bytes under keys, nothing else. Every operation is
// idempotent, so a retry after a lost response is always safe. The TCP
// server inherits its semantics from MemCache, so client and in-process
// behavior match.
type Cache interface {
	// Put stores val under key, replacing any previous value.
	Put(key string, val []byte) error
	// Get returns the value under key or ErrNotFound.
	Get(key string) ([]byte, error)
	// GetInto is Get with the value read into buf's array when cap(buf)
	// holds it, and into fresh memory otherwise. A result in buf is
	// overwritten by the next read into buf; never Recycle a buffer
	// whose bytes are still being read.
	GetInto(key string, buf []byte) ([]byte, error)
	// GetN returns one entry per key, aligned with keys; missing keys
	// yield a nil entry (not an error).
	GetN(keys []string) ([][]byte, error)
	// Delete removes key (no error if absent).
	Delete(key string) error
}

// MemCache is an in-process Cache safe for concurrent use. A MemCache
// opened with NewPersistentMemCache additionally journals every mutation
// to disk (see persist.go); the zero-dir form is purely in-memory.
// Replication streams (replica.go) observe mutations through taps
// registered with attachTap.
//
// Invariant: a stored value is immutable while anyone holds a reference
// to it (see value). A key is overwritten by replacing its value in the
// map, never by writing into it, and the old value's buffer returns to
// the pool only when its last reference is dropped. The server's
// responses (view, viewN), the replication taps and snapshots, and the
// follower's store all share stored values on that guarantee; the
// public Put/Get/GetN keep it by copying in and out, so callers own
// what they pass and receive.
type MemCache struct {
	mu   sync.RWMutex
	data map[string]*value
	p    *persister
	taps map[*tap]struct{}
}

// value is one stored value: its bytes, the pooled buffer they live in,
// and a count of the references to it. The store holds one; every
// reader that uses the bytes after the store's lock is gone (a server
// response until it is written, a replication record until its batch
// is written, an in-process Get while it copies) takes one under the
// lock and drops it when done. The bytes never change while the count
// is above zero; the last release returns buf to the pool.
type value struct {
	b    []byte
	buf  []byte // nil when b is not pool memory: nothing to return
	refs atomic.Int32
}

// newValue wraps b, which lives in buf, with the store's reference.
func newValue(b, buf []byte) *value {
	v := &value{b: b, buf: buf}
	v.refs.Store(1)
	return v
}

// bytes returns the value's bytes; nil for no value.
func (v *value) bytes() []byte {
	if v == nil {
		return nil
	}
	return v.b
}

// retain takes a reference. The caller must already hold one, or hold
// the store's lock while the store holds one.
func (v *value) retain() { v.refs.Add(1) }

// release drops a reference; the last one returns the buffer to the
// pool. A nil value has none to drop.
func (v *value) release() {
	if v != nil && v.refs.Add(-1) == 0 && v.buf != nil {
		putBuf(v.buf)
	}
}

// NewMemCache returns an empty in-process cache.
func NewMemCache() *MemCache {
	return &MemCache{data: make(map[string]*value)}
}

// Put implements Cache. With persistence enabled the append error (if
// any) is returned after the in-memory write: memory stays the source of
// truth for this process, but the caller learns durability was lost.
func (c *MemCache) Put(key string, val []byte) error {
	b, buf := storeBuf(len(val))
	copy(b, val)
	return c.putOwned(key, b, buf)
}

// putOwned stores val itself rather than a copy. val lives in buf, a
// buffer from the pool (or nil when val is not pool memory), and the
// store takes both over: the caller must never write to, pool or reuse
// either again. buf returns to the pool when the value is deleted or
// overwritten and its last reader is done.
func (c *MemCache) putOwned(key string, val, buf []byte) error {
	v := newValue(val, buf)
	c.mu.Lock()
	old := c.data[key]
	c.data[key] = v
	err := c.logLocked(aofPut, key, v)
	c.mu.Unlock()
	old.release()
	return err
}

// Get implements Cache.
func (c *MemCache) Get(key string) ([]byte, error) { return c.GetInto(key, nil) }

// GetInto implements Cache, copying the value out of the store.
func (c *MemCache) GetInto(key string, buf []byte) ([]byte, error) {
	v := c.view(key)
	if v == nil {
		return nil, ErrNotFound{Key: key}
	}
	out := sized(buf, len(v.b))
	copy(out, v.b)
	v.release()
	return out, nil
}

// view returns the stored value with a reference the caller must
// release once it no longer reads the bytes; nil when key is absent.
func (c *MemCache) view(key string) *value {
	c.mu.RLock()
	v := c.data[key]
	if v != nil {
		v.retain()
	}
	c.mu.RUnlock()
	return v
}

// Delete implements Cache.
func (c *MemCache) Delete(key string) error {
	c.mu.Lock()
	old := c.data[key]
	delete(c.data, key)
	err := c.logLocked(aofDelete, key, nil)
	c.mu.Unlock()
	old.release()
	return err
}

// Keys returns all keys with the given prefix, sorted: a store's key
// space as a test reads it. It is not an op on the wire.
func (c *MemCache) Keys(prefix string) ([]string, error) { //lint:allow reach inspection accessor: internal/live's tests list what a run leaves in the store
	c.mu.RLock()
	var out []string
	for k := range c.data {
		if strings.HasPrefix(k, prefix) {
			out = append(out, k)
		}
	}
	c.mu.RUnlock()
	sort.Strings(out)
	return out, nil
}

// Len implements Cache.
func (c *MemCache) Len() (int, error) { //lint:allow reach benchmark-only: benchmark/tier.go reads it
	c.mu.RLock()
	n := len(c.data)
	c.mu.RUnlock()
	return n, nil
}

// resetForSync clears the whole store at the head of a replication
// full-sync, discarding whatever stale state a follower carried over
// from a previous leader. A persistent store compacts to an empty
// snapshot rather than journaling the reset.
func (c *MemCache) resetForSync() error {
	c.mu.Lock()
	old := c.data
	c.data = make(map[string]*value)
	c.tapLocked(aofReset, "", nil)
	var err error
	if c.p != nil {
		if err = c.p.compact(c.data); err != nil {
			err = fmt.Errorf("cache: compact after sync reset: %w", err)
		}
	}
	c.mu.Unlock()
	for _, v := range old {
		v.release()
	}
	return err
}

// ---- replication taps ----

// tapRec is one mutation on its way to a follower. val is the stored
// value itself, not a copy, with a reference the record holds until
// the stream goroutine has written it: the stream frames and checksums
// the record outside the store's lock.
type tapRec struct {
	op  byte
	key string
	val *value
}

// tap feeds mutation records to one replication stream. Sends happen
// under c.mu, in mutation order; a full channel marks the tap dead and
// closes it, forcing the slow follower to reconnect and full-resync
// rather than silently diverge.
type tap struct {
	ch   chan tapRec
	dead bool
}

// replTapBuffer is the per-follower backlog tolerated before the tap is
// killed. Sized so a follower a network round-trip behind survives a
// burst, while a wedged one is cut loose quickly.
const replTapBuffer = 1024

// attachTap atomically snapshots the store as a sequence of records
// (reset, then a put per key) and registers a live tap that will
// observe every mutation after the snapshot. The handoff happens under
// one lock acquisition, so no mutation is lost or duplicated between
// snapshot and stream — and it is short: the snapshot shares the stored
// values, a reference each, so attaching costs O(keys) under the lock,
// not O(bytes).
func (c *MemCache) attachTap() (snapshot []tapRec, t *tap) {
	c.mu.Lock()
	defer c.mu.Unlock()
	snapshot = make([]tapRec, 0, 1+len(c.data))
	snapshot = append(snapshot, tapRec{op: aofReset})
	for k, v := range c.data {
		v.retain()
		snapshot = append(snapshot, tapRec{op: aofPut, key: k, val: v})
	}
	t = &tap{ch: make(chan tapRec, replTapBuffer)}
	if c.taps == nil {
		c.taps = make(map[*tap]struct{})
	}
	c.taps[t] = struct{}{}
	return snapshot, t
}

// detachTap unregisters t, safe to call after an overflow already
// killed it, and drops the references of the records it still buffers.
func (c *MemCache) detachTap(t *tap) {
	c.mu.Lock()
	if _, ok := c.taps[t]; ok {
		delete(c.taps, t)
		if !t.dead {
			t.dead = true
			close(t.ch)
		}
	}
	c.mu.Unlock()
	for rec := range t.ch {
		rec.val.release()
	}
}

// tapLocked fans one mutation out to every live tap; called with c.mu
// held (which is what makes close-after-overflow safe: no sender can
// race the close). val is shared read-only, never copied: each record
// sent carries a reference of its own.
func (c *MemCache) tapLocked(op byte, key string, val *value) {
	rec := tapRec{op: op, key: key, val: val}
	for t := range c.taps {
		if t.dead {
			continue
		}
		if val != nil {
			val.retain()
		}
		select {
		case t.ch <- rec:
		default:
			val.release()
			// Follower too far behind: kill the tap. Its stream ends,
			// the connection drops, and the reconnect does a full
			// resync — bounded memory here beats unbounded divergence
			// there.
			t.dead = true
			close(t.ch)
			delete(c.taps, t)
		}
	}
}
