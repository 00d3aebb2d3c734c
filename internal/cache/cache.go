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
	// Delete removes key (no error if absent).
	Delete(key string) error
	// Keys returns all keys with the given prefix, sorted.
	Keys(prefix string) ([]string, error)
	// Len returns the number of stored keys.
	Len() (int, error)
}

// MemCache is an in-process Cache safe for concurrent use. A MemCache
// opened with NewPersistentMemCache additionally journals every mutation
// to disk (see persist.go); the zero-dir form is purely in-memory.
// Replication streams (replica.go) observe mutations through taps
// registered with attachTap.
//
// Invariant: a stored value is immutable. A key is overwritten by
// replacing its slice in the map, never by writing into it, so the
// slice a reader obtained under the lock stays valid and unchanged
// after the lock is released. The server's responses (view), the
// replication taps and snapshots, and the follower's store all share
// stored slices on that guarantee; the public Put/PutN/Get/GetN keep
// it by copying in and out, so callers own what they pass and receive.
type MemCache struct {
	mu   sync.RWMutex
	data map[string][]byte
	p    *persister
	taps map[*tap]struct{}
}

// NewMemCache returns an empty in-process cache.
func NewMemCache() *MemCache {
	return &MemCache{data: make(map[string][]byte)}
}

// Put implements Cache. With persistence enabled the append error (if
// any) is returned after the in-memory write: memory stays the source of
// truth for this process, but the caller learns durability was lost.
func (c *MemCache) Put(key string, val []byte) error {
	cp := make([]byte, len(val))
	copy(cp, val)
	return c.putOwned(key, cp)
}

// putOwned stores val itself rather than a copy: the caller gives the
// slice up and must never write to, pool or reuse its memory again
// (see the immutability invariant on MemCache).
func (c *MemCache) putOwned(key string, val []byte) error {
	c.mu.Lock()
	c.data[key] = val
	err := c.logLocked(aofPut, key, val)
	c.mu.Unlock()
	return err
}

// Get implements Cache.
func (c *MemCache) Get(key string) ([]byte, error) {
	v, ok := c.view(key)
	if !ok {
		return nil, ErrNotFound{Key: key}
	}
	cp := make([]byte, len(v))
	copy(cp, v)
	return cp, nil
}

// view returns the stored slice itself, for readers that only read it.
func (c *MemCache) view(key string) ([]byte, bool) {
	c.mu.RLock()
	v, ok := c.data[key]
	c.mu.RUnlock()
	return v, ok
}

// Delete implements Cache.
func (c *MemCache) Delete(key string) error {
	c.mu.Lock()
	delete(c.data, key)
	err := c.logLocked(aofDelete, key, nil)
	c.mu.Unlock()
	return err
}

// Keys implements Cache.
func (c *MemCache) Keys(prefix string) ([]string, error) {
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
func (c *MemCache) Len() (int, error) {
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
	defer c.mu.Unlock()
	c.data = make(map[string][]byte)
	c.tapLocked(aofReset, "", nil)
	if c.p == nil {
		return nil
	}
	if err := c.p.compact(c.data); err != nil {
		return fmt.Errorf("cache: compact after sync reset: %w", err)
	}
	return nil
}

// ---- replication taps ----

// tapRec is one mutation on its way to a follower. val is the stored
// slice itself (immutable, see MemCache), not a copy; the stream
// goroutine frames and checksums the record outside the store's lock.
type tapRec struct {
	op  byte
	key string
	val []byte
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
// slices, so attaching costs O(keys) under the lock, not O(bytes).
func (c *MemCache) attachTap() (snapshot []tapRec, t *tap) {
	c.mu.Lock()
	defer c.mu.Unlock()
	snapshot = make([]tapRec, 0, 1+len(c.data))
	snapshot = append(snapshot, tapRec{op: aofReset})
	for k, v := range c.data {
		snapshot = append(snapshot, tapRec{op: aofPut, key: k, val: v})
	}
	t = &tap{ch: make(chan tapRec, replTapBuffer)}
	if c.taps == nil {
		c.taps = make(map[*tap]struct{})
	}
	c.taps[t] = struct{}{}
	return snapshot, t
}

// detachTap unregisters t; safe to call after an overflow already
// killed it.
func (c *MemCache) detachTap(t *tap) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.taps[t]; !ok {
		return
	}
	delete(c.taps, t)
	if !t.dead {
		t.dead = true
		close(t.ch)
	}
}

// tapLocked fans one mutation out to every live tap; called with c.mu
// held (which is what makes close-after-overflow safe: no sender can
// race the close). val is shared read-only, never copied.
func (c *MemCache) tapLocked(op byte, key string, val []byte) {
	rec := tapRec{op: op, key: key, val: val}
	for t := range c.taps {
		if t.dead {
			continue
		}
		select {
		case t.ch <- rec:
		default:
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
