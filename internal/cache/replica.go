package cache

// Follower replication for the cache tier (DESIGN.md §11.2). A Replica
// attaches a local MemCache to a leader stellaris-cached process and
// mirrors its keyspace: on every (re)connect it sends op 'R', receives
// an atomic full-state snapshot (reset record, then a put per key),
// and then applies the live mutation feed record by record.
// Records reuse the AOF's CRC framing (persist.go), so what a follower
// applies is byte-for-byte what a crash recovery would replay.
//
// The failure model is crash-stop with promotion by redirection: when
// the leader dies, clients (ShardedClient) start writing to the
// follower's own server address; nothing has to be flipped on the
// follower itself, because it was serving its (replicated) store all
// along. Promote only stops the replication loop so a resurrected old
// leader cannot reset the promoted store with a stale full sync.

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"stellaris/internal/obs"
	"stellaris/internal/rng"
)

// ErrReplicaClosed reports an operation on a stopped Replica.
var ErrReplicaClosed = errors.New("cache: replica stopped")

// ReplicaOptions tunes the follower's reconnect policy. The zero value
// selects defaults suitable for a LAN deployment.
type ReplicaOptions struct {
	// DialTimeout bounds each connect attempt to the leader. Default 5s.
	DialTimeout time.Duration
	// ReadTimeout is the longest silence tolerated on the stream before
	// the leader is declared dead; the leader keepalives every 250ms, so
	// this is effectively the failure-detection latency. Default 2s.
	ReadTimeout time.Duration
	// BackoffBase/BackoffMax shape the reconnect backoff (exponential
	// with ±50% jitter). Defaults 50ms and 2s.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Seed drives the jitter RNG.
	Seed uint64
}

func (o ReplicaOptions) withDefaults() ReplicaOptions {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.ReadTimeout <= 0 {
		o.ReadTimeout = 2 * time.Second
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = 50 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = 2 * time.Second
	}
	return o
}

// ReplicaStats counts replication progress. All fields are monotone and
// safe to read concurrently.
type ReplicaStats struct {
	// FullSyncs counts full syncs started: one per connect on which the
	// subscribe request went out, the first connect included. The
	// snapshot that follows may still be cut short; wait on the store's
	// contents, not on this, to know a sync has landed.
	FullSyncs int64
	// Records counts mutation records applied, snapshot records included.
	Records int64
	// Reconnects counts connects after the first, i.e. recoveries from a
	// broken stream.
	Reconnects int64
}

// Replica streams a leader's keyspace into store. Create with
// NewReplica, start with Start, stop with Promote (or Stop).
type Replica struct {
	store  *MemCache
	leader string
	opts   ReplicaOptions

	mu     sync.Mutex
	conn   net.Conn
	closed bool
	jitter *rng.RNG

	wg        sync.WaitGroup
	stopping  chan struct{}
	fullSyncs obs.Counter
	records   obs.Counter
	reconns   obs.Counter
}

// NewReplica prepares (but does not start) replication of leaderAddr
// into store. The store may simultaneously be served by this process's
// own Server — that is the normal follower deployment, and what makes
// promotion a pure client-side redirect.
func NewReplica(store *MemCache, leaderAddr string, opts ReplicaOptions) *Replica {
	opts = opts.withDefaults()
	return &Replica{
		store:    store,
		leader:   leaderAddr,
		opts:     opts,
		jitter:   rng.New(opts.Seed ^ 0xf0110e7), // "follower"
		stopping: make(chan struct{}),
	}
}

// Start launches the replication loop: connect, full-sync, apply the
// live feed, reconnect with backoff on any failure, forever until
// Promote/Stop.
func (r *Replica) Start() {
	r.wg.Add(1)
	go r.loop()
}

// Stats returns replication progress counters.
func (r *Replica) Stats() ReplicaStats {
	return ReplicaStats{
		FullSyncs:  r.fullSyncs.Value(),
		Records:    r.records.Value(),
		Reconnects: r.reconns.Value(),
	}
}

// Promote stops replicating and returns once the loop has exited,
// leaving the store frozen at the last applied record. Call it when
// clients are being redirected here: a promoted store must never again
// accept a full sync, or a resurrected old leader would reset it —
// discarding every write the promoted follower has accepted since.
// Idempotent.
func (r *Replica) Promote() { r.stop() }

// Stop is Promote without the operational connotation — for plain
// shutdown paths.
func (r *Replica) Stop() { r.stop() }

func (r *Replica) stop() {
	r.mu.Lock()
	if !r.closed {
		r.closed = true
		close(r.stopping)
		if r.conn != nil {
			_ = r.conn.Close()
		}
	}
	r.mu.Unlock()
	r.wg.Wait()
}

func (r *Replica) loop() {
	defer r.wg.Done()
	for attempt := 0; ; attempt++ {
		if r.isClosed() {
			return
		}
		if attempt > 0 {
			r.reconns.Inc()
			if !r.sleep(r.backoff(attempt)) {
				return
			}
		}
		// Errors are expected operating conditions here (leader down,
		// leader bounced, stream cut): the loop IS the error handler, so
		// individual failures are not surfaced beyond the stats.
		_ = r.syncOnce()
	}
}

func (r *Replica) isClosed() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.closed
}

// sleep waits d or until stop, reporting whether the loop should
// continue.
func (r *Replica) sleep(d time.Duration) bool {
	select {
	case <-time.After(d):
		return true
	case <-r.stopping:
		return false
	}
}

func (r *Replica) backoff(attempt int) time.Duration {
	d := r.opts.BackoffBase << uint(attempt-1)
	if d > r.opts.BackoffMax || d <= 0 {
		d = r.opts.BackoffMax
	}
	r.mu.Lock()
	j := r.jitter.Float64()
	r.mu.Unlock()
	return time.Duration((0.5 + j) * float64(d))
}

// syncOnce runs one full connect → snapshot → live-feed cycle and
// returns when the stream breaks (or the replica is stopped).
func (r *Replica) syncOnce() error {
	conn, err := net.DialTimeout("tcp", r.leader, r.opts.DialTimeout)
	if err != nil {
		return err
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		_ = conn.Close()
		return ErrReplicaClosed
	}
	r.conn = conn
	r.mu.Unlock()
	defer func() {
		r.mu.Lock()
		if r.conn == conn {
			r.conn = nil
		}
		r.mu.Unlock()
		_ = conn.Close()
	}()

	if err := writeFrame(conn, 'R', "", nil); err != nil {
		return err
	}
	r.fullSyncs.Inc()
	// The leader batches records into one write; read them back in as
	// few reads. A record larger than the buffer bypasses it (bufio
	// reads straight into readResp's frame).
	br := bufio.NewReaderSize(conn, 1<<16)
	for {
		if err := conn.SetReadDeadline(time.Now().Add(r.opts.ReadTimeout)); err != nil {
			return err
		}
		status, n, err := readRespHead(br)
		if err != nil {
			return err
		}
		if n == 0 && status == '+' {
			continue // keepalive
		}
		// A record's frame becomes the stored value: it comes from
		// storeBuf, and goes back to the pool unless a put keeps it.
		payload, buf := storeBuf(n)
		if _, err := io.ReadFull(br, payload); err != nil {
			putBuf(buf)
			return err
		}
		kept, err := r.applyFrame(status, payload, buf)
		if !kept {
			putBuf(buf)
		}
		if err != nil {
			return err
		}
		r.records.Inc()
	}
}

// applyFrame applies the record in one frame of the stream. It reports
// whether the store kept buf, the payload's pool buffer (or nil); if
// not, the caller returns it to the pool.
func (r *Replica) applyFrame(status byte, payload, buf []byte) (kept bool, err error) {
	if status != '+' {
		// '!' means the leader predates replication (or refused);
		// retrying cannot help, but the loop's backoff makes the
		// repeated failure cheap and a later leader upgrade heals it.
		return false, fmt.Errorf("cache: leader %s refused replication: %s", r.leader, payload)
	}
	op, kb, val, n := scanRecord(payload)
	if n == 0 || n != len(payload) {
		return false, fmt.Errorf("cache: replication stream from %s: corrupt record (%d bytes)", r.leader, len(payload))
	}
	return op == aofPut, r.applyRecord(op, string(kb), val, buf)
}

// ApplyRecord applies one replicated mutation record to the follower's
// store through the same mutation surface clients use, so a persistent
// follower journals everything it mirrors and its own crash recovery
// stays coherent. It takes ownership of val: a put stores the slice
// itself, so the caller must not touch it again.
func (r *Replica) ApplyRecord(op byte, key string, val []byte) error {
	return r.applyRecord(op, key, val, nil)
}

// applyRecord is ApplyRecord for a val that lives in buf, a pool buffer
// (or nil): a put hands both to the store.
func (r *Replica) applyRecord(op byte, key string, val, buf []byte) error {
	switch op {
	case aofReset:
		return r.store.resetForSync()
	case aofPut:
		return r.store.putOwned(key, val, buf)
	case aofDelete:
		return r.store.Delete(key)
	default:
		return fmt.Errorf("cache: replication: unknown record op %q", op)
	}
}
