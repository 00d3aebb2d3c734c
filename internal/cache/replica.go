package cache

// Follower replication for the cache tier (DESIGN.md §11.2). A Replica
// attaches a local MemCache to a leader stellaris-cached process and
// mirrors its keyspace: on every (re)connect it sends op 'R', receives
// an atomic full-state snapshot (reset record, then a put per key),
// and then applies the live mutation feed record by record.
// Each record is CRC-framed (scanRecord below), so a torn or corrupt
// record ends the stream instead of reaching the follower's store.
//
// The failure model is crash-stop with promotion by redirection: when
// the leader dies, clients (ShardedClient) start writing to the
// follower's own server address; nothing has to be flipped on the
// follower itself, because it was serving its (replicated) store all
// along. Promote only stops the replication loop so a resurrected old
// leader cannot reset the promoted store with a stale full sync.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"sync"
	"time"

	"stellaris/internal/obs"
	"stellaris/internal/rng"
	"stellaris/internal/wire"
)

// Record ops: the mutations a replication stream carries.
const (
	recPut    byte = 'P'
	recDelete byte = 'D'
	// recReset clears the entire store. It opens every full sync: the
	// follower may hold stale state from a previous leader.
	recReset byte = 'S'
)

// A record, the replication stream's payload, is CRC-framed:
// u32 bodyLen | body | u32 CRC-32(body), body = u8 op | u32 keyLen |
// key | u32 valLen | val, every integer little-endian.

// appendRecordHeader appends everything of a record that precedes its
// value; the replication stream sends the value from the store's own
// slice (frameWriter.record) instead of copying it behind the header.
func appendRecordHeader(b []byte, op byte, key string, valLen int) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(1+4+len(key)+4+valLen))
	b = append(b, op)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(key)))
	b = append(b, key...)
	return binary.LittleEndian.AppendUint32(b, uint32(valLen))
}

// recordSize is the encoded size of a record.
func recordSize(key string, val []byte) int { return 4 + 1 + 4 + len(key) + 4 + len(val) + 4 }

// scanRecord parses the CRC-framed record at the start of b. It returns
// the bytes consumed, or n == 0 when b does not start with a complete,
// checksum-valid record — torn tail and corruption look the same to the
// caller, which is the point: the follower stops trusting the stream
// there. The returned key and val alias b; callers that retain them
// must copy.
func scanRecord(b []byte) (op byte, key []byte, val []byte, n int) {
	r := wire.NewReader(b)
	body := r.Bytes(r.Count(1))
	sum := r.U32()
	if r.Err() != nil || len(body) > maxFrame || crc32.ChecksumIEEE(body) != sum {
		return 0, nil, nil, 0
	}
	br := wire.NewReader(body)
	op = br.U8()
	key = br.Bytes(br.Count(1))
	val = br.Bytes(br.Count(1))
	if br.Finish() != nil {
		return 0, nil, nil, 0
	}
	return op, key, val, 4 + len(body) + 4
}

// ErrReplicaClosed reports an operation on a stopped Replica.
var ErrReplicaClosed = errors.New("cache: replica stopped")

// replicaDialTimeout bounds each connect attempt to the leader.
const replicaDialTimeout = 5 * time.Second

// ReplicaOptions tunes the follower's reconnect policy. The zero value
// selects defaults suitable for a LAN deployment.
type ReplicaOptions struct {
	// ReadTimeout is the longest silence tolerated on the stream before
	// the leader is declared dead; the leader keepalives every 250ms, so
	// this is effectively the failure-detection latency. Default 2s.
	ReadTimeout time.Duration //lint:allow reach test seam: the cache and live replication tests shorten failure detection
	// BackoffBase/BackoffMax shape the reconnect backoff (exponential
	// with ±50% jitter). Defaults 50ms and 2s.
	BackoffBase time.Duration //lint:allow reach test seam: the cache and live replication tests shorten the reconnect schedule
	BackoffMax  time.Duration //lint:allow reach test seam: the cache and live replication tests shorten the reconnect schedule
	// Seed drives the jitter RNG.
	Seed uint64
}

func (o ReplicaOptions) withDefaults() ReplicaOptions {
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
	conn, err := net.DialTimeout("tcp", r.leader, replicaDialTimeout)
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
	return op == recPut, r.applyRecord(op, string(kb), val, buf)
}

// applyRecord applies one replicated mutation record to the follower's
// store through the same mutation surface clients use, so the store's
// own taps see what it mirrors. val lives in buf, a pool buffer (or
// nil), and a put hands both to the store: the caller must not touch
// either again.
func (r *Replica) applyRecord(op byte, key string, val, buf []byte) error {
	switch op {
	case recReset:
		r.store.resetForSync()
	case recPut:
		r.store.putOwned(key, val, buf)
	case recDelete:
		return r.store.Delete(key)
	default:
		return fmt.Errorf("cache: replication: unknown record op %q", op)
	}
	return nil
}
