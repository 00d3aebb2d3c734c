package cache

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"stellaris/internal/obs"
	"stellaris/internal/obs/lineage"
	"stellaris/internal/rng"
)

// ErrClientClosed reports an operation on a Close()d client.
var ErrClientClosed = errors.New("cache: client closed")

// TransportError reports an operation that exhausted its retry budget
// on transport failures (dial, write, deadline, garbled response) —
// i.e. the server at this address is unreachable or unusable, as
// opposed to reachable-but-refusing (status-level errors never wear
// this type). ShardedClient keys its failover decision on it: only a
// TransportError justifies promoting a shard's follower.
type TransportError struct {
	Op       byte
	Key      string
	Attempts int
	Err      error
}

func (e *TransportError) Error() string {
	return fmt.Sprintf("cache: op %q key %q failed after %d attempts: %v",
		e.Op, e.Key, e.Attempts, e.Err)
}

func (e *TransportError) Unwrap() error { return e.Err }

// Conn is the client-side surface live workers program against: the
// Cache ops plus fault-tolerance stats and lifecycle. Implemented by
// *Client (one server) and *ShardedClient (a cluster of them).
type Conn interface {
	Cache
	// Stats returns the fault-tolerance counters accumulated so far.
	Stats() ClientStats //lint:allow reach benchmark-only: benchmark/tier.go and cachemix.go read it
	// Close releases the connection(s).
	Close() error
}

// DialOptions tunes the client's fault-tolerance policy. The zero value
// selects production defaults (see constants below); set a field
// negative to disable it where that is meaningful.
type DialOptions struct {
	// DialTimeout bounds each TCP connect attempt (initial dial and
	// reconnects). Default 5s.
	DialTimeout time.Duration //lint:allow reach test seam: the cache and live tests shorten it to fail fast on a dead address
	// OpTimeout is the per-round-trip deadline, applied with
	// SetDeadline before every request. Default 5s; negative disables
	// deadlines entirely.
	OpTimeout time.Duration
	// Attempts is the total number of tries per operation (first try
	// included). Only transport errors are retried — ErrNotFound and
	// server '!' responses return immediately. Default 4; 1 disables
	// retries.
	Attempts int
	// BackoffBase is the sleep before the first retry; each further
	// retry doubles it up to BackoffMax, with ±50% jitter. Defaults
	// 10ms and 1s.
	BackoffBase time.Duration //lint:allow reach test seam: the cache and live tests shorten the retry schedule
	BackoffMax  time.Duration //lint:allow reach test seam: the cache and live tests shorten the retry schedule
	// Seed drives the jitter RNG so retry schedules are reproducible.
	Seed uint64
	// Obs mirrors the client's fault-tolerance events and per-op
	// latencies into a shared metrics registry (families are aggregated
	// across every client dialed with the same registry, and
	// RegistryStats reads them back). Nil disables registry exposition;
	// per-client Stats always work.
	Obs *obs.Registry
	// Lineage, when set, records a put/fetched hop into the shared
	// lineage store for every successful Put/Get of a data key (traj/ or
	// grad/ prefix) — the client-side view of the artifact crossing the
	// cache boundary. LineageName labels those events with the worker
	// driving this client ("actor/0#1").
	Lineage     *lineage.Store
	LineageName string
}

const (
	defaultDialTimeout = 5 * time.Second
	defaultOpTimeout   = 5 * time.Second
	defaultAttempts    = 4
	defaultBackoffBase = 10 * time.Millisecond
	defaultBackoffMax  = time.Second
)

func (o DialOptions) withDefaults() DialOptions {
	if o.DialTimeout == 0 {
		o.DialTimeout = defaultDialTimeout
	}
	if o.OpTimeout == 0 {
		o.OpTimeout = defaultOpTimeout
	}
	if o.Attempts <= 0 {
		o.Attempts = defaultAttempts
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = defaultBackoffBase
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = defaultBackoffMax
	}
	return o
}

// ClientStats counts fault-tolerance events since Dial. All fields are
// monotone and safe to read concurrently (and after Close).
type ClientStats struct {
	// Retries counts round trips re-attempted after a transport error.
	Retries int64
	// Reconnects counts connections re-established after the shared
	// connection was poisoned by an I/O error.
	Reconnects int64
	// Timeouts counts round trips that hit the OpTimeout deadline.
	Timeouts int64
}

// Client is a Cache backed by a remote Server. Safe for concurrent use;
// requests serialize over one connection. Transport errors poison the
// connection, which is transparently re-dialed on the next attempt;
// each operation retries per the DialOptions policy with exponential
// backoff and jitter.
type Client struct {
	addr string
	opts DialOptions

	mu     sync.Mutex
	conn   net.Conn
	br     *bufio.Reader
	fw     frameWriter // writes to conn; its staging buffer outlives reconnects
	jitter *rng.RNG
	closed bool

	// Per-client fault-tolerance counters backing Stats (obs primitives
	// so the same values can feed exposition).
	retries    obs.Counter
	reconnects obs.Counter
	timeouts   obs.Counter
	m          *clientMetrics
}

// clientEventsFamily counts every client's fault-tolerance events by
// kind; RegistryStats sums it.
const clientEventsFamily = "cache_client_events_total"

// clientMetrics is the client's view into a shared obs registry.
type clientMetrics struct {
	events    *obs.CounterVec      // cache_client_events_total{event}
	opSeconds perOp[obs.Histogram] // cache_client_op_seconds{op}
}

// request is one protocol request as the client states it; the frame
// around it is built by frameWriter.request on every attempt, straight
// into the connection's staging buffer, with the value left where the
// caller has it.
type request struct {
	op   byte // the operation; for a fenced write, the one inside the envelope
	key  string
	term int64  // nonzero: send as a 'T' envelope stamped with this shard term
	val  []byte // the value field
	into []byte // where the response payload lands when it fits (readResp)
}

// wireOp is the opcode the frame carries.
func (r request) wireOp() byte {
	if r.term != 0 {
		return 'T'
	}
	return r.op
}

// DialWith connects to a cache server with an explicit fault-tolerance
// policy. The initial connect is eager so configuration errors surface
// immediately; it is not retried.
func DialWith(addr string, opts DialOptions) (*Client, error) {
	opts = opts.withDefaults()
	c := &Client{
		addr:   addr,
		opts:   opts,
		jitter: rng.New(opts.Seed ^ 0x5ca1ab1e),
	}
	if opts.Obs != nil {
		c.m = &clientMetrics{
			events:    opts.Obs.CounterVec(clientEventsFamily, "fault-tolerance events across clients", "event"),
			opSeconds: perOp[obs.Histogram]{with: opts.Obs.HistogramVec("cache_client_op_seconds", "full round-trip latency (incl. retries) by opcode", obs.LatencyBuckets, "op").With},
		}
	}
	conn, err := net.DialTimeout("tcp", addr, opts.DialTimeout)
	if err != nil {
		return nil, err
	}
	c.attach(conn)
	return c, nil
}

// attach installs conn as the client's live connection. Callers hold
// c.mu (or are the constructor, before the client escapes).
func (c *Client) attach(conn net.Conn) {
	c.conn = conn
	c.br = bufio.NewReaderSize(conn, 1<<16)
	c.fw.w = conn
}

// dropConn poisons the current connection so the next attempt redials.
// Callers hold c.mu.
func (c *Client) dropConn() {
	if c.conn != nil {
		_ = c.conn.Close()
		c.conn = nil
		c.br, c.fw.w = nil, nil
	}
}

// Close releases the connection. Safe to call concurrently with
// in-flight operations and more than once; operations issued after
// Close fail with ErrClientClosed.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	var err error
	if c.conn != nil {
		err = c.conn.Close()
		c.conn = nil
		c.br, c.fw.w = nil, nil
	}
	return err
}

// Stats returns the fault-tolerance counters accumulated so far.
func (c *Client) Stats() ClientStats { //lint:allow reach benchmark-only: benchmark/tier.go and cachemix.go read it
	return ClientStats{
		Retries:    c.retries.Value(),
		Reconnects: c.reconnects.Value(),
		Timeouts:   c.timeouts.Value(),
	}
}

// event bumps one fault-tolerance counter and its registry mirror.
func (c *Client) event(counter *obs.Counter, name string) {
	counter.Inc()
	if c.m != nil {
		c.m.events.With(name).Inc()
	}
}

// roundTrip performs one request/response exchange with reconnect and
// retry. Status-level outcomes ('-' not found, '!' server error) are
// returned to the caller without retrying; only transport failures
// (dial, write, deadline, short/garbled response) burn attempts.
func (c *Client) roundTrip(req request) (byte, []byte, error) {
	if c.m != nil {
		h, start := c.m.opSeconds.of(req.wireOp()), time.Now()
		defer func() { h.Observe(time.Since(start).Seconds()) }()
	}
	var lastErr error
	for attempt := 0; attempt < c.opts.Attempts; attempt++ {
		if attempt > 0 {
			c.event(&c.retries, "retry")
			// Sleep with the mutex released: holding it through the
			// backoff schedule would stall every concurrent operation —
			// and Close — behind this op's outage. Only the jitter RNG
			// needs the lock.
			c.mu.Lock()
			d := c.backoff(attempt)
			c.mu.Unlock()
			time.Sleep(d)
		}
		status, payload, err := c.attempt(req)
		if err == nil {
			return status, payload, nil
		}
		if errors.Is(err, ErrClientClosed) {
			return 0, nil, err
		}
		lastErr = err
	}
	return 0, nil, &TransportError{Op: req.wireOp(), Key: req.key, Attempts: c.opts.Attempts, Err: lastErr}
}

// attempt performs a single reconnect-if-needed + exchange. The TCP
// dial happens with the mutex RELEASED: holding it through DialTimeout
// against an unresponsive server would wedge every concurrent operation
// — and Close — for up to the full dial timeout. Only the exchange
// itself (one atomic request/response on the shared connection) runs
// under the lock.
func (c *Client) attempt(req request) (byte, []byte, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return 0, nil, ErrClientClosed
	}
	needDial := c.conn == nil
	c.mu.Unlock()

	if needDial {
		conn, err := net.DialTimeout("tcp", c.addr, c.opts.DialTimeout)
		if err != nil {
			return 0, nil, err
		}
		c.mu.Lock()
		switch {
		case c.closed:
			c.mu.Unlock()
			_ = conn.Close()
			return 0, nil, ErrClientClosed
		case c.conn == nil:
			c.attach(conn)
			c.event(&c.reconnects, "reconnect")
			c.mu.Unlock()
		default:
			// A concurrent operation reconnected while we dialed; keep
			// the installed connection and discard ours.
			c.mu.Unlock()
			_ = conn.Close()
		}
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return 0, nil, ErrClientClosed
	}
	if c.conn == nil {
		// Poisoned between install and use by a concurrent failure;
		// report a transport error so the retry loop redials.
		return 0, nil, errors.New("cache: connection lost before exchange")
	}
	// The lock IS the per-connection request/response serialisation —
	// one exchange owns the socket from its first byte out to its last
	// byte in — and the wait is bounded by OpTimeout.
	status, payload, err := c.exchange(req) //lint:allow lockhold c.mu serialises exchanges on the one connection; bounded by OpTimeout
	if err == nil {
		return status, payload, nil
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		c.event(&c.timeouts, "timeout")
	}
	// Any I/O or framing error leaves the stream in an unknown state: a
	// retry on the same connection could read the stale reply of the
	// failed request. Poison it.
	c.dropConn()
	return 0, nil, err
}

// exchange writes one frame — a single vectored write, the value sent
// from the caller's slice — and reads one response on the live
// connection. Callers hold c.mu and guarantee c.conn != nil.
func (c *Client) exchange(req request) (byte, []byte, error) {
	if c.opts.OpTimeout > 0 {
		if err := c.conn.SetDeadline(time.Now().Add(c.opts.OpTimeout)); err != nil {
			return 0, nil, err
		}
	}
	c.fw.request(req)
	if err := c.fw.flush(); err != nil {
		return 0, nil, err
	}
	return readResp(c.br, req.into)
}

// backoff returns the sleep before retry number attempt (1-based), an
// exponentially grown base with ±50% deterministic jitter.
func (c *Client) backoff(attempt int) time.Duration {
	d := c.opts.BackoffBase << uint(attempt-1)
	if d > c.opts.BackoffMax || d <= 0 {
		d = c.opts.BackoffMax
	}
	return time.Duration((0.5 + c.jitter.Float64()) * float64(d))
}

// dataKeyKind maps a cache key to its lineage artifact kind ("" for
// keys that are not traced data artifacts — weights/latest, sys/*).
func dataKeyKind(key string) string {
	switch {
	case strings.HasPrefix(key, "traj/"):
		return lineage.KindTrajectory
	case strings.HasPrefix(key, "grad/"):
		return lineage.KindGradient
	}
	return ""
}

// lineageHop records a cache-boundary hop for data keys when tracing is
// enabled.
func (c *Client) lineageHop(hop, key string) {
	if c.opts.Lineage == nil {
		return
	}
	kind := dataKeyKind(key)
	if kind == "" {
		return
	}
	c.opts.Lineage.Record(lineage.Event{
		Trace: key, Kind: kind, Hop: hop, Actor: c.opts.LineageName,
	})
}

// Put implements Cache.
func (c *Client) Put(key string, val []byte) error {
	status, payload, err := c.roundTrip(request{op: 'P', key: key, val: val})
	if err := respErr(status, payload, err, key); err != nil {
		return err
	}
	c.lineageHop(lineage.HopPut, key)
	return nil
}

// Get implements Cache.
func (c *Client) Get(key string) ([]byte, error) { return c.GetInto(key, nil) }

// GetInto implements Cache, reading the value off the wire straight
// into buf when it fits. A failed or retried attempt may have written
// any of buf.
func (c *Client) GetInto(key string, buf []byte) ([]byte, error) {
	status, payload, err := c.roundTrip(request{op: 'G', key: key, into: buf})
	if err != nil {
		return nil, err
	}
	if status == '-' {
		return nil, ErrNotFound{Key: key}
	}
	if status != '+' {
		return nil, errors.New(string(payload))
	}
	c.lineageHop(lineage.HopFetched, key)
	return payload, nil
}

// Delete implements Cache.
func (c *Client) Delete(key string) error {
	status, payload, err := c.roundTrip(request{op: 'D', key: key})
	return respErr(status, payload, err, key)
}

func respErr(status byte, payload []byte, err error, key string) error {
	if err != nil {
		return err
	}
	if status == '-' {
		return ErrNotFound{Key: key}
	}
	if status != '+' {
		return errors.New(string(payload))
	}
	return nil
}
