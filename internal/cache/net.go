package cache

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"stellaris/internal/cache/cluster"
	"stellaris/internal/obs"
	"stellaris/internal/obs/lineage"
)

// Wire protocol (the Redis stand-in): each message is a length-prefixed
// frame. Requests are  [u32 frameLen][u8 op][u32 keyLen][key][value] and
// responses are       [u32 frameLen][u8 status][payload].
// Ops: 'P' put, 'G' get, 'D' delete, 'I' incr, 'K' keys, 'L' len,
// 'p' batched put, 'g' batched get (blobs in the value field; see
// batch.go), 'R' replication subscribe (hijacks the connection into a
// one-way stream of '+' frames carrying AOF records; see replica.go
// and DESIGN.md §11.2), 'T' term-fenced write envelope
// (value = [u64 term][u8 innerOp][inner value]; the inner op is one of
// 'P', 'D', 'I', 'p' and is rejected with status 'F' when the carried
// term is older than the newest this server has learned — see
// DESIGN.md §11.5).
// Status: '+' ok, '-' not found, '!' error (payload = message),
// 'F' fenced (payload = decimal current term; the writer's topology
// view is deposed and must be refreshed).

const maxFrame = 256 << 20 // 256 MiB guards against corrupt length words

type frame struct {
	op    byte
	key   string
	value []byte
}

func writeFrame(w io.Writer, op byte, key string, value []byte) error {
	total := 1 + 4 + len(key) + len(value)
	var hdr [9]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(total))
	hdr[4] = op
	binary.BigEndian.PutUint32(hdr[5:9], uint32(len(key)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := io.WriteString(w, key); err != nil {
		return err
	}
	_, err := w.Write(value)
	return err
}

func readFrame(r io.Reader) (frame, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return frame{}, err
	}
	total := binary.BigEndian.Uint32(lenBuf[:])
	if total < 5 || total > maxFrame {
		return frame{}, fmt.Errorf("cache: bad frame length %d", total)
	}
	body := make([]byte, total)
	if _, err := io.ReadFull(r, body); err != nil {
		return frame{}, err
	}
	op := body[0]
	keyLen := binary.BigEndian.Uint32(body[1:5])
	if keyLen > total-5 { // not 5+keyLen > total: that sum wraps for keyLen near 2^32
		return frame{}, fmt.Errorf("cache: bad key length %d in frame %d", keyLen, total)
	}
	return frame{
		op:    op,
		key:   string(body[5 : 5+keyLen]),
		value: body[5+keyLen:],
	}, nil
}

func writeResp(w io.Writer, status byte, payload []byte) error {
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(1+len(payload)))
	hdr[4] = status
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

func readResp(r io.Reader) (byte, []byte, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return 0, nil, err
	}
	total := binary.BigEndian.Uint32(lenBuf[:])
	if total < 1 || total > maxFrame {
		return 0, nil, fmt.Errorf("cache: bad response length %d", total)
	}
	body := make([]byte, total)
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, nil, err
	}
	return body[0], body[1:], nil
}

// Server serves a MemCache over TCP.
type Server struct {
	store   *MemCache
	ln      net.Listener
	wg      sync.WaitGroup
	mu      sync.Mutex
	done    bool
	conns   map[net.Conn]struct{}
	m       *serverMetrics
	lin     *lineage.Store
	shardID int          // -1 = not part of a cluster; set via SetShardID
	term    atomic.Int64 // newest fencing term learned for shardID
}

// serverMetrics is the server's view into an obs registry.
type serverMetrics struct {
	ops       *obs.CounterVec   // cache_server_ops_total{op}
	opSeconds *obs.HistogramVec // cache_server_op_seconds{op}
	bytes     *obs.CounterVec   // cache_server_frame_bytes_total{dir}
	conns     *obs.Counter      // cache_server_connections_total
	active    *obs.Gauge        // cache_server_active_connections
}

// Instrument publishes the server's hot-path metrics (per-op counts and
// latency histograms, frame bytes in/out, connection churn) into reg.
// Call before Listen; a nil-instrumented server pays no timing cost.
func (s *Server) Instrument(reg *obs.Registry) {
	s.m = &serverMetrics{
		ops:       reg.CounterVec("cache_server_ops_total", "requests handled by opcode", "op"),
		opSeconds: reg.HistogramVec("cache_server_op_seconds", "request handling latency by opcode", obs.LatencyBuckets, "op"),
		bytes:     reg.CounterVec("cache_server_frame_bytes_total", "protocol bytes by direction", "dir"),
		conns:     reg.Counter("cache_server_connections_total", "connections accepted"),
		active:    reg.Gauge("cache_server_active_connections", "connections currently open"),
	}
}

// InstrumentLineage records the server-side view of data-key traffic
// (put on successful 'P', fetched on 'G' hits, for traj/ and grad/
// keys) into lin as actor "cache-server". With both client and server
// instrumented, one artifact shows the hop from both sides of the wire
// — that redundancy is the point of cross-process tracing (a client hop
// without its server twin localizes the loss). Call before Listen; nil
// disables.
func (s *Server) InstrumentLineage(lin *lineage.Store) { s.lin = lin }

// lineageHop mirrors Client.lineageHop for the server side.
func (s *Server) lineageHop(hop, key string) {
	if s.lin == nil {
		return
	}
	kind := dataKeyKind(key)
	if kind == "" {
		return
	}
	s.lin.Record(lineage.Event{Trace: key, Kind: kind, Hop: hop, Actor: "cache-server"})
}

// opName maps a protocol opcode to its metric label.
func opName(op byte) string {
	switch op {
	case 'P':
		return "put"
	case 'G':
		return "get"
	case 'D':
		return "delete"
	case 'I':
		return "incr"
	case 'K':
		return "keys"
	case 'L':
		return "len"
	case 'p':
		return "putn"
	case 'g':
		return "getn"
	case 'R':
		return "replicate"
	case 'T':
		return "fenced"
	default:
		return "unknown"
	}
}

// countingWriter feeds written byte counts into a counter on the way to
// the underlying writer.
type countingWriter struct {
	w io.Writer
	n *obs.Counter
}

func (cw countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n.Add(int64(n))
	return n, err
}

// NewServer wraps store (nil allocates a fresh MemCache).
func NewServer(store *MemCache) *Server {
	if store == nil {
		store = NewMemCache()
	}
	return &Server{store: store, conns: make(map[net.Conn]struct{}), shardID: -1}
}

// SetShardID declares which cluster shard this server embodies, letting
// it learn its fencing term from topology-document writes (any client
// replicating sys/topology teaches every server the current term — in
// particular a deposed leader sitting in the follower position of the
// new topology). Call before Listen; a server with no shard ID still
// learns terms from 'T' envelopes, just not from topology puts.
func (s *Server) SetShardID(id int) { s.shardID = id }

// Term reports the newest fencing term this server has learned, from
// either a topology write or a fenced envelope. Zero means fencing has
// never been engaged (no promotion has happened).
func (s *Server) Term() int64 { return s.term.Load() }

// advanceTerm ratchets the server's term monotonically upward.
func (s *Server) advanceTerm(t int64) {
	for {
		cur := s.term.Load()
		if t <= cur || s.term.CompareAndSwap(cur, t) {
			return
		}
	}
}

// learnTopology inspects a sys/topology value being written through
// this server and adopts its own shard's term if newer. Invalid or
// foreign documents are ignored — the write itself still succeeds, the
// server just learns nothing from it.
func (s *Server) learnTopology(val []byte) {
	if s.shardID < 0 {
		return
	}
	doc, err := cluster.Decode(val)
	if err != nil {
		return
	}
	for _, sh := range doc.Shards {
		if sh.ID == s.shardID {
			s.advanceTerm(sh.Term)
			return
		}
	}
}

// Listen starts accepting connections on addr ("host:port"; port 0 picks
// a free port) and returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.ln = ln
	s.wg.Add(1)
	go s.acceptLoop()
	return ln.Addr().String(), nil
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
		}()
	}
}

func (s *Server) serveConn(conn net.Conn) {
	s.mu.Lock()
	if s.done {
		s.mu.Unlock()
		_ = conn.Close()
		return
	}
	s.conns[conn] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		_ = conn.Close()
	}()
	br := bufio.NewReaderSize(conn, 1<<16)
	var out io.Writer = conn
	if s.m != nil {
		s.m.conns.Inc()
		s.m.active.Add(1)
		defer s.m.active.Add(-1)
		out = countingWriter{w: conn, n: s.m.bytes.With("out")}
	}
	bw := bufio.NewWriterSize(out, 1<<16)
	for {
		f, err := readFrame(br)
		if err != nil {
			return
		}
		if f.op == 'R' {
			// Replication subscribe hijacks the connection: from here on
			// it is a one-way stream of '+' frames until either side
			// drops. No further requests are read.
			if s.m != nil {
				s.m.ops.With(opName('R')).Inc()
			}
			s.streamReplication(conn, bw)
			return
		}
		var start time.Time
		if s.m != nil {
			// Request frame size: 4-byte length word + 1 op + 4 keyLen +
			// key + value.
			s.m.bytes.With("in").Add(int64(9 + len(f.key) + len(f.value)))
			start = time.Now()
		}
		if err := s.handle(bw, f); err != nil {
			return
		}
		// Counted before the reply leaves: a client that has its answer
		// must find the op in the registry. The latency keeps covering
		// handle + flush.
		if s.m != nil {
			s.m.ops.With(opName(f.op)).Inc()
		}
		if err := bw.Flush(); err != nil {
			return
		}
		if s.m != nil {
			s.m.opSeconds.With(opName(f.op)).Observe(time.Since(start).Seconds())
		}
	}
}

func (s *Server) handle(w io.Writer, f frame) error {
	// Key-addressed ops require a key; 'K' (prefix scan) and 'L' (len)
	// legitimately take an empty operand.
	switch f.op {
	case 'P', 'G', 'D', 'I':
		if f.key == "" {
			return writeResp(w, '!', []byte(fmt.Sprintf("empty key for op %q", f.op)))
		}
	}
	switch f.op {
	case 'P':
		_ = s.store.Put(f.key, f.value)
		if f.key == cluster.TopologyKey {
			s.learnTopology(f.value)
		}
		s.lineageHop(lineage.HopPut, f.key)
		return writeResp(w, '+', nil)
	case 'G':
		v, err := s.store.Get(f.key)
		if err != nil {
			return writeResp(w, '-', nil)
		}
		s.lineageHop(lineage.HopFetched, f.key)
		return writeResp(w, '+', v)
	case 'D':
		_ = s.store.Delete(f.key)
		return writeResp(w, '+', nil)
	case 'I':
		v, _ := s.store.Incr(f.key)
		return writeResp(w, '+', []byte(strconv.FormatInt(v, 10)))
	case 'K':
		keys, _ := s.store.Keys(f.key)
		return writeResp(w, '+', []byte(strings.Join(keys, "\n")))
	case 'L':
		n, _ := s.store.Len()
		return writeResp(w, '+', []byte(strconv.Itoa(n)))
	case 'p':
		kvs, err := parsePutNBlob(f.value)
		if err != nil {
			return writeResp(w, '!', []byte(err.Error()))
		}
		// The batch path enforces the same empty-key invariant as single
		// 'P' — rejecting the WHOLE batch, because applying a prefix of
		// it would leave the store (and the AOF, and any replication
		// follower) holding a partial write the client believes failed.
		for i, kv := range kvs {
			if kv.Key == "" {
				return writeResp(w, '!', []byte(fmt.Sprintf("empty key at index %d in batched put", i)))
			}
		}
		_ = s.store.PutN(kvs) // values are copied by PutN; blob aliasing is fine
		for _, kv := range kvs {
			if kv.Key == cluster.TopologyKey {
				s.learnTopology(kv.Val)
			}
			s.lineageHop(lineage.HopPut, kv.Key)
		}
		return writeResp(w, '+', nil)
	case 'g':
		keys, err := parseGetNReq(f.value)
		if err != nil {
			return writeResp(w, '!', []byte(err.Error()))
		}
		for i, k := range keys {
			if k == "" {
				return writeResp(w, '!', []byte(fmt.Sprintf("empty key at index %d in batched get", i)))
			}
		}
		vals, _ := s.store.GetN(keys)
		for i, v := range vals {
			if v != nil {
				s.lineageHop(lineage.HopFetched, keys[i])
			}
		}
		return writeResp(w, '+', appendGetNResp(make([]byte, 0, getNRespSize(vals)), vals))
	case 'T':
		// Term-fenced write envelope. The value carries the writer's
		// believed term plus a nested write op; a term older than the
		// newest this server has learned means the writer's topology view
		// predates a promotion, and the write is refused with 'F' (payload
		// = current term) so the writer refreshes before retrying. Equal
		// or newer terms pass through — and a newer one is adopted, which
		// is how a promoted follower's first stamped write arms fencing on
		// a server that never saw the topology doc.
		if len(f.value) < 9 {
			return writeResp(w, '!', []byte("short fenced envelope"))
		}
		reqTerm := int64(binary.BigEndian.Uint64(f.value[:8]))
		inner := f.value[8]
		switch inner {
		case 'P', 'D', 'I', 'p':
		default:
			return writeResp(w, '!', []byte(fmt.Sprintf("op %q not allowed in fenced envelope", inner)))
		}
		if reqTerm < 0 {
			return writeResp(w, '!', []byte("negative term in fenced envelope"))
		}
		if cur := s.term.Load(); reqTerm < cur {
			return writeResp(w, 'F', []byte(strconv.FormatInt(cur, 10)))
		}
		s.advanceTerm(reqTerm)
		return s.handle(w, frame{op: inner, key: f.key, value: f.value[9:]})
	default:
		return writeResp(w, '!', []byte(fmt.Sprintf("unknown op %q", f.op)))
	}
}

// Replication stream tuning. The keepalive bounds how long a follower
// waits before declaring a silent leader dead (followers read with a
// deadline a few keepalives wide); the write timeout bounds how long a
// wedged follower can stall the stream goroutine before being cut
// loose.
const (
	replKeepalive    = 250 * time.Millisecond
	replWriteTimeout = 2 * time.Second
)

// streamReplication serves one follower: an atomic full-state snapshot
// (reset + every key + every counter) followed by the live mutation
// feed from the store tap, each record in its own '+' response frame.
// Empty '+' frames are keepalives. Any exit path — follower gone, write
// timeout, tap overflow, server shutdown — just drops the connection;
// the follower's reconnect triggers a fresh full sync, so no exit needs
// to be distinguishable from another.
func (s *Server) streamReplication(conn net.Conn, bw *bufio.Writer) {
	snapshot, t := s.store.attachTap()
	defer s.store.detachTap(t)

	// The follower never writes after 'R', so any read completion —
	// data, EOF, reset — means the connection is done for. This watcher
	// is what lets an idle stream notice a dead follower (or Server
	// shutdown closing the conn) without waiting on a write failure.
	gone := make(chan struct{})
	go func() {
		var one [1]byte
		_, _ = conn.Read(one[:])
		close(gone)
	}()

	send := func(rec []byte) error {
		if err := conn.SetWriteDeadline(time.Now().Add(replWriteTimeout)); err != nil {
			return err
		}
		if err := writeResp(bw, '+', rec); err != nil {
			return err
		}
		return bw.Flush()
	}
	for _, rec := range snapshot {
		if err := send(rec); err != nil {
			return
		}
	}
	keepalive := time.NewTicker(replKeepalive)
	defer keepalive.Stop()
	for {
		select {
		case rec, ok := <-t.ch:
			if !ok {
				// Tap overflowed: this follower fell too far behind the
				// mutation rate. Drop it; resync on reconnect.
				return
			}
			if err := send(rec); err != nil {
				return
			}
		case <-keepalive.C:
			if err := send(nil); err != nil {
				return
			}
		case <-gone:
			return
		}
	}
}

// Close stops the listener, severs any connections still open (so a
// lingering client cannot wedge shutdown), and waits for the handler
// goroutines to drain. Idempotent.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.done {
		s.mu.Unlock()
		return nil
	}
	s.done = true
	for c := range s.conns {
		_ = c.Close()
	}
	s.mu.Unlock()
	var err error
	if s.ln != nil {
		err = s.ln.Close()
	}
	s.wg.Wait()
	return err
}
