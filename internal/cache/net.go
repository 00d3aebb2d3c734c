package cache

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
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
// Ops: 'P' put, 'G' get, 'D' delete, 'K' keys, 'L' len,
// 'p' batched put, 'g' batched get (blobs in the value field; see
// batch.go), 'R' replication subscribe (hijacks the connection into a
// one-way stream of '+' frames carrying AOF records; see replica.go
// and DESIGN.md §11.2), 'T' term-fenced write envelope
// (value = [u64 term][u8 innerOp][inner value]; the inner op is one of
// 'P', 'D', 'p' and is rejected with status 'F' when the carried
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

// frameWriter puts whole protocol messages on one connection. The bytes
// a message is framed with (length word, op or status, key, the fence
// prefix, blob and record headers) are staged in hdr; a value is never
// staged but sent from where it already lives — the caller's slice on a
// client, the store's own slice on a server — so flush hands the kernel
// the message (or a batch of replication records) in one vectored write
// and no value is copied in user space on its way out. Not safe for
// concurrent use: every connection has one writer at a time.
type frameWriter struct {
	w    io.Writer
	sent *obs.Counter // bytes written; nil when the connection is not instrumented
	hdr  []byte       // framing bytes of the pending messages, in wire order
	cuts []cut        // where the pending values go between them
	iov  [][]byte     // backing array of bufs, reused across flushes
	bufs net.Buffers
}

// cut places val on the wire after hdr[:at].
type cut struct {
	at  int
	val []byte
}

// value queues v behind the framing bytes staged so far. v must stay
// unchanged until flush returns.
func (w *frameWriter) value(v []byte) {
	if len(v) > 0 {
		w.cuts = append(w.cuts, cut{at: len(w.hdr), val: v})
	}
}

// request queues one request frame. A nonzero term wraps r.op in a 'T'
// envelope; r.kvs, when set, is gathered into the value field in the
// PutN blob layout (batch.go).
func (w *frameWriter) request(r request) {
	vlen := len(r.val)
	if r.kvs != nil {
		vlen = putNBlobSize(r.kvs)
	}
	if r.term != 0 {
		vlen += 9
	}
	w.hdr = binary.BigEndian.AppendUint32(w.hdr, uint32(1+4+len(r.key)+vlen))
	w.hdr = append(w.hdr, r.wireOp())
	w.hdr = binary.BigEndian.AppendUint32(w.hdr, uint32(len(r.key)))
	w.hdr = append(w.hdr, r.key...)
	if r.term != 0 {
		w.hdr = binary.BigEndian.AppendUint64(w.hdr, uint64(r.term))
		w.hdr = append(w.hdr, r.op)
	}
	if r.kvs == nil {
		w.value(r.val)
		return
	}
	w.hdr = binary.BigEndian.AppendUint32(w.hdr, uint32(len(r.kvs)))
	for _, kv := range r.kvs {
		w.hdr = binary.BigEndian.AppendUint32(w.hdr, uint32(len(kv.Key)))
		w.hdr = append(w.hdr, kv.Key...)
		w.hdr = binary.BigEndian.AppendUint32(w.hdr, uint32(len(kv.Val)))
		w.value(kv.Val)
	}
}

// respHead stages the head of a response frame whose payload will be n
// bytes.
func (w *frameWriter) respHead(status byte, n int) {
	w.hdr = binary.BigEndian.AppendUint32(w.hdr, uint32(1+n))
	w.hdr = append(w.hdr, status)
}

// resp queues one response frame.
func (w *frameWriter) resp(status byte, payload []byte) {
	w.respHead(status, len(payload))
	w.value(payload)
}

// errResp queues a '!' response carrying a formatted message.
func (w *frameWriter) errResp(format string, args ...any) {
	w.resp('!', []byte(fmt.Sprintf(format, args...)))
}

// getNResp queues a '+' response whose payload is the GetN response
// blob (batch.go) for vals; a nil entry is a missing key.
func (w *frameWriter) getNResp(vals [][]byte) {
	w.respHead('+', getNRespSize(vals))
	w.hdr = binary.BigEndian.AppendUint32(w.hdr, uint32(len(vals)))
	for _, v := range vals {
		found := byte(1)
		if v == nil {
			found = 0
		}
		w.hdr = append(w.hdr, found)
		w.hdr = binary.BigEndian.AppendUint32(w.hdr, uint32(len(v)))
		w.value(v)
	}
}

// flush writes everything queued since the last flush, in one vectored
// write when w.w is a TCP connection, and forgets it whatever the
// outcome: after an error the connection is dropped, never resumed.
func (w *frameWriter) flush() error {
	iov, from := w.iov[:0], 0
	for _, c := range w.cuts {
		if c.at > from {
			iov = append(iov, w.hdr[from:c.at])
			from = c.at
		}
		iov = append(iov, c.val)
	}
	if from < len(w.hdr) {
		iov = append(iov, w.hdr[from:])
	}
	w.iov, w.bufs = iov, iov
	n, err := w.bufs.WriteTo(w.w)
	if w.sent != nil {
		w.sent.Add(n)
	}
	// Drop every reference to a value: the writer outlives the message.
	clear(w.cuts)
	clear(iov)
	w.hdr, w.cuts = w.hdr[:0], w.cuts[:0]
	return err
}

// writeFrame writes one plain request frame to w.
func writeFrame(w io.Writer, op byte, key string, value []byte) error {
	fw := frameWriter{w: w}
	fw.request(request{op: op, key: key, val: value})
	return fw.flush()
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
	ops       perOp[obs.Counter]   // cache_server_ops_total{op}
	opSeconds perOp[obs.Histogram] // cache_server_op_seconds{op}
	bytes     *obs.CounterVec      // cache_server_frame_bytes_total{dir}
	conns     *obs.Counter         // cache_server_connections_total
	active    *obs.Gauge           // cache_server_active_connections
}

// perOp resolves a labelled family's child once per opcode, the first
// time the opcode is seen (so a family still lists only the ops that
// happened). With builds a label key, takes the family's mutex and
// looks a map up — too much to repeat on every request.
type perOp[T any] struct {
	with  func(...string) *T
	child [256]atomic.Pointer[T]
}

func (p *perOp[T]) of(op byte) *T {
	if c := p.child[op].Load(); c != nil {
		return c
	}
	c := p.with(opName(op))
	p.child[op].Store(c)
	return c
}

// Instrument publishes the server's hot-path metrics (per-op counts and
// latency histograms, frame bytes in/out, connection churn) into reg.
// Call before Listen; a nil-instrumented server pays no timing cost.
func (s *Server) Instrument(reg *obs.Registry) {
	s.m = &serverMetrics{
		ops:       perOp[obs.Counter]{with: reg.CounterVec("cache_server_ops_total", "requests handled by opcode", "op").With},
		opSeconds: perOp[obs.Histogram]{with: reg.HistogramVec("cache_server_op_seconds", "request handling latency by opcode", obs.LatencyBuckets, "op").With},
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
	fw := &frameWriter{w: conn}
	var in *obs.Counter
	if s.m != nil {
		s.m.conns.Inc()
		s.m.active.Add(1)
		defer s.m.active.Add(-1)
		in, fw.sent = s.m.bytes.With("in"), s.m.bytes.With("out")
	}
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
				s.m.ops.of('R').Inc()
			}
			s.streamReplication(conn, fw)
			return
		}
		var start time.Time
		if s.m != nil {
			// Request frame size: 4-byte length word + 1 op + 4 keyLen +
			// key + value.
			in.Add(int64(9 + len(f.key) + len(f.value)))
			start = time.Now()
		}
		s.handle(fw, f)
		// Counted before the reply leaves: a client that has its answer
		// must find the op in the registry. The latency keeps covering
		// handle + the write.
		if s.m != nil {
			s.m.ops.of(f.op).Inc()
		}
		if err := fw.flush(); err != nil {
			return
		}
		if s.m != nil {
			s.m.opSeconds.of(f.op).Observe(time.Since(start).Seconds())
		}
	}
}

// handle applies one request to the store and queues its response on w.
//
// Who owns a frame (DESIGN.md §10.1): f.value is the tail of a buffer
// readFrame allocated for this request alone, so a put hands it to the
// store as it is (putOwned) and nothing here may pool, reuse or write
// to it afterwards; a get answers with the store's own slice (view),
// which is immutable and therefore safe to leave queued on w after the
// store's lock is gone.
func (s *Server) handle(w *frameWriter, f frame) {
	// Key-addressed ops require a key; 'K' (prefix scan) and 'L' (len)
	// legitimately take an empty operand.
	switch f.op {
	case 'P', 'G', 'D':
		if f.key == "" {
			w.errResp("empty key for op %q", f.op)
			return
		}
	}
	switch f.op {
	case 'P':
		_ = s.store.putOwned(f.key, f.value)
		if f.key == cluster.TopologyKey {
			s.learnTopology(f.value)
		}
		s.lineageHop(lineage.HopPut, f.key)
		w.resp('+', nil)
	case 'G':
		v, ok := s.store.view(f.key)
		if !ok {
			w.resp('-', nil)
			return
		}
		s.lineageHop(lineage.HopFetched, f.key)
		w.resp('+', v)
	case 'D':
		_ = s.store.Delete(f.key)
		w.resp('+', nil)
	case 'K':
		keys, _ := s.store.Keys(f.key)
		w.resp('+', []byte(strings.Join(keys, "\n")))
	case 'L':
		n, _ := s.store.Len()
		w.resp('+', strconv.AppendInt(nil, int64(n), 10))
	case 'p':
		kvs, err := parsePutNBlob(f.value)
		if err != nil {
			w.errResp("%v", err)
			return
		}
		// The batch path enforces the same empty-key invariant as single
		// 'P' — rejecting the WHOLE batch, because applying a prefix of
		// it would leave the store (and the AOF, and any replication
		// follower) holding a partial write the client believes failed.
		for i, kv := range kvs {
			if kv.Key == "" {
				w.errResp("empty key at index %d in batched put", i)
				return
			}
		}
		// PutN copies each value out of the blob (before it takes the
		// lock): handing the blob over instead would let one small key
		// keep a whole batch's bytes alive.
		_ = s.store.PutN(kvs)
		for _, kv := range kvs {
			if kv.Key == cluster.TopologyKey {
				s.learnTopology(kv.Val)
			}
			s.lineageHop(lineage.HopPut, kv.Key)
		}
		w.resp('+', nil)
	case 'g':
		keys, err := parseGetNReq(f.value)
		if err != nil {
			w.errResp("%v", err)
			return
		}
		for i, k := range keys {
			if k == "" {
				w.errResp("empty key at index %d in batched get", i)
				return
			}
		}
		vals := s.store.viewN(keys)
		for i, v := range vals {
			if v != nil {
				s.lineageHop(lineage.HopFetched, keys[i])
			}
		}
		w.getNResp(vals)
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
			w.errResp("short fenced envelope")
			return
		}
		reqTerm := int64(binary.BigEndian.Uint64(f.value[:8]))
		inner := f.value[8]
		switch inner {
		case 'P', 'D', 'p':
		default:
			w.errResp("op %q not allowed in fenced envelope", inner)
			return
		}
		if reqTerm < 0 {
			w.errResp("negative term in fenced envelope")
			return
		}
		if cur := s.term.Load(); reqTerm < cur {
			w.resp('F', strconv.AppendInt(nil, cur, 10))
			return
		}
		s.advanceTerm(reqTerm)
		s.handle(w, frame{op: inner, key: f.key, value: f.value[9:]})
	default:
		w.errResp("unknown op %q", f.op)
	}
}

// Replication stream tuning. The keepalive bounds how long a follower
// waits before declaring a silent leader dead (followers read with a
// deadline a few keepalives wide); the write timeout bounds how long a
// wedged follower can stall the stream goroutine on ONE write before
// being cut loose. A write carries whatever records are ready, up to
// replBatchRecords of them and replBatchBytes of framed size — so the
// timeout stays a bound on about that many bytes; a single record
// larger than the byte bound travels alone, as every record did before
// writes were batched.
const (
	replKeepalive    = 250 * time.Millisecond
	replWriteTimeout = 2 * time.Second
	replBatchRecords = 64
	replBatchBytes   = 256 << 10
)

// replFrameSize is the size on the stream of r: a '+' response frame
// around one AOF record.
func replFrameSize(r tapRec) int { return 5 + recordSize(r.key, r.val) }

// replBatchLen reports how many records from the front of recs share
// the next write: as many as fit both batch bounds, and at least one.
func replBatchLen(recs []tapRec) int {
	n, size := 0, 0
	for n < len(recs) && n < replBatchRecords {
		size += replFrameSize(recs[n])
		if n > 0 && size > replBatchBytes {
			break
		}
		n++
	}
	return n
}

// record queues r as one replication frame. The record is framed and
// checksummed here, by the stream goroutine, not under the store's
// lock: the tap only passed the stored slice along.
func (w *frameWriter) record(r tapRec) {
	w.respHead('+', recordSize(r.key, r.val))
	body := len(w.hdr) + 4
	w.hdr = appendRecordHeader(w.hdr, r.op, r.key, len(r.val))
	sum := crc32.Update(crc32.ChecksumIEEE(w.hdr[body:]), crc32.IEEETable, r.val)
	w.value(r.val)
	w.hdr = binary.BigEndian.AppendUint32(w.hdr, sum)
}

// streamReplication serves one follower: an atomic full-state snapshot
// (reset + every key + every counter) followed by the live mutation
// feed from the store tap, each record in its own '+' response frame.
// Empty '+' frames are keepalives. Any exit path — follower gone, write
// timeout, tap overflow, server shutdown — just drops the connection;
// the follower's reconnect triggers a fresh full sync, so no exit needs
// to be distinguishable from another.
func (s *Server) streamReplication(conn net.Conn, w *frameWriter) {
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

	flush := func() error {
		if err := conn.SetWriteDeadline(time.Now().Add(replWriteTimeout)); err != nil {
			return err
		}
		return w.flush()
	}
	// send writes recs in order, as few writes as the batch bounds allow.
	send := func(recs []tapRec) error {
		for len(recs) > 0 {
			n := replBatchLen(recs)
			for _, r := range recs[:n] {
				w.record(r)
			}
			if err := flush(); err != nil {
				return err
			}
			recs = recs[n:]
		}
		return nil
	}
	if err := send(snapshot); err != nil {
		return
	}
	keepalive := time.NewTicker(replKeepalive)
	defer keepalive.Stop()
	ready := make([]tapRec, 0, replBatchRecords)
	for {
		select {
		case rec, ok := <-t.ch:
			if !ok {
				// Tap overflowed: this follower fell too far behind the
				// mutation rate. Drop it; resync on reconnect.
				return
			}
			ready = append(ready[:0], rec)
			// Take what else is ready without growing the slice. Its
			// capacity is no batch bound: send applies both, through
			// replBatchLen, and may split what was drained.
		drain:
			for len(ready) < cap(ready) {
				select {
				case rec, ok := <-t.ch:
					if !ok {
						return
					}
					ready = append(ready, rec)
				default:
					break drain
				}
			}
			err := send(ready)
			clear(ready)
			if err != nil {
				return
			}
		case <-keepalive.C:
			w.resp('+', nil)
			if err := flush(); err != nil {
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
