package cache

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"strconv"
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
// Ops: 'P' put, 'G' get, 'D' delete,
// 'g' batched get (a blob in the value field; see batch.go),
// 'R' replication subscribe (hijacks the connection into a one-way
// stream of '+' frames carrying mutation records; see replica.go and
// DESIGN.md §11.2), 'T' term-fenced write envelope
// (value = [u64 term][u8 innerOp][inner value]; the inner op is one of
// 'P', 'D' and is rejected with status 'F' when the carried
// term is older than the newest this server has learned — see
// DESIGN.md §11.5).
// Status: '+' ok, '-' not found, '!' error (payload = message),
// 'F' fenced (payload = decimal current term; the writer's topology
// view is deposed and must be refreshed).

const maxFrame = 256 << 20 // 256 MiB guards against corrupt length words

// frame is one request. value is the tail of the buffer the whole frame
// was read into, and buf is that buffer when it came from the pool.
type frame struct {
	op    byte
	key   string
	value []byte
	buf   []byte
}

// frameWriter puts whole protocol messages on one connection. The bytes
// a message is framed with (length word, op or status, key, the fence
// prefix, blob and record headers) are staged in hdr; a value is never
// staged but sent from where it already lives — the caller's slice on a
// client, the store's own slice on a server — so flush hands the kernel
// the message (or a batch of replication records) in one vectored write
// and no value is copied in user space on its way out. A stored value
// queued this way is held by a reference that flush drops once the
// bytes are written. Not safe for concurrent use: every connection has
// one writer at a time.
type frameWriter struct {
	w    io.Writer
	sent *obs.Counter // bytes written; nil when the connection is not instrumented
	hdr  []byte       // framing bytes of the pending messages, in wire order
	cuts []cut        // where the pending values go between them
	held []*value     // stored values among them, released by flush
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
// envelope.
func (w *frameWriter) request(r request) {
	vlen := len(r.val)
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
	w.value(r.val)
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

// stored queues the bytes of v, a stored value the caller holds a
// reference to; flush drops that reference.
func (w *frameWriter) stored(v *value) {
	w.value(v.b)
	w.held = append(w.held, v)
}

// errResp queues a '!' response carrying a formatted message.
func (w *frameWriter) errResp(format string, args ...any) {
	w.resp('!', []byte(fmt.Sprintf(format, args...)))
}

// getNResp queues a '+' response whose payload is the GetN response
// blob (batch.go) for vals, held as stored does; a nil entry is a
// missing key.
func (w *frameWriter) getNResp(vals []*value) {
	w.respHead('+', getNRespSize(vals))
	w.hdr = binary.LittleEndian.AppendUint32(w.hdr, uint32(len(vals)))
	for _, v := range vals {
		if v == nil {
			w.hdr = append(w.hdr, 0, 0, 0, 0, 0)
			continue
		}
		w.hdr = append(w.hdr, 1)
		w.hdr = binary.LittleEndian.AppendUint32(w.hdr, uint32(len(v.b)))
		w.stored(v)
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
	w.discard()
	return err
}

// discard forgets everything queued and drops every reference to a
// value: the writer outlives the message.
func (w *frameWriter) discard() {
	for _, v := range w.held {
		v.release()
	}
	clear(w.held)
	clear(w.cuts)
	clear(w.iov)
	w.hdr, w.cuts, w.held = w.hdr[:0], w.cuts[:0], w.held[:0]
}

// writeFrame writes one plain request frame to w.
func writeFrame(w io.Writer, op byte, key string, value []byte) error {
	fw := frameWriter{w: w}
	fw.request(request{op: op, key: key, val: value})
	return fw.flush()
}

// readFrame reads one request into a buffer from storeBuf. The caller
// owns f.buf: it hands it to the store with the value or returns it.
func readFrame(r io.Reader) (frame, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return frame{}, err
	}
	total := binary.BigEndian.Uint32(lenBuf[:])
	if total < 5 || total > maxFrame {
		return frame{}, fmt.Errorf("cache: bad frame length %d", total)
	}
	body, buf := storeBuf(int(total))
	if _, err := io.ReadFull(r, body); err != nil {
		putBuf(buf)
		return frame{}, err
	}
	op := body[0]
	keyLen := binary.BigEndian.Uint32(body[1:5])
	if keyLen > total-5 { // not 5+keyLen > total: that sum wraps for keyLen near 2^32
		putBuf(buf)
		return frame{}, fmt.Errorf("cache: bad key length %d in frame %d", keyLen, total)
	}
	return frame{
		op:    op,
		key:   string(body[5 : 5+keyLen]),
		value: body[5+keyLen:],
		buf:   buf,
	}, nil
}

// readResp reads one response. The status byte is read with the length
// word, so the payload lands at buf[0] when cap(buf) holds it and in
// fresh memory otherwise (see sized); either way it is read once and
// never copied.
func readResp(r io.Reader, buf []byte) (byte, []byte, error) {
	status, n, err := readRespHead(r)
	if err != nil {
		return 0, nil, err
	}
	payload := sized(buf, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	return status, payload, nil
}

// readRespHead reads a response's length word and status byte and
// returns the status and the payload length still to read.
func readRespHead(r io.Reader) (byte, int, error) {
	var head [5]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return 0, 0, err
	}
	total := binary.BigEndian.Uint32(head[:4])
	if total < 1 || total > maxFrame {
		return 0, 0, fmt.Errorf("cache: bad response length %d", total)
	}
	return head[4], int(total - 1), nil
}

// sized returns buf resliced to n bytes when its array holds them and a
// fresh n-byte slice otherwise. It never returns nil, so a found empty
// value stays distinct from a missing one.
func sized(buf []byte, n int) []byte {
	if buf == nil || cap(buf) < n {
		return make([]byte, n)
	}
	return buf[:n]
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
			putBuf(f.buf)
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
		kept := s.handle(fw, f)
		// Counted before the reply leaves: a client that has its answer
		// must find the op in the registry. The latency keeps covering
		// handle + the write.
		if s.m != nil {
			s.m.ops.of(f.op).Inc()
		}
		err = fw.flush()
		if !kept {
			putBuf(f.buf)
		}
		if err != nil {
			return
		}
		if s.m != nil {
			s.m.opSeconds.of(f.op).Observe(time.Since(start).Seconds())
		}
	}
}

// handle applies one request to the store and queues its response on w.
// It reports whether the store kept f.buf; if not, the caller returns
// it to the pool once the response is written.
//
// Who owns a frame (DESIGN.md §10.1): f.value is the tail of f.buf, a
// pool buffer readFrame drew for this request alone, so a put hands
// both to the store as they are (putOwned) and nothing here may read,
// pool, reuse or write to them afterwards: another connection may
// overwrite the key at once and drop the last reference. A get answers
// with the store's own value (view) and a reference to it, which flush
// drops after the response is written.
func (s *Server) handle(w *frameWriter, f frame) (kept bool) {
	// Key-addressed ops require a key.
	switch f.op {
	case 'P', 'G', 'D':
		if f.key == "" {
			w.errResp("empty key for op %q", f.op)
			return false
		}
	}
	switch f.op {
	case 'P':
		if f.key == cluster.TopologyKey {
			s.learnTopology(f.value)
		}
		s.store.putOwned(f.key, f.value, f.buf)
		s.lineageHop(lineage.HopPut, f.key)
		w.resp('+', nil)
		return true
	case 'G':
		v := s.store.view(f.key)
		if v == nil {
			w.resp('-', nil)
			return false
		}
		s.lineageHop(lineage.HopFetched, f.key)
		w.respHead('+', len(v.b))
		w.stored(v)
	case 'D':
		_ = s.store.Delete(f.key)
		w.resp('+', nil)
	case 'g':
		keys, err := parseGetNReq(f.value)
		if err != nil {
			w.errResp("%v", err)
			return false
		}
		for i, k := range keys {
			if k == "" {
				w.errResp("empty key at index %d in batched get", i)
				return false
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
			return false
		}
		reqTerm := int64(binary.BigEndian.Uint64(f.value[:8]))
		inner := f.value[8]
		switch inner {
		case 'P', 'D':
		default:
			w.errResp("op %q not allowed in fenced envelope", inner)
			return false
		}
		if reqTerm < 0 {
			w.errResp("negative term in fenced envelope")
			return false
		}
		if cur := s.term.Load(); reqTerm < cur {
			w.resp('F', strconv.AppendInt(nil, cur, 10))
			return false
		}
		s.advanceTerm(reqTerm)
		return s.handle(w, frame{op: inner, key: f.key, value: f.value[9:], buf: f.buf})
	default:
		w.errResp("unknown op %q", f.op)
	}
	return false
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
// around one mutation record.
func replFrameSize(r tapRec) int { return 5 + recordSize(r.key, r.val.bytes()) }

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

// record queues r as one replication frame, taking over the record's
// reference (flush drops it). The record is framed and checksummed
// here, by the stream goroutine, not under the store's lock: the tap
// only passed the stored value along.
func (w *frameWriter) record(r tapRec) {
	val := r.val.bytes()
	w.respHead('+', recordSize(r.key, val))
	body := len(w.hdr) + 4
	w.hdr = appendRecordHeader(w.hdr, r.op, r.key, len(val))
	sum := crc32.Update(crc32.ChecksumIEEE(w.hdr[body:]), crc32.IEEETable, val)
	if r.val != nil {
		w.stored(r.val)
	}
	w.hdr = binary.LittleEndian.AppendUint32(w.hdr, sum)
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
			w.discard()
			return err
		}
		return w.flush()
	}
	// send writes recs in order, as few writes as the batch bounds
	// allow, and drops every record's reference, written or not.
	send := func(recs []tapRec) error {
		for len(recs) > 0 {
			n := replBatchLen(recs)
			for _, r := range recs[:n] {
				w.record(r)
			}
			recs = recs[n:]
			if err := flush(); err != nil {
				for _, r := range recs {
					r.val.release()
				}
				return err
			}
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
						for _, r := range ready {
							r.val.release()
						}
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
