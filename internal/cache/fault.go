package cache

import (
	"encoding/binary"
	"fmt"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"stellaris/internal/rng"
)

// Direction names one side of a proxied connection for asymmetric
// faults: a partition can blackhole requests while responses still
// flow, or vice versa — the half-open failure modes a symmetric kill
// cannot produce.
type Direction int

const (
	// ClientToServer is the request direction (client bytes toward the
	// upstream server).
	ClientToServer Direction = iota
	// ServerToClient is the response direction.
	ServerToClient
)

func (d Direction) String() string {
	if d == ClientToServer {
		return "client->server"
	}
	return "server->client"
}

// Partition is one scripted asymmetric partition: once AfterOps request
// frames have completed, every chunk flowing in Drop's direction is
// silently blackholed for For (<= 0 means until healed). The chunk
// that completes the threshold frame is already inside the window — a
// ClientToServer partition at AfterOps N blackholes request N itself.
// The other direction keeps flowing — a ServerToClient partition
// yields the classic deposed-leader shape where writes still LAND but
// their acks never return.
type Partition struct {
	AfterOps int64
	Drop     Direction
	For      time.Duration
}

// FaultConfig sets per-chunk fault probabilities for a FaultProxy. Each
// chunk of bytes copied in either direction rolls independently against
// the rates, in the order Close → Drop → Corrupt → Delay (a closed
// connection obviously skips the later rolls). All randomness derives
// from Seed, so a given fault schedule is reproducible for a fixed
// interleaving of traffic.
type FaultConfig struct {
	// DropRate is the probability a chunk is silently discarded. Mid-
	// frame drops desynchronize the stream; clients recover via the
	// OpTimeout deadline and reconnect.
	DropRate float64
	// DelayRate is the probability a chunk is held for a uniform
	// duration in (0, MaxDelay].
	DelayRate float64
	MaxDelay  time.Duration
	// CorruptRate is the probability one byte of the chunk is flipped
	// before forwarding.
	CorruptRate float64
	// CloseRate is the probability the proxy severs both directions of
	// the connection mid-stream.
	CloseRate float64
	// Seed drives the fault RNG streams.
	Seed uint64

	// Partitions lists scripted asymmetric partitions at cumulative
	// completed-op thresholds, consumed in order (see Partition). Ops
	// are counted by parsing client→server length-prefixed frames, not
	// bytes, so the schedule is independent of TCP chunking. They can
	// also be triggered directly via PartitionNow.
	Partitions []Partition
}

// FaultStats counts faults actually injected.
type FaultStats struct {
	Drops       int64
	Delays      int64
	Corruptions int64
	Closes      int64
	// Conns is the number of client connections accepted.
	Conns int64
	// Ops counts completed client→server request frames observed.
	Ops int64
	// Partitions counts windows activated (scripted or via
	// PartitionNow); PartitionDrops counts chunks blackholed by an
	// active partition.
	Partitions     int64
	PartitionDrops int64
}

// FaultProxy is a chaos TCP proxy that sits between a cache Client and
// Server and injects transport faults per FaultConfig. It exists to
// prove the live training pipeline degrades gracefully when the shared
// cache (the paper's Redis) misbehaves.
type FaultProxy struct {
	target string
	cfg    FaultConfig

	ln net.Listener
	wg sync.WaitGroup

	mu     sync.Mutex
	done   bool
	conns  map[net.Conn]struct{}
	nextID uint64

	drops       atomic.Int64
	delays      atomic.Int64
	corruptions atomic.Int64
	closes      atomic.Int64
	accepted    atomic.Int64

	// ops counts completed request frames, which trigger the scripted
	// partitions.
	ops     atomic.Int64
	schedMu sync.Mutex

	// Partition window state: UnixNano deadlines (MaxInt64 = until
	// healed), indexed by Direction.
	partUntil   [2]atomic.Int64
	pendingPart []Partition // guarded by schedMu
	partitions  atomic.Int64
	partDrops   atomic.Int64
}

// NewFaultProxy returns a proxy forwarding to target ("host:port") with
// the given fault policy. Call Listen to start it.
func NewFaultProxy(target string, cfg FaultConfig) *FaultProxy {
	if cfg.MaxDelay <= 0 {
		cfg.MaxDelay = 5 * time.Millisecond
	}
	p := &FaultProxy{
		target: target,
		cfg:    cfg,
		conns:  make(map[net.Conn]struct{}),
	}
	p.pendingPart = append([]Partition(nil), cfg.Partitions...)
	return p
}

// windowDeadline converts a window duration to its UnixNano deadline;
// non-positive means "until healed".
func windowDeadline(d time.Duration) int64 {
	if d <= 0 {
		return math.MaxInt64
	}
	return time.Now().Add(d).UnixNano()
}

// PartitionNow activates an asymmetric partition immediately: chunks in
// dir are blackholed for d (<= 0: until Heal). The reverse direction is
// untouched.
func (p *FaultProxy) PartitionNow(dir Direction, d time.Duration) {
	p.partUntil[dir].Store(windowDeadline(d))
	p.partitions.Add(1)
}

// Heal ends any active partition window.
func (p *FaultProxy) Heal() {
	p.partUntil[ClientToServer].Store(0)
	p.partUntil[ServerToClient].Store(0)
}

// partitioned reports whether dir is inside an active partition window.
func (p *FaultProxy) partitioned(dir Direction) bool {
	return time.Now().UnixNano() < p.partUntil[dir].Load()
}

// Listen starts accepting on addr (port 0 picks a free port) and
// returns the bound address clients should dial.
func (p *FaultProxy) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	p.ln = ln
	p.wg.Add(1)
	go p.acceptLoop()
	return ln.Addr().String(), nil
}

// Stats returns the injected-fault counters.
func (p *FaultProxy) Stats() FaultStats {
	return FaultStats{
		Drops:          p.drops.Load(),
		Delays:         p.delays.Load(),
		Corruptions:    p.corruptions.Load(),
		Closes:         p.closes.Load(),
		Conns:          p.accepted.Load(),
		Ops:            p.ops.Load(),
		Partitions:     p.partitions.Load(),
		PartitionDrops: p.partDrops.Load(),
	}
}

// Close stops the listener, severs all proxied connections, and waits
// for the pump goroutines. Idempotent.
func (p *FaultProxy) Close() error {
	p.mu.Lock()
	if p.done {
		p.mu.Unlock()
		return nil
	}
	p.done = true
	for c := range p.conns {
		_ = c.Close()
	}
	p.mu.Unlock()
	var err error
	if p.ln != nil {
		err = p.ln.Close()
	}
	p.wg.Wait()
	return err
}

// track registers a live connection for force-close on proxy Close;
// returns false if the proxy is already closing.
func (p *FaultProxy) track(c net.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.done {
		return false
	}
	p.conns[c] = struct{}{}
	return true
}

func (p *FaultProxy) untrack(c net.Conn) {
	p.mu.Lock()
	delete(p.conns, c)
	p.mu.Unlock()
}

func (p *FaultProxy) acceptLoop() {
	defer p.wg.Done()
	for {
		client, err := p.ln.Accept()
		if err != nil {
			return // listener closed
		}
		p.accepted.Add(1)
		p.mu.Lock()
		id := p.nextID
		p.nextID++
		p.mu.Unlock()
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			p.serve(client, id)
		}()
	}
}

// noteOps folds n newly completed request frames into the partition
// schedule.
func (p *FaultProxy) noteOps(n int) {
	if n == 0 || len(p.cfg.Partitions) == 0 {
		return
	}
	total := p.ops.Add(int64(n))
	p.schedMu.Lock()
	for len(p.pendingPart) > 0 && total >= p.pendingPart[0].AfterOps {
		part := p.pendingPart[0]
		p.pendingPart = p.pendingPart[1:]
		p.PartitionNow(part.Drop, part.For)
	}
	p.schedMu.Unlock()
}

// frameParser incrementally recognizes length-prefixed request frames in
// a byte stream, independent of TCP chunk boundaries.
type frameParser struct {
	hdr  [4]byte
	hn   int // header bytes gathered
	need int // payload bytes remaining in the current frame
}

// feed consumes a chunk and returns how many frames completed within it.
func (fp *frameParser) feed(b []byte) int {
	done := 0
	for len(b) > 0 {
		if fp.need == 0 {
			n := copy(fp.hdr[fp.hn:], b)
			fp.hn += n
			b = b[n:]
			if fp.hn == 4 {
				fp.need = int(binary.BigEndian.Uint32(fp.hdr[:]))
				fp.hn = 0
				if fp.need == 0 {
					done++
				}
			}
			continue
		}
		n := len(b)
		if n > fp.need {
			n = fp.need
		}
		fp.need -= n
		b = b[n:]
		if fp.need == 0 {
			done++
		}
	}
	return done
}

func (p *FaultProxy) serve(client net.Conn, id uint64) {
	upstream, err := net.DialTimeout("tcp", p.target, 5*time.Second)
	if err != nil {
		_ = client.Close()
		return
	}
	if !p.track(client) || !p.track(upstream) {
		_ = client.Close()
		_ = upstream.Close()
		return
	}
	defer func() {
		p.untrack(client)
		p.untrack(upstream)
		_ = client.Close()
		_ = upstream.Close()
	}()
	// Independent, deterministic RNG stream per connection+direction,
	// split before spawning: the parent generator is not goroutine-safe.
	base := rng.New(p.cfg.Seed ^ 0xfa017)
	downRNG := base.Split(2 * id)
	upRNG := base.Split(2*id + 1)
	var pumps sync.WaitGroup
	pumps.Add(1)
	go func() {
		defer pumps.Done()
		p.pump(upstream, client, ServerToClient, downRNG, nil)
	}()
	// The reverse direction runs inline; when it exits it closes both
	// conns, which unblocks the goroutine above. Only this client→server
	// direction carries request frames, so only it feeds the op counter.
	p.pump(client, upstream, ClientToServer, upRNG, &frameParser{})
	pumps.Wait()
}

// delivery is one forwarded chunk with its earliest write time.
type delivery struct {
	b  []byte
	at time.Time
}

// deliveryQueueDepth bounds in-flight delayed chunks per direction:
// deep enough that a single held chunk never stalls the reader, small
// enough to preserve TCP backpressure through the proxy.
const deliveryQueueDepth = 32

// pump copies src → dst in chunks, rolling each chunk against the fault
// rates. Returning closes both ends (via serve's defer), which is how a
// Close fault propagates to the peer direction too. A non-nil fp counts
// completed request frames for the partition schedule.
//
// Delayed chunks ride a bounded FIFO delivery queue drained by a
// writer goroutine, so the reader keeps consuming src while an earlier
// chunk waits out its hold. Aggregate added latency over a burst is
// therefore bounded by the LARGEST single hold (≤ MaxDelay), not the
// sum of holds — the old inline sleep serialized every hold behind the
// previous one, silently inflating effective delay far past MaxDelay on
// multi-chunk frames. FIFO ordering preserves the byte stream exactly.
func (p *FaultProxy) pump(src, dst net.Conn, dir Direction, r *rng.RNG, fp *frameParser) {
	q := make(chan delivery, deliveryQueueDepth)
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		broken := false
		for d := range q {
			if broken {
				continue // drain so the reader never blocks on send
			}
			if wait := time.Until(d.at); wait > 0 {
				time.Sleep(wait)
			}
			if _, err := dst.Write(d.b); err != nil {
				broken = true
				_ = src.Close() // poison the reader; it closes q on exit
			}
		}
	}()
	defer func() {
		close(q)
		writer.Wait()
		// EOF or forced close: sever the paired direction so the peer
		// observes the failure promptly instead of waiting on a
		// half-open connection.
		_ = dst.Close()
	}()
	// Small chunks give faults sub-frame granularity: a 9-byte request
	// header and a 64 KiB weights payload both get multiple rolls.
	buf := make([]byte, 1024)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			chunk := buf[:n]
			if fp != nil {
				p.noteOps(fp.feed(chunk))
			}
			if p.partitioned(dir) {
				// Asymmetric partition: this direction is blackholed. No
				// fault rolls — the chunk never existed as far as dst can
				// tell, and the reverse direction keeps flowing.
				p.partDrops.Add(1)
				continue
			}
			if p.cfg.CloseRate > 0 && r.Float64() < p.cfg.CloseRate {
				p.closes.Add(1)
				_ = src.Close()
				return
			}
			if p.cfg.DropRate > 0 && r.Float64() < p.cfg.DropRate {
				p.drops.Add(1)
				continue
			}
			if p.cfg.CorruptRate > 0 && r.Float64() < p.cfg.CorruptRate {
				p.corruptions.Add(1)
				chunk[r.Intn(n)] ^= 0xFF
			}
			var hold time.Duration
			if p.cfg.DelayRate > 0 && r.Float64() < p.cfg.DelayRate {
				p.delays.Add(1)
				hold += time.Duration(1 + r.Intn(int(p.cfg.MaxDelay)))
			}
			// Copy out of the read buffer: the queue outlives this
			// iteration and buf is about to be overwritten.
			cp := make([]byte, n)
			copy(cp, chunk)
			q <- delivery{b: cp, at: time.Now().Add(hold)}
		}
		if err != nil {
			return
		}
	}
}

// String describes the proxy for logs.
func (p *FaultProxy) String() string {
	return fmt.Sprintf("FaultProxy(target=%s drop=%.2f delay=%.2f corrupt=%.2f close=%.2f)",
		p.target, p.cfg.DropRate, p.cfg.DelayRate, p.cfg.CorruptRate, p.cfg.CloseRate)
}
