// Durable MemCache state: snapshot + append-only op log.
//
// A persistent MemCache journals every mutation (Put/Delete) to an
// append-only file (AOF) and periodically compacts it into a full
// snapshot, so `stellaris-cached -persist <dir>` recovers its entire
// keyspace after a crash or restart. The layout in the persistence
// directory:
//
//	cache.snap  full state at the last compaction
//	            magic "STLSNAP1" | u32 version | u64 payloadLen
//	            | payload | u32 CRC-32(payload)
//	            payload = u32 count | count × (u32 keyLen | key
//	                    | u32 valLen | val)
//	cache.aof   mutations since the snapshot, one record each:
//	            u32 bodyLen | body | u32 CRC-32(body)
//	            body = u8 op ('P'/'D') | u32 keyLen | key
//	                 | u32 valLen | val
//
// Recovery loads the snapshot, replays the AOF, and stops at the first
// torn or corrupt record — a crash mid-append loses at most the final
// record, never the keyspace. The torn tail is truncated away and the
// store compacts immediately so the next crash window starts clean.
//
// Appends are buffered and flushed to the OS per operation but only
// fsynced at compaction and Close: the durability target is process
// restarts and kills (the chaos suite's failure model), not power loss.
package cache

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"stellaris/internal/obs"
)

const (
	aofPut    byte = 'P'
	aofDelete byte = 'D'
	// aofReset clears the entire store. It opens every replication
	// full-sync (the follower may hold stale state from a previous
	// leader) and never appears in an AOF: a persistent store reacts to
	// it by compacting to an empty snapshot instead of journaling.
	aofReset byte = 'S'
)

const (
	snapMagic = "STLSNAP1"
	// snapVersion 2 is the value section alone; version 1 followed it
	// with a counter section and is refused by loadSnapshot.
	snapVersion = 2
	snapName    = "cache.snap"
	aofName     = "cache.aof"

	// maxRecord bounds replay allocations (matches the protocol frame cap).
	maxRecord = 256 << 20

	// Compaction triggers: whichever of ops-since-snapshot or AOF bytes
	// trips first folds the log into a fresh snapshot.
	compactOps   = 16384
	compactBytes = 8 << 20
)

// persister owns the on-disk files. All methods are called with the
// owning MemCache's mutex held, so no internal locking is needed.
type persister struct {
	dir string
	aof *os.File
	bw  *bufio.Writer

	// ops and aofBytes track the live AOF since the last compaction.
	ops      int64
	aofBytes int64

	// replayed is the op count recovered at open, surfaced when
	// instrumentation attaches.
	replayed int64

	snapshots *obs.Counter
	replayedC *obs.Counter
	appendedC *obs.Counter
	aofBytesG *obs.Gauge
}

// NewPersistentMemCache opens (or creates) a durable MemCache backed by
// dir. Existing state is recovered — snapshot first, then the op log —
// and compacted before the store is returned.
func NewPersistentMemCache(dir string) (*MemCache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cache: mkdir %s: %w", dir, err)
	}
	c := NewMemCache()
	p := &persister{dir: dir}

	if err := p.loadSnapshot(c); err != nil {
		return nil, err
	}
	replayed, err := p.replayAOF(c)
	if err != nil {
		return nil, err
	}
	p.replayed = replayed

	aof, err := os.OpenFile(filepath.Join(dir, aofName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("cache: open aof: %w", err)
	}
	p.aof = aof
	p.bw = bufio.NewWriter(aof)
	c.p = p

	// Fold whatever was recovered into a fresh snapshot + empty log so
	// every open starts a clean crash window.
	c.mu.Lock()
	err = p.compact(c.data)
	c.mu.Unlock()
	if err != nil {
		p.closeFiles()
		return nil, err
	}
	return c, nil
}

// InstrumentPersistence publishes the store's durability metrics into
// reg: snapshots written, ops replayed at recovery, ops appended, and
// the current AOF size. No-op for a non-persistent store.
func (c *MemCache) InstrumentPersistence(reg *obs.Registry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.p == nil {
		return
	}
	c.p.snapshots = reg.Counter("cache_persist_snapshots_total", "snapshot compactions written")
	c.p.replayedC = reg.Counter("cache_persist_replayed_ops_total", "op-log records replayed at recovery")
	c.p.appendedC = reg.Counter("cache_persist_appended_ops_total", "mutations appended to the op log")
	c.p.aofBytesG = reg.Gauge("cache_persist_aof_bytes", "current append-only log size in bytes")
	c.p.replayedC.Add(c.p.replayed)
}

// Persistent reports whether the store journals to disk.
func (c *MemCache) Persistent() bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.p != nil
}

// Close flushes and fsyncs the op log and detaches persistence; the
// store remains usable in-memory. Safe to call on a non-persistent
// store and safe to call twice.
func (c *MemCache) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.p == nil {
		return nil
	}
	err := c.p.closeFiles()
	c.p = nil
	return err
}

// logLocked appends one mutation record and fans it out to any attached
// replication taps; called with c.mu held. Tap dispatch comes first so
// followers hear about a mutation even when its local journaling fails
// — memory is the source of truth, and the taps mirror memory. Nil
// persister (in-memory store) skips the journal.
func (c *MemCache) logLocked(op byte, key string, val *value) error {
	c.tapLocked(op, key, val)
	if c.p == nil {
		return nil
	}
	if err := c.p.append(op, key, val.bytes()); err != nil {
		return fmt.Errorf("cache: persist %c %q: %w", op, key, err)
	}
	if c.p.ops >= compactOps || c.p.aofBytes >= compactBytes {
		if err := c.p.compact(c.data); err != nil {
			return fmt.Errorf("cache: compact: %w", err)
		}
	}
	return nil
}

// appendRecord appends one CRC-framed mutation record to b:
// u32 bodyLen | body | u32 CRC-32(body), body = u8 op | u32 keyLen |
// key | u32 valLen | val. The same framing is the AOF's on-disk format
// and the replication stream's payload format (replica.go), so a
// follower applies exactly what a crash recovery would replay.
func appendRecord(b []byte, op byte, key string, val []byte) []byte {
	start := len(b) + 4
	b = append(appendRecordHeader(b, op, key, len(val)), val...)
	return binary.BigEndian.AppendUint32(b, crc32.ChecksumIEEE(b[start:]))
}

// appendRecordHeader appends everything of a record that precedes its
// value; the replication stream sends the value from the store's own
// slice (frameWriter.record) instead of copying it behind the header.
func appendRecordHeader(b []byte, op byte, key string, valLen int) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(1+4+len(key)+4+valLen))
	b = append(b, op)
	b = binary.BigEndian.AppendUint32(b, uint32(len(key)))
	b = append(b, key...)
	return binary.BigEndian.AppendUint32(b, uint32(valLen))
}

// recordSize is the encoded size of a record.
func recordSize(key string, val []byte) int { return 4 + 1 + 4 + len(key) + 4 + len(val) + 4 }

// scanRecord parses the CRC-framed record at the start of b. It returns
// the bytes consumed, or n == 0 when b does not start with a complete,
// checksum-valid record — torn tail and corruption look the same to the
// caller, which is the point: both AOF replay and the replication
// stream stop trusting the input there. The returned key and val alias
// b; callers that retain them must copy.
func scanRecord(b []byte) (op byte, key []byte, val []byte, n int) {
	if len(b) < 4 {
		return 0, nil, nil, 0
	}
	blen := int(binary.BigEndian.Uint32(b))
	if blen < 9 || blen > maxRecord || 4+blen+4 > len(b) {
		return 0, nil, nil, 0
	}
	body := b[4 : 4+blen]
	if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(b[4+blen:]) {
		return 0, nil, nil, 0
	}
	op = body[0]
	kl := int(binary.BigEndian.Uint32(body[1:]))
	if 5+kl+4 > blen {
		return 0, nil, nil, 0
	}
	key = body[5 : 5+kl]
	vl := int(binary.BigEndian.Uint32(body[5+kl:]))
	if 5+kl+4+vl > blen {
		return 0, nil, nil, 0
	}
	val = body[5+kl+4 : 5+kl+4+vl]
	return op, key, val, 4 + blen + 4
}

func (p *persister) append(op byte, key string, val []byte) error {
	rec := appendRecord(make([]byte, 0, recordSize(key, val)), op, key, val)
	if _, err := p.bw.Write(rec); err != nil {
		return err
	}
	if err := p.bw.Flush(); err != nil {
		return err
	}
	p.ops++
	p.aofBytes += int64(len(rec))
	if p.appendedC != nil {
		p.appendedC.Inc()
		p.aofBytesG.Set(float64(p.aofBytes))
	}
	return nil
}

// compact writes a full snapshot of the given state and truncates the
// op log. Called with the owning cache's mutex held, which is what lets
// it read the values without references of their own.
func (p *persister) compact(data map[string]*value) error {
	if err := p.writeSnapshot(data); err != nil {
		return err
	}
	if p.aof != nil {
		if err := p.aof.Truncate(0); err != nil {
			return err
		}
		if _, err := p.aof.Seek(0, io.SeekStart); err != nil {
			return err
		}
		if err := p.aof.Sync(); err != nil {
			return err
		}
		p.bw.Reset(p.aof)
	}
	p.ops = 0
	p.aofBytes = 0
	if p.snapshots != nil {
		p.snapshots.Inc()
		p.aofBytesG.Set(0)
	}
	return nil
}

func (p *persister) writeSnapshot(data map[string]*value) error {
	payload := make([]byte, 0, 1024)
	payload = binary.BigEndian.AppendUint32(payload, uint32(len(data)))
	for k, v := range data {
		payload = binary.BigEndian.AppendUint32(payload, uint32(len(k)))
		payload = append(payload, k...)
		payload = binary.BigEndian.AppendUint32(payload, uint32(len(v.b)))
		payload = append(payload, v.b...)
	}

	out := make([]byte, 0, len(snapMagic)+4+8+len(payload)+4)
	out = append(out, snapMagic...)
	out = binary.BigEndian.AppendUint32(out, snapVersion)
	out = binary.BigEndian.AppendUint64(out, uint64(len(payload)))
	out = append(out, payload...)
	out = binary.BigEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))

	path := filepath.Join(p.dir, snapName)
	tmp, err := os.CreateTemp(p.dir, ".snap-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(out); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	if d, err := os.Open(p.dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
	return nil
}

// loadSnapshot restores the snapshot file into c, if one exists. A
// corrupt snapshot is an error: the AOF is relative to it, so silently
// starting empty would resurrect deleted keys on replay.
func (p *persister) loadSnapshot(c *MemCache) error {
	b, err := os.ReadFile(filepath.Join(p.dir, snapName))
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("cache: read snapshot: %w", err)
	}
	hdr := len(snapMagic) + 4 + 8
	if len(b) < hdr+4 || string(b[:len(snapMagic)]) != snapMagic {
		return errors.New("cache: snapshot corrupt (bad header)")
	}
	if v := binary.BigEndian.Uint32(b[len(snapMagic):]); v != snapVersion {
		return fmt.Errorf("cache: snapshot version %d unsupported", v)
	}
	plen := binary.BigEndian.Uint64(b[len(snapMagic)+4:])
	if plen > maxRecord || hdr+int(plen)+4 != len(b) {
		return errors.New("cache: snapshot corrupt (bad length)")
	}
	payload := b[hdr : hdr+int(plen)]
	if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(b[hdr+int(plen):]) {
		return errors.New("cache: snapshot corrupt (checksum mismatch)")
	}

	off := 0
	u32 := func() (uint32, bool) {
		if off+4 > len(payload) {
			return 0, false
		}
		v := binary.BigEndian.Uint32(payload[off:])
		off += 4
		return v, true
	}
	str := func(n uint32) (string, bool) {
		if off+int(n) > len(payload) {
			return "", false
		}
		s := string(payload[off : off+int(n)])
		off += int(n)
		return s, true
	}
	corrupt := errors.New("cache: snapshot corrupt (truncated payload)")

	nd, ok := u32()
	if !ok {
		return corrupt
	}
	for i := uint32(0); i < nd; i++ {
		kl, ok := u32()
		if !ok {
			return corrupt
		}
		k, ok := str(kl)
		if !ok {
			return corrupt
		}
		vl, ok := u32()
		if !ok || off+int(vl) > len(payload) {
			return corrupt
		}
		c.data[k] = newValue(append([]byte(nil), payload[off:off+int(vl)]...), nil)
		off += int(vl)
	}
	return nil
}

// replayAOF applies the op log on top of the snapshot state, stopping at
// the first torn or corrupt record and truncating the file there. It
// returns the number of records applied.
func (p *persister) replayAOF(c *MemCache) (int64, error) {
	path := filepath.Join(p.dir, aofName)
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("cache: read aof: %w", err)
	}

	var applied int64
	off := 0
	for {
		op, kb, val, n := scanRecord(b[off:])
		if n == 0 {
			break // clean end or torn tail
		}
		key := string(kb)
		switch op {
		case aofPut:
			c.data[key] = newValue(append([]byte(nil), val...), nil)
		case aofDelete:
			delete(c.data, key)
		default:
			// Unknown op: treat as corruption, stop here.
			return applied, truncateTo(path, off)
		}
		off += n
		applied++
	}
	if off < len(b) {
		if err := truncateTo(path, off); err != nil {
			return applied, err
		}
	}
	return applied, nil
}

func truncateTo(path string, n int) error {
	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("cache: truncate torn aof: %w", err)
	}
	defer f.Close()
	if err := f.Truncate(int64(n)); err != nil {
		return fmt.Errorf("cache: truncate torn aof: %w", err)
	}
	return f.Sync()
}

func (p *persister) closeFiles() error {
	if p.aof == nil {
		return nil
	}
	err := p.bw.Flush()
	if serr := p.aof.Sync(); err == nil {
		err = serr
	}
	if cerr := p.aof.Close(); err == nil {
		err = cerr
	}
	p.aof = nil
	return err
}
