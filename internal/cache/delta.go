package cache

// Delta weight broadcast. The parameter worker publishes each new
// policy version as a diff against the previous one under
// "weights.delta/<v>", plus the full snapshot under "weights/latest"
// and a tiny head pointer under "weights/head" naming the newest
// version. Subscribers (actors, learners) poll the head: an
// unchanged head skips the fetch entirely, a short gap is closed by
// fetching the missing deltas in one batched round trip, and anything
// else — missing head (a failover onto state that lost it), broken
// chain, pruned deltas, length change — falls back to the full snapshot.
// See DESIGN.md §10.3.
//
// Delta values are the NEW float64 bit patterns at the changed indices
// (never arithmetic differences), so a reconstruction is bit-identical
// to the published vector regardless of how many deltas it applied.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strconv"
	"sync/atomic"

	"stellaris/internal/obs/lineage"
)

const (
	// KeyWeightsLatest holds the most recent full weight snapshot; the
	// lockstep pipeline publishes and reads only this key.
	KeyWeightsLatest = "weights/latest"
	// KeyWeightsHead is the head pointer: a WeightsMsg with an empty
	// weight slab whose Version names the newest published version.
	KeyWeightsHead = "weights/head"
	// weightsDeltaPrefix prefixes per-version delta keys; the delta under
	// WeightsDeltaKey(v) takes a version v-1 vector to version v.
	weightsDeltaPrefix = "weights.delta/"

	// deltaHistory is how many trailing deltas stay in the cache;
	// subscribers further behind than this full-fetch instead.
	deltaHistory = 64
	// maxDeltaChain bounds how many deltas one Fetch will chase; beyond
	// it the full snapshot is cheaper.
	maxDeltaChain = 32
)

// WeightsDeltaKey returns the cache key of the delta producing version v.
func WeightsDeltaKey(v int) string {
	return weightsDeltaPrefix + strconv.Itoa(v)
}

// DeltaMsg is one version step of the weight vector: the values that
// changed between BaseVersion (= Version-1) and Version. A nil Indices
// with len(Values) == Len is the dense form — a full replacement used
// when most weights moved, which is the common case after an optimizer
// step.
type DeltaMsg struct {
	Version     int
	BaseVersion int
	// Len is the full vector length; a delta never resizes the vector.
	Len     int
	Indices []uint32
	Values  []float64
	// Trace is the causal-tracing context (see WeightsMsg.Trace).
	Trace lineage.Meta
}

// Dense reports whether d replaces the whole vector.
func (d *DeltaMsg) Dense() bool { return d.Indices == nil }

// BuildDelta diffs next against base (same length) and returns the
// sparse or dense delta taking baseVersion to version, whichever is
// smaller on the wire. Values are compared by bit pattern, so NaNs and
// signed zeros diff exactly.
func BuildDelta(version, baseVersion int, base, next []float64) (*DeltaMsg, error) {
	if len(base) != len(next) {
		return nil, fmt.Errorf("cache: delta base has %d weights, next has %d", len(base), len(next))
	}
	d := &DeltaMsg{Version: version, BaseVersion: baseVersion, Len: len(next)}
	nnz := 0
	for i := range next {
		if math.Float64bits(next[i]) != math.Float64bits(base[i]) {
			nnz++
		}
	}
	// Sparse costs 12 bytes per changed entry, dense 8 per entry.
	if 12*nnz >= 8*len(next) {
		d.Values = next
		return d, nil
	}
	d.Indices = make([]uint32, 0, nnz)
	d.Values = make([]float64, 0, nnz)
	for i := range next {
		if math.Float64bits(next[i]) != math.Float64bits(base[i]) {
			d.Indices = append(d.Indices, uint32(i))
			d.Values = append(d.Values, next[i])
		}
	}
	return d, nil
}

// Apply patches w (which must hold d.BaseVersion's values and length)
// in place to d.Version's values. Every check runs before the first
// write, so a delta it refuses leaves w as it was.
func (d *DeltaMsg) Apply(w []float64) error {
	if len(w) != d.Len {
		return fmt.Errorf("cache: delta v%d expects %d weights, have %d", d.Version, d.Len, len(w))
	}
	if d.Dense() {
		if len(d.Values) != d.Len {
			return fmt.Errorf("cache: dense delta v%d carries %d values for %d weights", d.Version, len(d.Values), d.Len)
		}
		copy(w, d.Values)
		return nil
	}
	if len(d.Indices) != len(d.Values) {
		return fmt.Errorf("cache: sparse delta v%d has %d indices but %d values", d.Version, len(d.Indices), len(d.Values))
	}
	for _, idx := range d.Indices {
		if uint64(idx) >= uint64(len(w)) {
			return fmt.Errorf("cache: delta v%d index %d out of range [0,%d)", d.Version, idx, len(w))
		}
	}
	for i, idx := range d.Indices {
		w[idx] = d.Values[i]
	}
	return nil
}

// EncodeDelta encodes d. The buffer may be returned to the frame pool
// with Recycle once handed off.
func EncodeDelta(d *DeltaMsg) ([]byte, error) {
	if !d.Dense() && len(d.Indices) != len(d.Values) {
		return nil, fmt.Errorf("cache: sparse delta has %d indices but %d values", len(d.Indices), len(d.Values))
	}
	body := 8 + 8 + 4 + 1
	if d.Dense() {
		body += 8 * len(d.Values)
	} else {
		body += 4 + 12*len(d.Indices)
	}
	tlv := metaTLVSize(&d.Trace)
	tlvOff := 0
	if tlv > 0 {
		tlvOff = binHeader + body
	}
	buf := grabFrame(binHeader + body + tlv)
	buf = appendBinHeader(buf, binKindDelta, tlvOff)
	buf = appendI64(buf, int64(d.Version))
	buf = appendI64(buf, int64(d.BaseVersion))
	buf = appendU32(buf, uint32(d.Len))
	if d.Dense() {
		buf = append(buf, 1)
		buf = appendF64Raw(buf, d.Values)
	} else {
		buf = append(buf, 0)
		buf = appendU32(buf, uint32(len(d.Indices)))
		for _, idx := range d.Indices {
			buf = appendU32(buf, idx)
		}
		buf = appendF64Raw(buf, d.Values)
	}
	if tlv > 0 {
		buf = appendMetaTLV(buf, &d.Trace)
	}
	return buf, nil
}

// DecodeDelta decodes and validates a delta payload.
func DecodeDelta(b []byte) (*DeltaMsg, error) {
	w, err := openDelta(b)
	if err != nil {
		return nil, err
	}
	d := w.head
	d.Values = f64sInto(nil, w.vals)
	if !w.dense {
		d.Indices = make([]uint32, len(w.idx)/4) // non-nil for nnz == 0: sparse stays sparse
		for i := range d.Indices {
			d.Indices[i] = binary.LittleEndian.Uint32(w.idx[4*i:])
		}
	}
	return &d, nil
}

// deltaWire is a delta payload that passed every check DecodeDelta
// makes, its index and value slabs still in wire bytes: applyTo patches
// a vector straight from them.
type deltaWire struct {
	head  DeltaMsg // everything but Indices and Values
	dense bool
	idx   []byte // sparse: 4 bytes per index, every one < head.Len
	vals  []byte // 8 bytes per value
}

// openDelta validates a delta payload whole — header, TLV, counts,
// every sparse index against Len, trailing bytes — and returns its
// wire view.
func openDelta(b []byte) (deltaWire, error) {
	var w deltaWire
	kind, r, meta, err := openBin(b)
	if err != nil {
		return w, err
	}
	if kind != binKindDelta {
		return w, fmt.Errorf("cache: bincodec: payload kind %d is not a weights delta", kind)
	}
	w.head = DeltaMsg{Trace: meta, Version: int(r.i64()), BaseVersion: int(r.i64())}
	w.head.Len = r.count()
	switch dense := r.u8(); dense {
	case 1:
		w.dense = true
		w.vals = r.slab(w.head.Len)
	case 0:
		nnz := r.count()
		if r.err == nil && (nnz > w.head.Len || nnz > r.remaining()/12) {
			r.fail("delta nnz %d exceeds length %d or %d remaining bytes", nnz, w.head.Len, r.remaining())
		}
		w.idx = r.take(4 * nnz)
		w.vals = r.slab(nnz)
		for i := 0; r.err == nil && i < nnz; i++ {
			if idx := binary.LittleEndian.Uint32(w.idx[4*i:]); uint64(idx) >= uint64(w.head.Len) {
				r.fail("delta v%d index %d out of range [0,%d)", w.head.Version, idx, w.head.Len)
			}
		}
	default:
		r.fail("unknown delta density flag %d", dense)
	}
	if err := r.finish(); err != nil {
		return deltaWire{}, err
	}
	return w, nil
}

// applyTo patches w, which holds version head.BaseVersion, to
// head.Version. Every index was checked by openDelta, so past the
// length check nothing can fail halfway.
func (d *deltaWire) applyTo(w []float64) error {
	if len(w) != d.head.Len {
		return fmt.Errorf("cache: delta v%d expects %d weights, have %d", d.head.Version, d.head.Len, len(w))
	}
	if d.dense {
		f64sInto(w, d.vals)
		return nil
	}
	for i := 0; i < len(d.idx)/4; i++ {
		w[binary.LittleEndian.Uint32(d.idx[4*i:])] = math.Float64frombits(binary.LittleEndian.Uint64(d.vals[8*i:]))
	}
	return nil
}

// ---- publisher ----

// WeightsPublisher publishes versioned weight vectors as delta chains:
// every Publish writes the delta from the previous published version,
// the full snapshot (so a subscriber that has to full-fetch never sees
// stale weights), and finally the head pointer — all in one batched
// put, so a reader never observes a head that points past the data
// backing it. Deltas older than deltaHistory versions are pruned. Not
// safe for concurrent use (the parameter worker owns it).
type WeightsPublisher struct {
	C Cache

	prev    []float64
	prevVer int
	hasPrev bool
}

// Publish stores version's weight vector. trace stamps the snapshot and
// delta payloads (the head pointer is an untraced internal key).
func (p *WeightsPublisher) Publish(version int, w []float64, trace lineage.Meta) error {
	var kvs []KV
	var frames [][]byte
	// Delta first, snapshot second, head last: PutN lands the pairs in
	// slice order (a sharded put its same-shard runs one after another),
	// so the head never leads its data.
	if p.hasPrev && p.prevVer == version-1 && len(p.prev) == len(w) {
		d, err := BuildDelta(version, version-1, p.prev, w)
		if err != nil {
			return err
		}
		d.Trace = trace
		db, err := EncodeDelta(d)
		if err != nil {
			return err
		}
		kvs = append(kvs, KV{Key: WeightsDeltaKey(version), Val: db})
		frames = append(frames, db)
	}
	// The snapshot goes out on every publish. It is also the only data
	// that can back the head when there is no delta (first publish,
	// version gap after a failed publish or restart, vector resize).
	sb, err := EncodeWeights(&WeightsMsg{Version: version, Weights: w, Trace: trace})
	if err != nil {
		return err
	}
	kvs = append(kvs, KV{Key: KeyWeightsLatest, Val: sb})
	frames = append(frames, sb)
	hb, err := EncodeWeights(&WeightsMsg{Version: version})
	if err != nil {
		return err
	}
	kvs = append(kvs, KV{Key: KeyWeightsHead, Val: hb})
	frames = append(frames, hb)

	err = p.C.PutN(kvs)
	for _, f := range frames {
		Recycle(f)
	}
	if err != nil {
		// A partial publish may have landed; drop the delta base so the
		// next attempt ships the snapshot alone instead of chaining onto
		// uncertainty.
		p.hasPrev = false
		return err
	}
	if cap(p.prev) < len(w) {
		p.prev = make([]float64, len(w))
	}
	p.prev = p.prev[:len(w)]
	copy(p.prev, w)
	p.prevVer = version
	p.hasPrev = true
	_ = p.C.Delete(WeightsDeltaKey(version - deltaHistory))
	return nil
}

// ---- subscriber ----

// WeightsSub incrementally tracks the published weight vector: Fetch
// reads the head pointer and, when the subscriber is within
// maxDeltaChain versions, closes the gap with one batched delta fetch
// instead of re-downloading the full vector. A missing head (a shard failed over
// onto state holding the snapshot but not the pointer), a broken or
// pruned chain, or any decode failure falls back to the full snapshot.
// Not safe for concurrent use (each worker owns one).
type WeightsSub struct {
	C Cache

	w   []float64
	ver int
	ok  bool
	// buf is the one receive buffer: the head, a single delta and the
	// snapshot are read into it and decoded from it straight into w.
	buf []byte

	// deltaHits/fullFetches instrument reconstruction for tests and the
	// perf quickstart; skipped counts head-unchanged shortcuts.
	deltaHits   atomic.Int64
	fullFetches atomic.Int64
	skipped     atomic.Int64
	regressions atomic.Int64
}

// SubStats reports how a subscriber has been reconstructing weights.
type SubStats struct {
	// DeltaHits counts Fetches resolved by applying deltas only;
	// FullFetches counts full-snapshot downloads; Skipped counts Fetches
	// answered from cache because the head had not moved.
	DeltaHits   int64
	FullFetches int64
	Skipped     int64
	// Regressions counts Fetches that observed the head pointer moving
	// BACKWARDS — the signature of a failover onto a follower (or a
	// restart from older persisted state) that lost recent publishes.
	// Each one resets the subscriber and re-fetches, so staleness
	// accounting restarts from the regressed version instead of
	// silently mixing old weights with new version numbers.
	Regressions int64
}

// Stats returns the subscriber's reconstruction counters.
func (s *WeightsSub) Stats() SubStats {
	return SubStats{
		DeltaHits:   s.deltaHits.Load(),
		FullFetches: s.fullFetches.Load(),
		Skipped:     s.skipped.Load(),
		Regressions: s.regressions.Load(),
	}
}

// Cached returns the last successfully fetched vector and its version.
// The slice is owned by the subscriber — callers must not mutate it or
// retain it across Fetches.
func (s *WeightsSub) Cached() ([]float64, int, bool) { return s.w, s.ver, s.ok }

// Reset drops the cached vector, forcing the next Fetch to go full.
func (s *WeightsSub) Reset() { s.w, s.ver, s.ok = nil, 0, false }

// Fetch returns the newest available weights and their version. The
// returned slice is owned by the subscriber and is valid until the next
// Fetch, which decodes into the same array: callers must copy it if
// they mutate or retain it past that.
func (s *WeightsSub) Fetch() ([]float64, int, error) {
	head, err := s.get(KeyWeightsHead)
	if err != nil {
		var nf ErrNotFound
		if errors.As(err, &nf) {
			// No head pointer (lost in a failover, or not yet replicated):
			// "weights/latest" alone still names a valid policy.
			return s.fetchFull()
		}
		return nil, 0, err
	}
	hm, err := DecodeWeights(head)
	if err != nil {
		return s.fetchFull()
	}
	hv := hm.Version
	if s.ok && hv == s.ver {
		s.skipped.Add(1)
		return s.w, s.ver, nil
	}
	if s.ok && hv < s.ver {
		// The head moved backwards: the publisher's store lost recent
		// versions (failover to a follower, restart from older persisted
		// state). The regressed head IS the current policy now — but it
		// must be adopted deliberately, not by silently overwriting a
		// newer cached vector as if versions only ever grew. Reset so the
		// refetch starts from nothing, and count it so live.Report can
		// surface that staleness accounting has a discontinuity.
		s.regressions.Add(1)
		s.Reset()
	}
	if s.ok && hv > s.ver && hv-s.ver <= maxDeltaChain && s.applyChain(hv) {
		s.deltaHits.Add(1)
		return s.w, s.ver, nil
	}
	return s.fetchFull()
}

// applyChain fetches the deltas (s.ver, hv] and applies them in order:
// one version behind (the common case) through the receive buffer,
// further behind in one batched round trip. It reports whether the
// cached vector reached hv; on a partial or failed application the
// cached (w, ver) pair stays mutually consistent — s.ver only advances
// past deltas fully applied, and a delta that fails its checks writes
// nothing.
func (s *WeightsSub) applyChain(hv int) bool {
	if hv == s.ver+1 {
		raw, err := s.get(WeightsDeltaKey(hv))
		return err == nil && s.apply(raw)
	}
	keys := make([]string, 0, hv-s.ver)
	for v := s.ver + 1; v <= hv; v++ {
		keys = append(keys, WeightsDeltaKey(v))
	}
	vals, err := s.C.GetN(keys)
	if err != nil {
		return false
	}
	for _, raw := range vals {
		// A nil entry was pruned or never published: the chain is broken.
		if raw == nil || !s.apply(raw) {
			return false
		}
	}
	return true
}

// apply applies one encoded delta to the cached vector in place if it
// takes the cached version one step forward, and reports whether it did.
func (s *WeightsSub) apply(raw []byte) bool {
	d, err := openDelta(raw)
	if err != nil || d.head.BaseVersion != s.ver || d.head.Version != s.ver+1 || d.applyTo(s.w) != nil {
		return false
	}
	s.ver = d.head.Version
	return true
}

// fetchFull downloads the full snapshot into the cached vector and
// adopts its version. Every publish refreshes the snapshot, so it
// trails the head only for the moment a sharded batch is landing — and
// then the next Fetch closes the gap with the chain.
func (s *WeightsSub) fetchFull() ([]float64, int, error) {
	raw, err := s.get(KeyWeightsLatest)
	if err != nil {
		return nil, 0, err
	}
	msg, err := DecodeWeightsInto(s.w, raw)
	if err != nil {
		return nil, 0, err
	}
	s.w, s.ver, s.ok = msg.Weights, msg.Version, true
	s.fullFetches.Add(1)
	return s.w, s.ver, nil
}

// get reads key into the receive buffer, keeping the larger array when
// the value did not fit (or a hedged read returned fresh memory).
func (s *WeightsSub) get(key string) ([]byte, error) {
	raw, err := s.C.GetInto(key, s.buf)
	if cap(raw) > cap(s.buf) {
		s.buf = raw[:0]
	}
	return raw, err
}
