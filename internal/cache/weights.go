package cache

// Weight broadcast (DESIGN.md §10.3). The parameter worker publishes
// each new policy version as two acknowledged puts: the full vector
// under "weights/latest", then a tiny head pointer under "weights/head"
// naming its version. Subscribers (actors, learners) poll the head: an
// unchanged head skips the fetch, anything else reads the vector once,
// into the subscriber's own buffer, and adopts the version stamped in
// the vector itself. A worker binds its model's weight slab to its
// subscriber, so that buffer is the model's weights: a fetched vector is
// decoded straight into the model, and a skipped fetch copies nothing.
// The head is written only after its vector is acknowledged, so a reader
// never sees a head ahead of its data — on one shard or on several,
// whichever shards the two keys hash to.

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"stellaris/internal/obs/lineage"
	"stellaris/internal/wire"
)

const (
	// KeyWeightsLatest holds the most recent full weight vector.
	KeyWeightsLatest = "weights/latest"
	// KeyWeightsHead is the head pointer: a WeightsMsg with an empty
	// weight slab whose Version names the newest published version.
	KeyWeightsHead = "weights/head"
)

// DeltaMsg is the diff BuildDelta computes between two versions of the
// weight vector. Nothing publishes or applies a delta.
type DeltaMsg struct { //lint:allow reach benchmark-only: benchmark/ladder.go times BuildDelta
	Version     int
	BaseVersion int
	Len         int
	// A nil Indices with len(Values) == Len is the dense form.
	Indices []uint32
	Values  []float64
}

// BuildDelta diffs next against base (same length) and returns the
// sparse or dense delta taking baseVersion to version, whichever is
// smaller: 12 bytes per changed entry against 8 per entry. Values are
// compared by bit pattern, so NaNs and signed zeros diff exactly.
func BuildDelta(version, baseVersion int, base, next []float64) (*DeltaMsg, error) { //lint:allow reach benchmark-only: benchmark/ladder.go times it
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

// ---- publisher ----

// WeightsPublisher publishes versioned weight vectors: the vector, then
// its head.
type WeightsPublisher struct {
	C Cache
}

// Publish stores version's weight vector, then the head naming it. trace
// stamps the vector (the head pointer is an untraced internal key). On an
// error the head may still name the previous version: a subscriber that
// holds it keeps serving its copy, and the next Publish moves it on.
func (p *WeightsPublisher) Publish(version int, w []float64, trace lineage.Meta) error {
	if err := p.put(KeyWeightsLatest, &WeightsMsg{Version: version, Weights: w, Trace: trace}); err != nil {
		return err
	}
	return p.put(KeyWeightsHead, &WeightsMsg{Version: version})
}

func (p *WeightsPublisher) put(key string, m *WeightsMsg) error {
	b, err := EncodeWeights(m)
	if err != nil {
		return err
	}
	err = p.C.Put(key, b)
	Recycle(b)
	return err
}

// ---- subscriber ----

// WeightsSub tracks the published weight vector: Fetch reads the head
// pointer and reads the vector only when the head has moved. Not safe for
// concurrent use (each worker owns one).
type WeightsSub struct {
	C Cache

	w   []float64
	ver int
	ok  bool
	// bound says w is a model's weight slab (Bind): every fetch decodes
	// into it, and a vector of another length is refused.
	bound bool
	// head is the head version the cached vector was fetched under. It
	// trails ver when the vector was read between the publisher's two
	// puts.
	head int
	// buf is the one receive buffer: the head and the vector are read
	// into it, and the vector decoded from it straight into w.
	buf []byte

	fullFetches atomic.Int64
	skipped     atomic.Int64
	regressions atomic.Int64
}

// SubStats reports how a subscriber has been fetching weights.
type SubStats struct {
	// DeltaHits is always 0.
	DeltaHits int64 //lint:allow reach benchmark-only: benchmark/cachemix.go reads it
	// FullFetches counts vector reads; Skipped counts Fetches answered
	// from the cached copy because the head had not moved past it.
	FullFetches int64
	Skipped     int64
	// Regressions counts Fetches that observed the head pointer moving
	// BACKWARDS — the signature of a failover onto a follower that lost
	// recent publishes.
	// Each one resets the subscriber and re-fetches, so staleness
	// accounting restarts from the regressed version instead of
	// silently mixing old weights with new version numbers.
	Regressions int64
}

// Stats returns the subscriber's fetch counters.
func (s *WeightsSub) Stats() SubStats {
	return SubStats{
		FullFetches: s.fullFetches.Load(),
		Skipped:     s.skipped.Load(),
		Regressions: s.regressions.Load(),
	}
}

// Cached returns the last successfully fetched vector and its version.
// The slice is the subscriber's array (the bound one after Bind) —
// callers must not mutate it or retain it across Fetches.
func (s *WeightsSub) Cached() ([]float64, int, bool) { return s.w, s.ver, s.ok }

// Bind makes w the array every Fetch decodes into: a worker binds its
// model's weight slab, so the cached copy and the model's weights are
// one vector. A published vector of another length is then refused
// before a byte of it lands, leaving w and Cached as they were.
func (s *WeightsSub) Bind(w []float64) { s.w, s.bound = w, true }

// Reset drops the cached copy, forcing the next Fetch to read the
// vector. The array stays, and the next Fetch decodes into it.
func (s *WeightsSub) Reset() { s.ver, s.head, s.ok = 0, 0, false }

// Fetch returns the newest available weights and their version. The
// returned slice is the subscriber's array (the bound one after Bind)
// and is valid until the next Fetch, which decodes into the same array:
// callers must copy it if they mutate or retain it past that. A failed
// Fetch leaves the cached (weights, version) pair as it was.
func (s *WeightsSub) Fetch() ([]float64, int, error) {
	raw, err := s.get(KeyWeightsHead)
	if err != nil && !errors.As(err, new(ErrNotFound)) {
		return nil, 0, err
	}
	// No head (lost in a failover, or not yet replicated) or an unreadable
	// one: "weights/latest" alone still names a valid policy.
	hv, haveHead := 0, false
	if err == nil {
		if hm, err := DecodeWeights(raw); err == nil {
			hv, haveHead = hm.Version, true
		}
	}
	if haveHead && s.ok {
		switch {
		case hv >= s.head && hv <= s.ver:
			s.skipped.Add(1)
			return s.w, s.ver, nil
		case hv < s.head:
			// The head moved backwards: the publisher's store lost recent
			// versions (failover to a follower). The regressed head IS the
			// current policy now — but it must be adopted deliberately, not
			// by silently overwriting a newer cached vector as if versions
			// only ever grew. Reset so the refetch starts from nothing, and
			// count it so live.Report can surface that staleness accounting
			// has a discontinuity.
			s.regressions.Add(1)
			s.Reset()
		}
	}
	raw, err = s.get(KeyWeightsLatest)
	if err != nil {
		return nil, 0, err
	}
	msg, slab, err := openWeights(raw)
	if err != nil {
		return nil, 0, err
	}
	if s.bound && len(slab) != 8*len(s.w) {
		return nil, 0, fmt.Errorf("cache: weights v%d hold %d values, the bound model %d", msg.Version, len(slab)/8, len(s.w))
	}
	msg.Weights = wire.F64sInto(s.w, slab)
	if !haveHead {
		hv = msg.Version
	}
	s.w, s.ver, s.head, s.ok = msg.Weights, msg.Version, hv, true
	s.fullFetches.Add(1)
	return s.w, s.ver, nil
}

// get reads key into the receive buffer, keeping the larger array when
// the value did not fit.
func (s *WeightsSub) get(key string) ([]byte, error) {
	raw, err := s.C.GetInto(key, s.buf)
	if cap(raw) > cap(s.buf) {
		s.buf = raw[:0]
	}
	return raw, err
}
