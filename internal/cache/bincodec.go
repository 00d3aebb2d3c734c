package cache

// Hand-rolled binary codec for the three hot payload families
// (trajectories, gradients, weight vectors) plus the delta weight
// message. The wire format is documented in DESIGN.md §10; the short
// version:
//
//	[4]byte magic "SLB1"
//	u8     payload kind (1=weights 2=grad 3=trajectory 4=weights-delta)
//	u8     codec version (1)
//	u16    reserved (0)
//	u32    TLV section offset from payload start (0 = no TLV section)
//	...    kind-specific body, fixed-width little-endian fields and
//	       float64 slabs written as raw IEEE-754 bit patterns
//	...    TLV section: repeated [u8 tag][u32 len][len bytes] to the
//	       end of the payload; unknown tags are skipped
//
// TLV tag 1 carries the lineage Meta trace context (see
// lineage.Meta.AppendBinary). Everything is little-endian; float64
// values round-trip bit-exactly via math.Float64bits, which is what
// lets lockstep determinism checks pass across an encode/decode cycle.
//
// Encoders size the payload exactly, draw the backing buffer from a
// sync.Pool, and append straight-line — steady-state encoding is
// allocation-free once callers return buffers with Recycle. Decoders
// validate every count against the bytes actually remaining before
// allocating, so adversarial inputs fail with an error instead of a
// panic or an outsized allocation (FuzzBinCodecRoundTrip enforces
// this).

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"stellaris/internal/obs/lineage"
	"stellaris/internal/replay"
)

const (
	binMagic   = "SLB1"
	binVersion = 1
	binHeader  = 12 // magic + kind + version + reserved + tlvOff

	binKindWeights    = 1
	binKindGrad       = 2
	binKindTrajectory = 3
	binKindDelta      = 4

	tlvTagMeta = 1
)

// ---- frame buffer pool ----

var framePool sync.Pool

// grabFrame returns a zero-length buffer with capacity ≥ n, reusing a
// pooled one when possible.
func grabFrame(n int) []byte {
	if p, _ := framePool.Get().(*[]byte); p != nil && cap(*p) >= n {
		return (*p)[:0]
	}
	return make([]byte, 0, n)
}

// Recycle returns an encoded payload's buffer to the codec frame pool.
// Callers may recycle a buffer as soon as the bytes have been handed
// off (Client.Put writes before returning; MemCache.Put copies), and
// must not touch it afterwards. Recycling buffers the codec did not
// produce is harmless — with one exception, which is the server-side
// rule: memory handed to a store (MemCache.putOwned — a request frame's
// tail on the server, a record's frame on a follower) is shared with
// every later reader of that key and is never pooled.
func Recycle(b []byte) {
	if cap(b) == 0 {
		return
	}
	b = b[:0]
	framePool.Put(&b)
}

// ---- append-side helpers ----

func appendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func appendI64(b []byte, v int64) []byte  { return binary.LittleEndian.AppendUint64(b, uint64(v)) }
func appendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// appendF64Raw appends the raw bit patterns of xs (no count prefix).
func appendF64Raw(b []byte, xs []float64) []byte {
	for _, v := range xs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// appendF64Slab appends a u32 count followed by the raw bit patterns.
func appendF64Slab(b []byte, xs []float64) []byte {
	b = appendU32(b, uint32(len(xs)))
	return appendF64Raw(b, xs)
}

func appendBinHeader(b []byte, kind byte, tlvOff int) []byte {
	b = append(b, binMagic...)
	b = append(b, kind, binVersion, 0, 0)
	return appendU32(b, uint32(tlvOff))
}

func metaTLVSize(m *lineage.Meta) int {
	if m.IsZero() {
		return 0
	}
	return 5 + m.WireSize()
}

func appendMetaTLV(b []byte, m *lineage.Meta) []byte {
	b = append(b, tlvTagMeta)
	b = appendU32(b, uint32(m.WireSize()))
	return m.AppendBinary(b)
}

// ---- read-side helpers ----

// binReader is an error-latching cursor over one payload region. Every
// variable-length read validates its count against the bytes remaining
// BEFORE allocating, which is the codec's defense against adversarial
// length fields.
type binReader struct {
	b   []byte
	off int
	err error
}

func (r *binReader) fail(format string, args ...interface{}) {
	if r.err == nil {
		r.err = fmt.Errorf("cache: bincodec: "+format, args...)
	}
}

func (r *binReader) remaining() int { return len(r.b) - r.off }

func (r *binReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.remaining() < n {
		r.fail("truncated payload: need %d bytes at offset %d, have %d", n, r.off, r.remaining())
		return nil
	}
	s := r.b[r.off : r.off+n]
	r.off += n
	return s
}

func (r *binReader) u8() byte {
	if s := r.take(1); s != nil {
		return s[0]
	}
	return 0
}

func (r *binReader) u32() uint32 {
	if s := r.take(4); s != nil {
		return binary.LittleEndian.Uint32(s)
	}
	return 0
}

func (r *binReader) i64() int64 {
	if s := r.take(8); s != nil {
		return int64(binary.LittleEndian.Uint64(s))
	}
	return 0
}

func (r *binReader) f64() float64 {
	if s := r.take(8); s != nil {
		return math.Float64frombits(binary.LittleEndian.Uint64(s))
	}
	return 0
}

// f64Raw reads n raw float64 values (take-then-allocate).
func (r *binReader) f64Raw(n int) []float64 {
	raw := r.take(8 * n)
	if raw == nil || n == 0 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	return out
}

// f64Slab reads a u32-counted float64 slab.
func (r *binReader) f64Slab() []float64 {
	return r.f64Raw(int(r.u32()))
}

// finish enforces full consumption of the payload region.
func (r *binReader) finish() error {
	if r.err == nil && r.remaining() != 0 {
		r.fail("%d trailing bytes after payload body", r.remaining())
	}
	return r.err
}

// openBin validates the header and TLV section of a binary payload and
// returns its kind, a reader positioned over the body, and the decoded
// lineage meta (zero when absent).
func openBin(b []byte) (byte, *binReader, lineage.Meta, error) {
	var meta lineage.Meta
	if len(b) < binHeader || string(b[:4]) != binMagic {
		return 0, nil, meta, fmt.Errorf("cache: bincodec: missing %q magic", binMagic)
	}
	kind := b[4]
	if v := b[5]; v != binVersion {
		return 0, nil, meta, fmt.Errorf("cache: bincodec: unsupported codec version %d", v)
	}
	tlvOff := int(binary.LittleEndian.Uint32(b[8:12]))
	bodyEnd := len(b)
	if tlvOff != 0 {
		if tlvOff < binHeader || tlvOff > len(b) {
			return 0, nil, meta, fmt.Errorf("cache: bincodec: TLV offset %d out of range [%d,%d]", tlvOff, binHeader, len(b))
		}
		bodyEnd = tlvOff
		tlv := b[tlvOff:]
		for len(tlv) > 0 {
			if len(tlv) < 5 {
				return 0, nil, meta, fmt.Errorf("cache: bincodec: truncated TLV header (%d bytes)", len(tlv))
			}
			tag := tlv[0]
			n := int(binary.LittleEndian.Uint32(tlv[1:5]))
			tlv = tlv[5:]
			if n < 0 || n > len(tlv) {
				return 0, nil, meta, fmt.Errorf("cache: bincodec: TLV tag %d length %d exceeds %d remaining", tag, n, len(tlv))
			}
			if tag == tlvTagMeta {
				m, err := lineage.MetaFromBinary(tlv[:n])
				if err != nil {
					return 0, nil, meta, fmt.Errorf("cache: bincodec: TLV meta: %w", err)
				}
				meta = m
			} // unknown tags: skip (forward compatibility)
			tlv = tlv[n:]
		}
	}
	return kind, &binReader{b: b[binHeader:bodyEnd]}, meta, nil
}

// ---- weights ----

// EncodeWeights encodes a weight message. The buffer may be returned to
// the frame pool with Recycle once handed off. The error is always nil:
// the signature is the uniform encode-then-put shape callers share with
// EncodeTrajectory and EncodeDelta, which can fail.
func EncodeWeights(w *WeightsMsg) ([]byte, error) {
	body := 8 + 4 + 8*len(w.Weights)
	tlv := metaTLVSize(&w.Trace)
	tlvOff := 0
	if tlv > 0 {
		tlvOff = binHeader + body
	}
	buf := grabFrame(binHeader + body + tlv)
	buf = appendBinHeader(buf, binKindWeights, tlvOff)
	buf = appendI64(buf, int64(w.Version))
	buf = appendF64Slab(buf, w.Weights)
	if tlv > 0 {
		buf = appendMetaTLV(buf, &w.Trace)
	}
	return buf, nil
}

// DecodeWeights decodes and validates a weight payload.
func DecodeWeights(b []byte) (*WeightsMsg, error) {
	kind, r, meta, err := openBin(b)
	if err != nil {
		return nil, err
	}
	if kind != binKindWeights {
		return nil, fmt.Errorf("cache: bincodec: payload kind %d is not a weights message", kind)
	}
	w := &WeightsMsg{Trace: meta}
	w.Version = int(r.i64())
	w.Weights = r.f64Slab()
	if err := r.finish(); err != nil {
		return nil, err
	}
	return w, nil
}

// ---- gradients ----

// EncodeGrad encodes a gradient message (see EncodeWeights).
func EncodeGrad(g *GradMsg) ([]byte, error) {
	body := 4*8 + 4*8 + 4 + 8*len(g.Grad)
	tlv := metaTLVSize(&g.Trace)
	tlvOff := 0
	if tlv > 0 {
		tlvOff = binHeader + body
	}
	buf := grabFrame(binHeader + body + tlv)
	buf = appendBinHeader(buf, binKindGrad, tlvOff)
	buf = appendI64(buf, int64(g.LearnerID))
	buf = appendI64(buf, int64(g.BornVersion))
	buf = appendI64(buf, int64(g.Samples))
	buf = appendI64(buf, int64(g.Truncated))
	buf = appendF64(buf, g.MeanRatio)
	buf = appendF64(buf, g.MinRatio)
	buf = appendF64(buf, g.KL)
	buf = appendF64(buf, g.Entropy)
	buf = appendF64Slab(buf, g.Grad)
	if tlv > 0 {
		buf = appendMetaTLV(buf, &g.Trace)
	}
	return buf, nil
}

// DecodeGrad decodes and validates a gradient payload.
func DecodeGrad(b []byte) (*GradMsg, error) {
	kind, r, meta, err := openBin(b)
	if err != nil {
		return nil, err
	}
	if kind != binKindGrad {
		return nil, fmt.Errorf("cache: bincodec: payload kind %d is not a gradient message", kind)
	}
	g := &GradMsg{Trace: meta}
	g.LearnerID = int(r.i64())
	g.BornVersion = int(r.i64())
	g.Samples = int(r.i64())
	g.Truncated = int(r.i64())
	g.MeanRatio = r.f64()
	g.MinRatio = r.f64()
	g.KL = r.f64()
	g.Entropy = r.f64()
	g.Grad = r.f64Slab()
	if err := r.finish(); err != nil {
		return nil, err
	}
	return g, nil
}

// ---- trajectories ----

// trajLayoutColumns is the trajectory body's layout byte: whole-field
// column slabs. It is the only layout; the byte stays so a payload is
// bit-for-bit what every earlier build wrote and read.
const trajLayoutColumns = 1

// EncodeTrajectory encodes a trajectory (see EncodeWeights). Actors
// sample a fixed env, so every step must have the dimensions of the
// first; a ragged trajectory is an error.
func EncodeTrajectory(t *replay.Trajectory) ([]byte, error) {
	n := len(t.Steps)
	var obsDim, actDim, dpDim int
	if n > 0 {
		obsDim, actDim, dpDim = len(t.Steps[0].Obs), len(t.Steps[0].Action), len(t.Steps[0].DistParams)
	}
	for i := range t.Steps {
		if s := &t.Steps[i]; len(s.Obs) != obsDim || len(s.Action) != actDim || len(s.DistParams) != dpDim {
			return nil, fmt.Errorf("cache: bincodec: trajectory step %d has dimensions %d/%d/%d, step 0 has %d/%d/%d",
				i, len(s.Obs), len(s.Action), len(s.DistParams), obsDim, actDim, dpDim)
		}
	}

	body := 8 + 8 + 4 + 1             // actorID, policyVersion, nSteps, layout byte
	body += 3*4 + 8*n + 8*n + (n+7)/8 // dims, rewards, logprobs, done bitset
	body += 8 * n * (obsDim + actDim + dpDim)
	body += 4 + 8*len(t.EpisodeReturns)
	tlv := metaTLVSize(&t.Trace)
	tlvOff := 0
	if tlv > 0 {
		tlvOff = binHeader + body
	}

	buf := grabFrame(binHeader + body + tlv)
	buf = appendBinHeader(buf, binKindTrajectory, tlvOff)
	buf = appendI64(buf, int64(t.ActorID))
	buf = appendI64(buf, int64(t.PolicyVersion))
	buf = appendU32(buf, uint32(n))
	buf = append(buf, trajLayoutColumns)
	buf = appendU32(buf, uint32(obsDim))
	buf = appendU32(buf, uint32(actDim))
	buf = appendU32(buf, uint32(dpDim))
	for i := range t.Steps {
		buf = appendF64(buf, t.Steps[i].Reward)
	}
	for i := range t.Steps {
		buf = appendF64(buf, t.Steps[i].LogProb)
	}
	var acc byte
	for i := range t.Steps {
		if t.Steps[i].Done {
			acc |= 1 << (i % 8)
		}
		if i%8 == 7 {
			buf = append(buf, acc)
			acc = 0
		}
	}
	if n%8 != 0 {
		buf = append(buf, acc)
	}
	for i := range t.Steps {
		buf = appendF64Raw(buf, t.Steps[i].Obs)
	}
	for i := range t.Steps {
		buf = appendF64Raw(buf, t.Steps[i].Action)
	}
	for i := range t.Steps {
		buf = appendF64Raw(buf, t.Steps[i].DistParams)
	}
	buf = appendF64Slab(buf, t.EpisodeReturns)
	if tlv > 0 {
		buf = appendMetaTLV(buf, &t.Trace)
	}
	return buf, nil
}

// DecodeTrajectory decodes and validates a trajectory payload.
func DecodeTrajectory(b []byte) (*replay.Trajectory, error) {
	kind, r, meta, err := openBin(b)
	if err != nil {
		return nil, err
	}
	if kind != binKindTrajectory {
		return nil, fmt.Errorf("cache: bincodec: payload kind %d is not a trajectory", kind)
	}
	t := &replay.Trajectory{Trace: meta}
	t.ActorID = int(r.i64())
	t.PolicyVersion = int(r.i64())
	n := int(r.u32())
	if layout := r.u8(); layout != trajLayoutColumns {
		r.fail("unknown trajectory layout %d", layout)
	}
	obsDim := int(r.u32())
	actDim := int(r.u32())
	dpDim := int(r.u32())
	// Bound every count by the frame cap first so the products below
	// cannot overflow, then by what the buffer actually holds, before
	// trusting them for allocation sizes.
	const maxSlab = maxFrame / 8
	if r.err == nil && (n > maxSlab || obsDim > maxSlab || actDim > maxSlab || dpDim > maxSlab) {
		r.fail("trajectory counts (n=%d dims=%d/%d/%d) exceed the frame cap", n, obsDim, actDim, dpDim)
	}
	if r.err == nil {
		need := 8*n + 8*n + (n+7)/8 + 8*n*(obsDim+actDim+dpDim)
		if r.remaining() < need {
			r.fail("trajectory counts (n=%d dims=%d/%d/%d) need %d bytes, have %d", n, obsDim, actDim, dpDim, need, r.remaining())
		}
	}
	rewards := r.f64Raw(n)
	logProbs := r.f64Raw(n)
	doneBits := r.take((n + 7) / 8)
	obs := r.f64Raw(n * obsDim)
	acts := r.f64Raw(n * actDim)
	dps := r.f64Raw(n * dpDim)
	if r.err == nil && n > 0 {
		t.Steps = make([]replay.Step, n)
		for i := range t.Steps {
			s := &t.Steps[i]
			s.Reward = rewards[i]
			s.LogProb = logProbs[i]
			s.Done = doneBits[i/8]&(1<<(i%8)) != 0
			if obsDim > 0 {
				s.Obs = obs[i*obsDim : (i+1)*obsDim : (i+1)*obsDim]
			}
			if actDim > 0 {
				s.Action = acts[i*actDim : (i+1)*actDim : (i+1)*actDim]
			}
			if dpDim > 0 {
				s.DistParams = dps[i*dpDim : (i+1)*dpDim : (i+1)*dpDim]
			}
		}
	}
	t.EpisodeReturns = r.f64Slab()
	if err := r.finish(); err != nil {
		return nil, err
	}
	return t, nil
}
