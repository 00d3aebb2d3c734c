package cache

// Hand-rolled binary codec for the three hot payload families
// (trajectories, gradients, weight vectors). The wire format is
// documented in DESIGN.md §10; the short version:
//
//	[4]byte magic "SLB1"
//	u8     payload kind (1=weights 2=grad 3=trajectory; 4 is reserved)
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
// Encoders size the payload exactly, draw the backing buffer from the
// package's size-classed pool (pool.go), and append straight-line —
// steady-state encoding is allocation-free once callers return buffers
// with Recycle. Decoders read through wire.Reader, which holds every
// count to the bytes actually remaining before anything is allocated,
// so adversarial inputs fail with an error instead of a panic or an
// outsized allocation (FuzzBinCodecRoundTrip enforces this), and they
// validate the whole payload before the first float lands, so a decode
// into caller memory that fails has written nothing. Float64 slabs take
// wire's one-copy path (wire.AppendF64s, wire.F64sInto).

import (
	"encoding/binary"
	"fmt"
	"math"

	"stellaris/internal/obs/lineage"
	"stellaris/internal/replay"
	"stellaris/internal/wire"
)

const (
	binMagic   = "SLB1"
	binVersion = 1
	binHeader  = 12 // magic + kind + version + reserved + tlvOff

	binKindWeights    = 1
	binKindGrad       = 2
	binKindTrajectory = 3
	// Kind 4 was the weights delta. Nothing publishes one any more; the
	// byte stays reserved, and every decoder refuses it as unknown.

	tlvTagMeta = 1
)

// appendF64Slab appends a u32 count followed by the raw bit patterns.
func appendF64Slab(b []byte, xs []float64) []byte {
	return wire.AppendF64s(binary.LittleEndian.AppendUint32(b, uint32(len(xs))), xs)
}

func appendBinHeader(b []byte, kind byte, tlvOff int) []byte {
	b = append(b, binMagic...)
	b = append(b, kind, binVersion, 0, 0)
	return binary.LittleEndian.AppendUint32(b, uint32(tlvOff))
}

func metaTLVSize(m *lineage.Meta) int {
	if m.IsZero() {
		return 0
	}
	return 5 + m.WireSize()
}

func appendMetaTLV(b []byte, m *lineage.Meta) []byte {
	b = append(b, tlvTagMeta)
	b = binary.LittleEndian.AppendUint32(b, uint32(m.WireSize()))
	return m.AppendBinary(b)
}

// binErr prefixes an error of the payload's reader.
func binErr(err error) error { return fmt.Errorf("cache: bincodec: %w", err) }

// openBin validates the header and TLV section of a binary payload and
// returns its kind, a reader over the body, and the decoded lineage meta
// (zero when absent).
func openBin(b []byte) (byte, wire.Reader, lineage.Meta, error) {
	var meta lineage.Meta
	if len(b) < binHeader || string(b[:4]) != binMagic {
		return 0, wire.Reader{}, meta, fmt.Errorf("cache: bincodec: missing %q magic", binMagic)
	}
	if v := b[5]; v != binVersion {
		return 0, wire.Reader{}, meta, fmt.Errorf("cache: bincodec: unsupported codec version %d", v)
	}
	bodyEnd := len(b)
	if tlvOff := binary.LittleEndian.Uint32(b[8:12]); tlvOff != 0 {
		if tlvOff < binHeader || uint64(tlvOff) > uint64(len(b)) {
			return 0, wire.Reader{}, meta, fmt.Errorf("cache: bincodec: TLV offset %d out of range [%d,%d]", tlvOff, binHeader, len(b))
		}
		bodyEnd = int(tlvOff)
		tlv := wire.NewReader(b[bodyEnd:])
		for tlv.Len() > 0 {
			tag := tlv.U8()
			val := tlv.Bytes(tlv.Count(1))
			if err := tlv.Err(); err != nil {
				return 0, wire.Reader{}, meta, fmt.Errorf("cache: bincodec: TLV: %w", err)
			}
			if tag == tlvTagMeta {
				m, err := lineage.MetaFromBinary(val)
				if err != nil {
					return 0, wire.Reader{}, meta, fmt.Errorf("cache: bincodec: TLV meta: %w", err)
				}
				meta = m
			} // unknown tags: skip (forward compatibility)
		}
	}
	return b[4], wire.NewReader(b[binHeader:bodyEnd]), meta, nil
}

// f64Slab takes the raw bytes of a u32-counted float64 slab; decoding
// them is left to the caller, after the rest of the payload is checked.
func f64Slab(r *wire.Reader) []byte { return r.Bytes(8 * r.Count(8)) }

// ---- weights ----

// EncodeWeights encodes a weight message. The buffer may be returned to
// the pool with Recycle once handed off. The error is always nil: the
// signature is the uniform encode-then-put shape callers share with
// EncodeTrajectory, which can fail.
func EncodeWeights(w *WeightsMsg) ([]byte, error) {
	body := 8 + 4 + 8*len(w.Weights)
	tlv := metaTLVSize(&w.Trace)
	tlvOff := 0
	if tlv > 0 {
		tlvOff = binHeader + body
	}
	buf := getBuf(binHeader + body + tlv)[:0]
	buf = appendBinHeader(buf, binKindWeights, tlvOff)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(w.Version))
	buf = appendF64Slab(buf, w.Weights)
	if tlv > 0 {
		buf = appendMetaTLV(buf, &w.Trace)
	}
	return buf, nil
}

// DecodeWeights decodes and validates a weight payload.
func DecodeWeights(b []byte) (*WeightsMsg, error) { return DecodeWeightsInto(nil, b) }

// DecodeWeightsInto is DecodeWeights with the weights decoded into dst's
// array when it holds them (fresh memory otherwise): the message's
// Weights then alias dst, with exactly the decoded length, and nothing
// past that length is written. A payload that fails to decode leaves
// dst untouched.
func DecodeWeightsInto(dst []float64, b []byte) (*WeightsMsg, error) {
	w, raw, err := openWeights(b)
	if err != nil {
		return nil, err
	}
	w.Weights = wire.F64sInto(dst, raw)
	return w, nil
}

// openWeights validates a weights payload and returns its message with
// the weights still undecoded: raw is their slab, 8 bytes per value.
func openWeights(b []byte) (*WeightsMsg, []byte, error) {
	kind, r, meta, err := openBin(b)
	if err != nil {
		return nil, nil, err
	}
	if kind != binKindWeights {
		return nil, nil, fmt.Errorf("cache: bincodec: payload kind %d is not a weights message", kind)
	}
	w := &WeightsMsg{Trace: meta}
	w.Version = int(r.I64())
	raw := f64Slab(&r)
	if err := r.Finish(); err != nil {
		return nil, nil, binErr(err)
	}
	return w, raw, nil
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
	buf := getBuf(binHeader + body + tlv)[:0]
	buf = appendBinHeader(buf, binKindGrad, tlvOff)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(g.LearnerID))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(g.BornVersion))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(g.Samples))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(g.Truncated))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(g.MeanRatio))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(g.MinRatio))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(g.KL))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(g.Entropy))
	buf = appendF64Slab(buf, g.Grad)
	if tlv > 0 {
		buf = appendMetaTLV(buf, &g.Trace)
	}
	return buf, nil
}

// DecodeGrad decodes and validates a gradient payload.
func DecodeGrad(b []byte) (*GradMsg, error) { return DecodeGradInto(nil, b) } //lint:allow reach benchmark-only: benchmark/cachemix.go and ladder.go time it

// DecodeGradInto is DecodeGrad with the gradient decoded into dst's
// array when it holds it, as DecodeWeightsInto does: the parameter
// worker hands back vectors whose gradients have been combined.
func DecodeGradInto(dst []float64, b []byte) (*GradMsg, error) {
	kind, r, meta, err := openBin(b)
	if err != nil {
		return nil, err
	}
	if kind != binKindGrad {
		return nil, fmt.Errorf("cache: bincodec: payload kind %d is not a gradient message", kind)
	}
	g := &GradMsg{Trace: meta}
	g.LearnerID = int(r.I64())
	g.BornVersion = int(r.I64())
	g.Samples = int(r.I64())
	g.Truncated = int(r.I64())
	g.MeanRatio = r.F64()
	g.MinRatio = r.F64()
	g.KL = r.F64()
	g.Entropy = r.F64()
	raw := f64Slab(&r)
	if err := r.Finish(); err != nil {
		return nil, binErr(err)
	}
	g.Grad = wire.F64sInto(dst, raw)
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

	buf := getBuf(binHeader + body + tlv)[:0]
	buf = appendBinHeader(buf, binKindTrajectory, tlvOff)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(t.ActorID))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(t.PolicyVersion))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(n))
	buf = append(buf, trajLayoutColumns)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(obsDim))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(actDim))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(dpDim))
	for i := range t.Steps {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(t.Steps[i].Reward))
	}
	for i := range t.Steps {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(t.Steps[i].LogProb))
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
		buf = wire.AppendF64s(buf, t.Steps[i].Obs)
	}
	for i := range t.Steps {
		buf = wire.AppendF64s(buf, t.Steps[i].Action)
	}
	for i := range t.Steps {
		buf = wire.AppendF64s(buf, t.Steps[i].DistParams)
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
	t.ActorID = int(r.I64())
	t.PolicyVersion = int(r.I64())
	n := r.Count(16) // a step is at least its reward and log-prob
	if layout := r.U8(); r.Err() == nil && layout != trajLayoutColumns {
		return nil, fmt.Errorf("cache: bincodec: unknown trajectory layout %d", layout)
	}
	// One unit of a dimension is a column of n float64s, so Count holds
	// each dimension to the bytes remaining and no column size below can
	// wrap.
	col := 8 * n
	obsDim, actDim, dpDim := r.Count(col), r.Count(col), r.Count(col)
	rewards, logProbs, doneBits := r.Bytes(col), r.Bytes(col), r.Bytes((n+7)/8)
	obs, acts, dps := r.Bytes(col*obsDim), r.Bytes(col*actDim), r.Bytes(col*dpDim)
	returns := f64Slab(&r)
	if err := r.Finish(); err != nil {
		return nil, binErr(err)
	}
	if n > 0 {
		obsV, actV, dpV := wire.F64sInto(nil, obs), wire.F64sInto(nil, acts), wire.F64sInto(nil, dps)
		t.Steps = make([]replay.Step, n)
		for i := range t.Steps {
			s := &t.Steps[i]
			s.Reward = math.Float64frombits(binary.LittleEndian.Uint64(rewards[8*i:]))
			s.LogProb = math.Float64frombits(binary.LittleEndian.Uint64(logProbs[8*i:]))
			s.Done = doneBits[i/8]&(1<<(i%8)) != 0
			if obsDim > 0 {
				s.Obs = obsV[i*obsDim : (i+1)*obsDim : (i+1)*obsDim]
			}
			if actDim > 0 {
				s.Action = actV[i*actDim : (i+1)*actDim : (i+1)*actDim]
			}
			if dpDim > 0 {
				s.DistParams = dpV[i*dpDim : (i+1)*dpDim : (i+1)*dpDim]
			}
		}
	}
	t.EpisodeReturns = wire.F64sInto(nil, returns)
	return t, nil
}
