package cache

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"stellaris/internal/obs/lineage"
	"stellaris/internal/wire"
)

// bothSlabPaths runs f on the copy path (wire.SlabIsMemory as detected) and
// again with it forced off, so that the one-copy slab ≡ the per-element
// loop ≡ the wire format. On a big-endian host the copy leg skips.
func bothSlabPaths(t *testing.T, f func(t *testing.T)) {
	t.Run("copy", func(t *testing.T) {
		if !wire.SlabIsMemory {
			t.Skip("big-endian host: the per-element loop is the only path here")
		}
		f(t)
	})
	t.Run("loop", func(t *testing.T) {
		defer func(was bool) { wire.SlabIsMemory = was }(wire.SlabIsMemory)
		wire.SlabIsMemory = false
		f(t)
	})
}

// slabSpecials are the bit patterns a slab must carry unchanged: NaNs
// with payloads (quiet, signalling, negative), ±0, denormals, ±Inf and
// the extremes.
var slabSpecials = []uint64{
	0x0000000000000000, 0x8000000000000000, // ±0
	0x0000000000000001, 0x800fffffffffffff, // denormals
	0x7ff0000000000000, 0xfff0000000000000, // ±Inf
	0x7ff8000000000000, 0x7ff0000000000001, 0xfff8deadbeef0001, // NaNs
	0x7fefffffffffffff, 0x0010000000000000, 0x3ff0000000000000, // max, min normal, 1
}

// slabCanary fills memory a decode must not reach.
var slabCanary = math.Float64frombits(0x7ff4c0ffeec0ffee)

func canaries(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = slabCanary
	}
	return out
}

// requireBits fails unless got holds exactly the bit patterns of want.
func requireBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: value %d is %#016x, want %#016x", what, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

// TestSlabPathsAgreeBitForBit holds both slab paths to the wire format
// written out by hand, on every special value, with the slab at odd
// offsets of larger buffers on both sides and canaries past the vector.
func TestSlabPathsAgreeBitForBit(t *testing.T) {
	xs := make([]float64, len(slabSpecials))
	var slab []byte
	for i, b := range slabSpecials {
		xs[i] = math.Float64frombits(b)
		slab = binary.LittleEndian.AppendUint64(slab, b)
	}
	bothSlabPaths(t, func(t *testing.T) {
		for _, off := range []int{0, 1, 3, 7} {
			prefix := filled(0xa5, off)
			enc := wire.AppendF64s(append([]byte(nil), prefix...), xs)
			if !bytes.Equal(enc[:off], prefix) || !bytes.Equal(enc[off:], slab) {
				t.Fatalf("offset %d: encoded % x, want % x", off, enc[off:], slab)
			}
			src := append(append(filled(0x5a, off), slab...), filled(0x5a, 5)...)
			back := canaries(len(xs) + 3)
			got := wire.F64sInto(back[:1], src[off:off+len(slab)])
			if &got[0] != &back[0] {
				t.Fatalf("offset %d: a vector with room was not reused", off)
			}
			requireBits(t, fmt.Sprintf("offset %d", off), got, xs)
			requireBits(t, fmt.Sprintf("offset %d, past the vector", off), back[len(xs):], canaries(3))
		}
	})
}

// TestDecodeWeightsInto: the decode reuses dst's array when it fits,
// sets the length exactly and writes nothing past it; a payload that
// fails to decode leaves every byte of dst as it was.
func TestDecodeWeightsInto(t *testing.T) {
	want := []float64{1.5, math.Inf(-1), math.Copysign(0, -1), 5e-324}
	bothSlabPaths(t, func(t *testing.T) {
		b, err := EncodeWeights(&WeightsMsg{Version: 3, Weights: want,
			Trace: lineage.Meta{ID: "weights/3", Kind: lineage.KindWeights, Origin: "param"}})
		if err != nil {
			t.Fatal(err)
		}
		host := append(append(filled(0xee, 3), b...), filled(0xee, 5)...)
		payload := host[3 : 3+len(b)]
		for _, tc := range []struct {
			name  string
			dst   []float64
			reuse bool
		}{
			{"nil", nil, false},
			{"short", canaries(3), false},
			{"exact", canaries(4), true},
			{"oversized", canaries(7), true},
		} {
			before := append([]float64(nil), tc.dst...)
			msg, err := DecodeWeightsInto(tc.dst, payload)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if msg.Version != 3 || msg.Trace.ID != "weights/3" {
				t.Fatalf("%s: decoded v%d trace %q", tc.name, msg.Version, msg.Trace.ID)
			}
			requireBits(t, tc.name, msg.Weights, want)
			if reused := tc.dst != nil && &msg.Weights[0] == &tc.dst[0]; reused != tc.reuse {
				t.Fatalf("%s: reused dst = %v, want %v", tc.name, reused, tc.reuse)
			}
			if tc.reuse {
				requireBits(t, tc.name+", past the weights", tc.dst[len(want):], before[len(want):])
			} else {
				requireBits(t, tc.name+", untouched dst", tc.dst, before)
			}
		}

		plain, err := EncodeWeights(&WeightsMsg{Version: 3, Weights: want})
		if err != nil {
			t.Fatal(err)
		}
		grad, err := EncodeGrad(&GradMsg{Grad: want})
		if err != nil {
			t.Fatal(err)
		}
		badTLV := append([]byte(nil), b...)
		tlvOff := binary.LittleEndian.Uint32(badTLV[8:12])
		binary.LittleEndian.PutUint32(badTLV[tlvOff+1:], 1<<20)
		overcount := append([]byte(nil), plain...)
		binary.LittleEndian.PutUint32(overcount[binHeader+8:], uint32(len(want)+1))
		for name, bad := range map[string][]byte{
			"truncated":        plain[:len(plain)-1],
			"trailing byte":    append(append([]byte(nil), plain...), 0),
			"traced, trailing": append(append([]byte(nil), b...), 0),
			"wrong kind":       grad,
			"bad TLV":          badTLV,
			"count past body":  overcount,
		} {
			dst := canaries(4)
			if msg, err := DecodeWeightsInto(dst, bad); err == nil {
				t.Fatalf("%s: decoded %+v", name, msg)
			}
			requireBits(t, name, dst, canaries(4))
		}
	})
}

// TestCraftedCountsFailCleanly: a count no payload could back is an
// error from every decoder, never a panic or an allocation of its size —
// including counts whose byte size wraps a 32-bit int (2^29+1 floats is
// 8 bytes there) and counts a 32-bit int reads as negative. `make cross`
// runs this under GOARCH=386.
func TestCraftedCountsFailCleanly(t *testing.T) {
	u32 := func(v uint32) []byte { return binary.LittleEndian.AppendUint32(nil, v) }
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	hdr := func(kind byte) []byte { return appendBinHeader(nil, kind, 0) }
	i64, body := make([]byte, 8), make([]byte, 8)
	cases := map[string][]byte{
		// Within the frame cap each, past it together: 2^25 steps of 3·2^25
		// values is 2^55 bytes, which wraps 32 bits many times over.
		"trajectory dims product": cat(hdr(binKindTrajectory), i64, i64, u32(1<<25), []byte{1},
			u32(1<<25), u32(1<<25), u32(1<<25), body),
	}
	for _, n := range []uint32{1<<29 + 1, 1<<31 + 1, math.MaxUint32} {
		cases[fmt.Sprintf("weights count %d", n)] = cat(hdr(binKindWeights), i64, u32(n), body)
		cases[fmt.Sprintf("grad count %d", n)] = cat(hdr(binKindGrad), make([]byte, 64), u32(n), body)
		cases[fmt.Sprintf("trajectory steps %d", n)] = cat(hdr(binKindTrajectory), i64, i64, u32(n), []byte{1},
			u32(1), u32(1), u32(1), body)
		cases[fmt.Sprintf("trajectory obs dim %d", n)] = cat(hdr(binKindTrajectory), i64, i64, u32(1), []byte{1},
			u32(n), u32(0), u32(0), body)
		cases[fmt.Sprintf("trajectory returns %d", n)] = cat(hdr(binKindTrajectory), i64, i64, u32(0), []byte{1},
			u32(0), u32(0), u32(0), u32(n), body)
	}
	bothSlabPaths(t, func(t *testing.T) {
		for name, in := range cases {
			if m, err := DecodeWeights(in); err == nil {
				t.Errorf("%s: DecodeWeights = %+v", name, m)
			}
			if m, err := DecodeGrad(in); err == nil {
				t.Errorf("%s: DecodeGrad = %+v", name, m)
			}
			if m, err := DecodeTrajectory(in); err == nil {
				t.Errorf("%s: DecodeTrajectory = %+v", name, m)
			}
		}
	})
}
