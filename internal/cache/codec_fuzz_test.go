package cache

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// floatsFromBytes packs data into float64 words, replacing NaN (it
// round-trips, but NaN != NaN makes comparison ambiguous) with a fixed
// finite value. Capped so a huge fuzz input cannot balloon the encode.
func floatsFromBytes(data []byte, max int) []float64 {
	n := len(data) / 8
	if n > max {
		n = max
	}
	if n == 0 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		v := math.Float64frombits(binary.LittleEndian.Uint64(data[i*8:]))
		if math.IsNaN(v) {
			v = 0.125
		}
		out[i] = v
	}
	return out
}

func float64sEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameFloat(a[i], b[i]) {
			return false
		}
	}
	return true
}

// sameFloat treats ±0 as distinct and has no NaN inputs by
// construction; bit equality is the round-trip contract.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// FuzzFrameDecode hammers the length-prefixed wire framing (net.go)
// with raw bytes: readFrame/readResp must error on garbage, never
// panic or over-allocate past the frame cap, and a frame they accept
// must re-encode to the same bytes they consumed.
func FuzzFrameDecode(f *testing.F) {
	if testing.Short() {
		f.Skip("frame fuzz corpus replay skipped in -short")
	}
	var good bytes.Buffer
	if err := writeFrame(&good, 'P', "weights/latest", []byte("payload")); err != nil {
		f.Fatal(err)
	}
	f.Add(good.Bytes())
	f.Add([]byte{0, 0, 0, 5, 'G', 0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := readFrame(bytes.NewReader(data))
		if err == nil {
			var buf bytes.Buffer
			if err := writeFrame(&buf, fr.op, fr.key, fr.value); err != nil {
				t.Fatalf("writeFrame(readFrame): %v", err)
			}
			if !bytes.Equal(buf.Bytes(), data[:buf.Len()]) {
				t.Fatalf("frame re-encode mismatch:\n got %x\nwant %x", buf.Bytes(), data[:buf.Len()])
			}
		}
		_, _, _ = readResp(bytes.NewReader(data))
	})
}
