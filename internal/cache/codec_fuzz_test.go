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
// panic or over-allocate past the frame cap, a frame they accept must
// re-encode to the same bytes they consumed, and a server must answer
// it — whatever its value field holds, a batch blob or a fenced
// envelope around one included — with one well-formed response.
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
	// A 'p' blob and a 'T'-wrapped one, each intact and with its last
	// value length one past the end of the frame.
	blob := appendPutNBlob(nil, []KV{{Key: "traj/0/1", Val: []byte("first")}, {Key: "traj/0/2", Val: []byte("second")}})
	past := append([]byte(nil), blob...)
	past[len(past)-len("second")-1]++
	for _, b := range [][]byte{blob, past} {
		for _, term := range []int64{0, 7} {
			good.Reset()
			fw := frameWriter{w: &good}
			fw.request(request{op: 'p', term: term, val: b})
			if err := fw.flush(); err != nil {
				f.Fatal(err)
			}
			f.Add(append([]byte(nil), good.Bytes()...))
		}
	}
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
			if fr.op != 'R' { // 'R' is not handled: it takes the connection over
				buf.Reset()
				fw := frameWriter{w: &buf}
				NewServer(nil).handle(&fw, fr)
				if err := fw.flush(); err != nil {
					t.Fatal(err)
				}
				if _, _, err := readResp(&buf); err != nil || buf.Len() != 0 {
					t.Fatalf("op %q answered with a malformed response (%v, %d bytes over)", fr.op, err, buf.Len())
				}
			}
		}
		_, _, _ = readResp(bytes.NewReader(data))
	})
}
