package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"
)

func u32(v uint32) []byte { return binary.LittleEndian.AppendUint32(nil, v) }

// TestReaderReadsLittleEndian: each fixed-width read takes its bytes in
// order, little-endian, and Finish accepts a fully read input.
func TestReaderReadsLittleEndian(t *testing.T) {
	var b []byte
	b = append(b, 7)
	b = binary.LittleEndian.AppendUint32(b, 0xdeadbeef)
	b = binary.LittleEndian.AppendUint64(b, 0x0102030405060708)
	b = binary.LittleEndian.AppendUint64(b, uint64(math.MaxUint64)) // -1
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(-2.5))
	b = append(append(b, u32(3)...), "abc"...)
	b = append(b, u32(2)...)
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(1))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(math.Inf(-1)))
	b = append(b, 9, 9)

	r := NewReader(b)
	if v := r.U8(); v != 7 {
		t.Fatalf("U8 = %d", v)
	}
	if v := r.U32(); v != 0xdeadbeef {
		t.Fatalf("U32 = %#x", v)
	}
	if v := r.U64(); v != 0x0102030405060708 {
		t.Fatalf("U64 = %#x", v)
	}
	if v := r.I64(); v != -1 {
		t.Fatalf("I64 = %d", v)
	}
	if v := r.F64(); v != -2.5 {
		t.Fatalf("F64 = %v", v)
	}
	if v := r.String(); v != "abc" {
		t.Fatalf("String = %q", v)
	}
	if v := r.F64s(nil); len(v) != 2 || v[0] != 1 || !math.IsInf(v[1], -1) {
		t.Fatalf("F64s = %v", v)
	}
	if v := r.Bytes(2); !bytes.Equal(v, []byte{9, 9}) || cap(v) != 2 {
		t.Fatalf("Bytes = %v (cap %d)", v, cap(v))
	}
	if err := r.Finish(); err != nil {
		t.Fatal(err)
	}
	if v := r.Bytes(0); v == nil {
		t.Fatal("Bytes(0) at the end of a non-nil input is nil")
	}
}

// TestReaderLatchesTheFirstError: after a short read every read returns
// a zero value, and Err, Finish and the message keep the first failure.
func TestReaderLatchesTheFirstError(t *testing.T) {
	r := NewReader([]byte{1, 2, 3})
	if v := r.U32(); v != 0 || r.Err() == nil {
		t.Fatalf("U32 of 3 bytes = %d, err %v", v, r.Err())
	}
	first := r.Err()
	if r.U8() != 0 || r.Bytes(0) != nil || r.String() != "" || r.F64s(nil) != nil || r.Count(1) != 0 {
		t.Fatal("a read after the error returned a value")
	}
	if r.Finish() != first || !strings.Contains(first.Error(), "need 4 bytes at offset 0, have 3") {
		t.Fatalf("latched %v, Finish %v", first, r.Finish())
	}

	r = NewReader([]byte{1})
	if err := r.Finish(); err == nil || !strings.Contains(err.Error(), "1 trailing bytes") {
		t.Fatalf("Finish with a byte left = %v", err)
	}
	if r := NewReader(nil); r.Bytes(-1) != nil || r.Err() == nil {
		t.Fatal("Bytes(-1) did not fail")
	}
}

// TestCountHeldToRemainingByDivision: a count is refused once count ·
// minElem would pass the bytes remaining, including counts whose product
// wraps a 32-bit int (2^29+1 · 8 is 8 there) and counts a 32-bit int
// reads as negative; a count that fits is returned as is. `make cross`
// runs this under GOARCH=386.
func TestCountHeldToRemainingByDivision(t *testing.T) {
	for _, tc := range []struct {
		count   uint32
		minElem int
		body    int
		ok      bool
	}{
		{0, 8, 0, true},
		{2, 8, 16, true},
		{2, 8, 15, false},
		{1<<29 + 1, 8, 8, false},
		{1<<31 + 1, 1, 8, false},
		{math.MaxUint32, 1, 8, false},
		{math.MaxUint32, 0, 8, false}, // minElem < 1 counts one byte
		{5, 0, 5, true},
	} {
		r := NewReader(append(u32(tc.count), make([]byte, tc.body)...))
		n := r.Count(tc.minElem)
		if ok := r.Err() == nil; ok != tc.ok || (ok && n != int(tc.count)) || (!ok && n != 0) {
			t.Errorf("Count(%d) of %d over %d bytes = %d, err %v; want ok=%v", tc.minElem, tc.count, tc.body, n, r.Err(), tc.ok)
		}
	}
	for _, n := range []uint32{1<<31 + 1, math.MaxUint32 - 15} {
		r := NewReader(append(u32(n), "abcdefgh"...))
		if s := r.String(); s != "" || r.Err() == nil {
			t.Errorf("String with length %#x = %q, err %v", n, s, r.Err())
		}
		r = NewReader(append(u32(n), make([]byte, 64)...))
		if v := r.F64s(nil); v != nil || r.Err() == nil {
			t.Errorf("F64s with count %#x = %d values, err %v", n, len(v), r.Err())
		}
	}
}

// TestF64sReusesDst: F64s decodes into dst's array when it holds the
// slab and writes nothing past the slab's length.
func TestF64sReusesDst(t *testing.T) {
	b := AppendF64s(u32(2), []float64{3, 4})
	dst := []float64{-1, -1, -1}
	r := NewReader(b)
	got := r.F64s(dst[:0])
	if r.Finish() != nil || len(got) != 2 || &got[0] != &dst[0] || dst[2] != -1 || got[1] != 4 {
		t.Fatalf("F64s = %v into %v", got, dst)
	}
}
