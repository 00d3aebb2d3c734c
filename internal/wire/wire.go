// Package wire reads every byte format the repo takes from outside the
// process — the cache payload codec, the GetN batch blob, replication
// records, training checkpoints and the lineage meta — with one
// bounds-checked cursor. All of those formats are little-endian.
//
// Reader is error-latching: the first read that the input cannot back
// latches an error, and every later read returns a zero value, so a
// decoder reads its format straight through and checks Err or Finish
// once. Its rule is written here and nowhere else:
//
//   - a count taken from the input is held to remaining/minElem, by
//     division and never by multiplication, so neither the count nor its
//     byte size can wrap an int, and no count can size an allocation the
//     input does not back;
//   - a u32 is range-checked before it becomes an int, so a 32-bit port
//     never reads a length as negative.
//
// The float64 slab helpers live here too. A slab is little-endian
// IEEE-754 bit patterns, which is what a little-endian host keeps in
// memory: there encoding and decoding a slab is one byte copy; a
// big-endian host runs the per-element loop, which is also the
// reference the tests hold the copy to.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"unsafe"
)

// Reader is an error-latching little-endian cursor over a byte slice.
// The zero Reader reads an empty input.
type Reader struct {
	b   []byte
	off int
	err error
}

// NewReader returns a Reader positioned at the start of b.
func NewReader(b []byte) Reader { return Reader{b: b} }

// Err returns the latched error, if any.
func (r *Reader) Err() error { return r.err }

// Len is the number of bytes not yet read.
func (r *Reader) Len() int { return len(r.b) - r.off }

func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

// Bytes takes the next n bytes. They alias the input, with their
// capacity clipped to n, and are non-nil for n == 0 unless the input
// is nil; once an error is latched Bytes returns nil.
func (r *Reader) Bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > r.Len() {
		r.fail("need %d bytes at offset %d, have %d", n, r.off, r.Len())
		return nil
	}
	s := r.b[r.off : r.off+n : r.off+n]
	r.off += n
	return s
}

// U8 reads one byte.
func (r *Reader) U8() byte {
	if s := r.Bytes(1); s != nil {
		return s[0]
	}
	return 0
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	if s := r.Bytes(4); s != nil {
		return binary.LittleEndian.Uint32(s)
	}
	return 0
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	if s := r.Bytes(8); s != nil {
		return binary.LittleEndian.Uint64(s)
	}
	return 0
}

// I64 reads a little-endian int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// F64 reads a float64 from its little-endian bit pattern.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Count reads a u32 count of elements that take at least minElem bytes
// each (at least one byte when minElem < 1) and holds it to what
// remains: count ≤ Len()/minElem. The product count·minElem therefore
// fits what remains too, on every port.
func (r *Reader) Count(minElem int) int {
	c := r.U32()
	minElem = max(minElem, 1)
	if r.err == nil && uint64(c) > uint64(r.Len()/minElem) {
		r.fail("count %d of %d-byte elements exceeds the %d bytes remaining at offset %d", c, minElem, r.Len(), r.off)
		return 0
	}
	return int(c)
}

// String reads a u32-length-prefixed string.
func (r *Reader) String() string { return string(r.Bytes(r.Count(1))) }

// F64s reads a u32-counted float64 slab into dst's array when it holds
// it, into fresh memory otherwise (see F64sInto).
func (r *Reader) F64s(dst []float64) []float64 { return F64sInto(dst, r.Bytes(8*r.Count(8))) }

// Finish latches an error when bytes remain unread, and returns Err.
func (r *Reader) Finish() error {
	if r.err == nil && r.Len() != 0 {
		r.fail("%d trailing bytes at offset %d", r.Len(), r.off)
	}
	return r.err
}

// SlabIsMemory reports whether a slab's wire bytes are its in-memory
// bytes (a little-endian host). Set once at init; tests turn it off to
// run the loop path.
var SlabIsMemory = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// f64Bytes is the memory of xs as bytes. Only a SlabIsMemory host may
// treat them as a slab.
func f64Bytes(xs []float64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(xs))), 8*len(xs))
}

// AppendF64s appends the raw bit patterns of xs (no count prefix).
func AppendF64s(b []byte, xs []float64) []byte {
	if SlabIsMemory {
		return append(b, f64Bytes(xs)...)
	}
	for _, v := range xs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// F64sInto decodes the slab raw (8 bytes per value, already taken by a
// Reader) into dst's array when it holds len(raw)/8 values, into fresh
// memory otherwise, and returns it with exactly that length. Nothing
// past the returned length is written; an empty slab returns dst[:0]
// (nil for a nil dst).
func F64sInto(dst []float64, raw []byte) []float64 {
	n := len(raw) / 8
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	if SlabIsMemory {
		copy(f64Bytes(dst), raw)
		return dst
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	return dst
}
