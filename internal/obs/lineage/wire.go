package lineage

import (
	"encoding/binary"
	"fmt"

	"stellaris/internal/wire"
)

// Binary wire form of Meta, carried in the cache binary codec's TLV
// section (tag 1): four little-endian u32-length-prefixed strings in
// field order ID, Kind, Origin, Parent. The format is versionless on
// purpose — the enclosing TLV tag is the version handle, and unknown
// tags are skipped by decoders, so Meta can evolve by allocating a new
// tag rather than by in-place mutation.

// IsZero reports whether m carries no trace context.
func (m *Meta) IsZero() bool {
	return m.ID == "" && m.Kind == "" && m.Origin == "" && m.Parent == ""
}

// WireSize returns the exact size of AppendBinary's output.
func (m *Meta) WireSize() int {
	return 4*4 + len(m.ID) + len(m.Kind) + len(m.Origin) + len(m.Parent)
}

// AppendBinary appends m's binary wire form to b and returns the
// extended slice.
func (m *Meta) AppendBinary(b []byte) []byte {
	for _, s := range [4]string{m.ID, m.Kind, m.Origin, m.Parent} {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(s)))
		b = append(b, s...)
	}
	return b
}

// MetaFromBinary parses a Meta wire form produced by AppendBinary. The
// input must contain exactly one Meta (trailing bytes are an error, as
// the enclosing TLV length delimits the value).
func MetaFromBinary(b []byte) (Meta, error) {
	r := wire.NewReader(b)
	m := Meta{ID: r.String(), Kind: r.String(), Origin: r.String(), Parent: r.String()}
	if err := r.Finish(); err != nil {
		return Meta{}, fmt.Errorf("lineage: meta: %w", err)
	}
	return m, nil
}
