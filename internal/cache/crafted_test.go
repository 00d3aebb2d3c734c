package cache

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"testing"

	"stellaris/internal/obs/lineage"
)

// TestCraftedLengthsFailCleanly: a length or count that no input could
// back, in every format the cache reads through wire.Reader — the
// payload's TLV section, the lineage meta inside it, the GetN request
// and response blobs and a replication record — is refused (a record:
// not scanned), never a panic and never an allocation of its size.
// Each case carries a valid CRC where its format has one, so the
// crafted length reaches the parser. The lengths include one whose
// 8-byte size wraps a 32-bit int (2^29+1) and two a 32-bit int reads as
// negative; `make cross` runs this under GOARCH=386.
func TestCraftedLengthsFailCleanly(t *testing.T) {
	le := binary.LittleEndian
	u32 := func(v uint32) []byte { return le.AppendUint32(nil, v) }
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	pad := make([]byte, 16)
	record := func(body []byte) []byte { // framed and sealed as appendRecord does
		return le.AppendUint32(append(u32(uint32(len(body))), body...), crc32.ChecksumIEEE(body))
	}
	scan := func(b []byte) error {
		if _, _, _, n := scanRecord(b); n != 0 {
			return nil
		}
		return errors.New("no record scanned")
	}
	tlvPayload := func(tlv []byte) []byte { // a weights payload with no weights, then tlv
		return cat(appendBinHeader(nil, binKindWeights, binHeader+12), make([]byte, 12), tlv)
	}

	cases := map[string]func() error{}
	for _, n := range []uint32{1<<29 + 1, 1<<31 + 1, math.MaxUint32 - 15} {
		for name, f := range map[string]func() error{
			"payload TLV length": func() error { _, err := DecodeWeights(tlvPayload(cat([]byte{tlvTagMeta}, u32(n), pad))); return err },
			"payload meta field length": func() error {
				_, err := DecodeWeights(tlvPayload(cat([]byte{tlvTagMeta}, u32(20), u32(n), pad)))
				return err
			},
			"lineage meta field length": func() error { _, err := lineage.MetaFromBinary(cat(u32(n), pad)); return err },
			"getn request count":        func() error { _, err := parseGetNReq(cat(u32(n), pad)); return err },
			"getn request key length":   func() error { _, err := parseGetNReq(cat(u32(1), u32(n), pad)); return err },
			"getn response count":       func() error { _, err := parseGetNResp(cat(u32(n), pad), int(n&0xffff)); return err },
			"getn response value length": func() error {
				_, err := parseGetNResp(cat(u32(1), []byte{1}, u32(n), pad), 1)
				return err
			},
			"record body length":  func() error { return scan(cat(u32(n), pad)) },
			"record key length":   func() error { return scan(record(cat([]byte{recPut}, u32(n), pad))) },
			"record value length": func() error { return scan(record(cat([]byte{recPut}, u32(1), []byte("k"), u32(n), pad))) },
		} {
			cases[fmt.Sprintf("%s %#x", name, n)] = f
		}
	}
	for name, f := range cases {
		t.Run(name, func(t *testing.T) {
			if err := f(); err == nil {
				t.Fatal("accepted")
			}
		})
	}
}
