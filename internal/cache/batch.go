package cache

// Batched reads: GetN fetches N keys in one protocol round trip,
// amortizing the per-op frame and syscall cost that dominates
// small-payload traffic (learners assembling batches).
//
// On the wire (see DESIGN.md §10): op 'g' carries a GetN request in the
// frame's value field; the key field is unused. Blobs are little-endian
// and read through wire.Reader, like the payload codec.
//
//	GetN request blob:  u32 count, then count × [u32 keyLen][key]
//	GetN response blob: u32 count, then count × [u8 found][u32 valLen][val]

import (
	"encoding/binary"
	"errors"
	"fmt"

	"stellaris/internal/obs/lineage"
	"stellaris/internal/wire"
)

// BatchGet is c.GetN(keys); call GetN everywhere else.
func BatchGet(c Cache, keys []string) ([][]byte, error) { return c.GetN(keys) } //lint:allow reach benchmark-only: benchmark/cachemix.go and ladder.go call it

// ---- MemCache ----

// GetN implements Cache under a single lock acquisition, copying each
// value out while it holds a reference to it.
func (c *MemCache) GetN(keys []string) ([][]byte, error) {
	vals := c.viewN(keys)
	out := make([][]byte, len(keys))
	for i, v := range vals {
		if v != nil {
			out[i] = append(make([]byte, 0, len(v.b)), v.b...)
			v.release()
		}
	}
	return out, nil
}

// viewN is GetN without the copies: the stored values themselves, each
// with a reference the caller must release (see view); nil for a
// missing key and only for a missing key.
func (c *MemCache) viewN(keys []string) []*value {
	out := make([]*value, len(keys))
	c.mu.RLock()
	defer c.mu.RUnlock()
	for i, k := range keys {
		if v := c.data[k]; v != nil {
			v.retain()
			out[i] = v
		}
	}
	return out
}

// ---- wire blobs ----

const (
	minGetNReqRec = 4 // empty key
	minGetNRspRec = 5 // found byte + empty value
)

func getNReqSize(keys []string) int {
	n := 4
	for _, k := range keys {
		n += 4 + len(k)
	}
	return n
}

func appendGetNReq(b []byte, keys []string) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(keys)))
	for _, k := range keys {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(k)))
		b = append(b, k...)
	}
	return b
}

func parseGetNReq(b []byte) ([]string, error) {
	r := wire.NewReader(b)
	keys := make([]string, r.Count(minGetNReqRec))
	for i := range keys {
		keys[i] = r.String()
	}
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("cache: batch blob: getn request: %w", err)
	}
	return keys, nil
}

func getNRespSize(vals []*value) int {
	n := 4
	for _, v := range vals {
		n += 5 + len(v.bytes())
	}
	return n
}

// parseGetNResp splits a GetN response blob into its entries. The
// entries alias b — the buffer readResp allocated for this one response
// and nobody else holds — each with its capacity clipped to its length
// by wire.Reader.Bytes, so they are as independently retainable as
// Get's result without a copy apiece. A key that was found with an
// empty value yields a non-nil empty entry; only a missing key yields
// nil.
func parseGetNResp(b []byte, want int) ([][]byte, error) {
	r := wire.NewReader(b)
	n := r.Count(minGetNRspRec)
	if r.Err() == nil && n != want {
		return nil, fmt.Errorf("cache: batch blob: getn response count %d != %d requested", n, want)
	}
	out := make([][]byte, n)
	for i := range out {
		found := r.U8()
		if val := r.Bytes(r.Count(1)); found != 0 {
			out[i] = val
		}
	}
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("cache: batch blob: getn response: %w", err)
	}
	return out, nil
}

// ---- Client ----

// GetN implements Cache over the network: one 'g' round trip (a
// batch of one goes out as the plain 'G' it is equivalent to). Missing
// keys yield nil entries.
func (c *Client) GetN(keys []string) ([][]byte, error) {
	if len(keys) == 0 {
		return nil, nil
	}
	if len(keys) == 1 {
		v, err := c.Get(keys[0])
		if err != nil && !errors.As(err, new(ErrNotFound)) {
			return nil, err
		}
		return [][]byte{v}, nil
	}
	blob := appendGetNReq(getBuf(getNReqSize(keys))[:0], keys)
	status, payload, err := c.roundTrip(request{op: 'g', val: blob})
	Recycle(blob)
	if err != nil {
		return nil, err
	}
	if status != '+' {
		return nil, errors.New(string(payload))
	}
	vals, err := parseGetNResp(payload, len(keys))
	if err != nil {
		return nil, err
	}
	for i, v := range vals {
		if v != nil {
			c.lineageHop(lineage.HopFetched, keys[i])
		}
	}
	return vals, nil
}
