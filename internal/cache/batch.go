package cache

// Batched reads: GetN fetches N keys in one protocol round trip,
// amortizing the per-op frame and syscall cost that dominates
// small-payload traffic (learners assembling batches).
//
// On the wire (see DESIGN.md §10): op 'g' carries a GetN request in the
// frame's value field; the key field is unused. Blobs are big-endian
// like the rest of the frame layer.
//
//	GetN request blob:  u32 count, then count × [u32 keyLen][key]
//	GetN response blob: u32 count, then count × [u8 found][u32 valLen][val]

import (
	"encoding/binary"
	"errors"
	"fmt"

	"stellaris/internal/obs/lineage"
)

// BatchGet is c.GetN(keys). Benchmark only: it stays because
// benchmark/cachemix.go and benchmark/ladder.go call it; drop it with the
// next change to the benchmark, and call GetN everywhere else.
func BatchGet(c Cache, keys []string) ([][]byte, error) { return c.GetN(keys) }

// ---- MemCache ----

// GetN implements Cache under a single lock acquisition.
func (c *MemCache) GetN(keys []string) ([][]byte, error) {
	out := c.viewN(keys)
	for i, v := range out {
		if v != nil {
			cp := make([]byte, len(v))
			copy(cp, v)
			out[i] = cp
		}
	}
	return out, nil
}

// viewN is GetN without the copies: the stored slices themselves (see
// view), nil for a missing key and only for a missing key.
func (c *MemCache) viewN(keys []string) [][]byte {
	out := make([][]byte, len(keys))
	c.mu.RLock()
	defer c.mu.RUnlock()
	for i, k := range keys {
		if v, ok := c.data[k]; ok {
			if v == nil {
				v = []byte{} // stored empty (a nil Put, a recovered empty value): found
			}
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

// blobCursor reads length-prefixed fields out of a batch blob with the
// same validate-before-allocate discipline as binReader.
type blobCursor struct {
	b   []byte
	err error
}

func (c *blobCursor) u32(what string) int {
	if c.err != nil {
		return 0
	}
	if len(c.b) < 4 {
		c.err = fmt.Errorf("cache: batch blob: truncated %s", what)
		return 0
	}
	v := int(binary.BigEndian.Uint32(c.b))
	c.b = c.b[4:]
	return v
}

func (c *blobCursor) bytes(n int, what string) []byte {
	if c.err != nil {
		return nil
	}
	if n < 0 || n > len(c.b) {
		c.err = fmt.Errorf("cache: batch blob: %s length %d exceeds %d remaining", what, n, len(c.b))
		return nil
	}
	v := c.b[:n]
	c.b = c.b[n:]
	return v
}

func (c *blobCursor) u8(what string) byte {
	if v := c.bytes(1, what); v != nil {
		return v[0]
	}
	return 0
}

func (c *blobCursor) count(what string, minRec int) int {
	n := c.u32(what)
	if c.err == nil && n > len(c.b)/minRec {
		c.err = fmt.Errorf("cache: batch blob: %s count %d exceeds %d remaining bytes", what, n, len(c.b))
		return 0
	}
	return n
}

func (c *blobCursor) finish() error {
	if c.err == nil && len(c.b) != 0 {
		c.err = fmt.Errorf("cache: batch blob: %d trailing bytes", len(c.b))
	}
	return c.err
}

func getNReqSize(keys []string) int {
	n := 4
	for _, k := range keys {
		n += 4 + len(k)
	}
	return n
}

func appendGetNReq(b []byte, keys []string) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(len(keys)))
	for _, k := range keys {
		b = binary.BigEndian.AppendUint32(b, uint32(len(k)))
		b = append(b, k...)
	}
	return b
}

func parseGetNReq(b []byte) ([]string, error) {
	cur := &blobCursor{b: b}
	n := cur.count("getn count", minGetNReqRec)
	keys := make([]string, 0, n)
	for i := 0; i < n && cur.err == nil; i++ {
		keys = append(keys, string(cur.bytes(cur.u32("key length"), "key")))
	}
	if err := cur.finish(); err != nil {
		return nil, err
	}
	return keys, nil
}

func getNRespSize(vals [][]byte) int {
	n := 4
	for _, v := range vals {
		n += 5 + len(v)
	}
	return n
}

// parseGetNResp splits a GetN response blob into its entries. The
// entries alias b — the buffer readResp allocated for this one response
// and nobody else holds — each with its capacity clipped to its length,
// so they are as independently retainable as Get's result without a
// copy apiece. A key that was found with an empty value yields a
// non-nil empty entry; only a missing key yields nil.
func parseGetNResp(b []byte, want int) ([][]byte, error) {
	cur := &blobCursor{b: b}
	n := cur.count("getn response count", minGetNRspRec)
	if cur.err == nil && n != want {
		return nil, fmt.Errorf("cache: batch blob: getn response count %d != %d requested", n, want)
	}
	out := make([][]byte, 0, n)
	for i := 0; i < n && cur.err == nil; i++ {
		found := cur.u8("found flag")
		val := cur.bytes(cur.u32("value length"), "value")
		if found != 0 {
			out = append(out, val[:len(val):len(val)])
		} else {
			out = append(out, nil)
		}
	}
	if err := cur.finish(); err != nil {
		return nil, err
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
	blob := appendGetNReq(grabFrame(getNReqSize(keys)), keys)
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
