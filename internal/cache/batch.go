package cache

// Batched cache operations: PutN stores N key/value pairs and GetN
// fetches N keys in one protocol round trip each, amortizing the
// per-op frame and syscall cost that dominates small-payload traffic
// (actors flushing trajectories, learners assembling batches).
//
// On the wire (see DESIGN.md §10): op 'p' carries a PutN blob
// and op 'g' a GetN request in the frame's value field; the key field
// is unused. Blobs are big-endian like the rest of the frame layer.
//
//	PutN request blob:  u32 count, then count × [u32 keyLen][key][u32 valLen][val]
//	GetN request blob:  u32 count, then count × [u32 keyLen][key]
//	GetN response blob: u32 count, then count × [u8 found][u32 valLen][val]

import (
	"encoding/binary"
	"errors"
	"fmt"

	"stellaris/internal/obs/lineage"
)

// KV is one key/value pair in a batched put.
type KV struct {
	Key string
	Val []byte
}

// Batcher is implemented by caches that support batched operations
// natively. BatchPut/BatchGet use it when present and fall back to
// per-key loops otherwise.
type Batcher interface {
	// PutN stores every pair, replacing previous values.
	PutN(kvs []KV) error
	// GetN returns one entry per key, aligned with keys; missing keys
	// yield a nil entry (not an error).
	GetN(keys []string) ([][]byte, error)
}

// BatchPut stores kvs through c, batching when c implements Batcher.
func BatchPut(c Cache, kvs []KV) error {
	if b, ok := c.(Batcher); ok {
		return b.PutN(kvs)
	}
	for _, kv := range kvs {
		if err := c.Put(kv.Key, kv.Val); err != nil {
			return err
		}
	}
	return nil
}

// BatchGet fetches keys through c, batching when c implements Batcher.
// Missing keys yield nil entries.
func BatchGet(c Cache, keys []string) ([][]byte, error) {
	if b, ok := c.(Batcher); ok {
		return b.GetN(keys)
	}
	out := make([][]byte, len(keys))
	for i, k := range keys {
		v, err := c.Get(k)
		if err != nil {
			var nf ErrNotFound
			if errors.As(err, &nf) {
				continue
			}
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// ---- MemCache ----

// PutN implements Batcher under a single lock acquisition. The copies
// are made before the lock is taken: they are the slow part and need
// nothing the lock protects.
func (c *MemCache) PutN(kvs []KV) error {
	owned := make([][]byte, len(kvs))
	for i, kv := range kvs {
		v := kv.Val // a plain variable, so make+copy compiles to one unzeroed allocation
		cp := make([]byte, len(v))
		copy(cp, v)
		owned[i] = cp
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var firstErr error
	for i, kv := range kvs {
		c.data[kv.Key] = owned[i]
		if err := c.logLocked(aofPut, kv.Key, owned[i]); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// GetN implements Batcher under a single lock acquisition.
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
	minPutNRec    = 8 // empty key + empty value
	minGetNReqRec = 4 // empty key
	minGetNRspRec = 5 // found byte + empty value
)

func putNBlobSize(kvs []KV) int {
	n := 4
	for _, kv := range kvs {
		n += 8 + len(kv.Key) + len(kv.Val)
	}
	return n
}

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

func parsePutNBlob(b []byte) ([]KV, error) {
	cur := &blobCursor{b: b}
	n := cur.count("putn count", minPutNRec)
	kvs := make([]KV, 0, n)
	for i := 0; i < n && cur.err == nil; i++ {
		key := string(cur.bytes(cur.u32("key length"), "key"))
		val := cur.bytes(cur.u32("value length"), "value")
		kvs = append(kvs, KV{Key: key, Val: val})
	}
	if err := cur.finish(); err != nil {
		return nil, err
	}
	return kvs, nil
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

// PutN implements Batcher over the network: one 'p' round trip (a
// batch of one goes out as the plain 'P' it is equivalent to).
func (c *Client) PutN(kvs []KV) error {
	if len(kvs) == 0 {
		return nil
	}
	if len(kvs) == 1 {
		return c.Put(kvs[0].Key, kvs[0].Val)
	}
	status, payload, err := c.roundTrip(request{op: 'p', kvs: kvs})
	if err := respErr(status, payload, err, "(putn)"); err != nil {
		return err
	}
	for _, kv := range kvs {
		c.lineageHop(lineage.HopPut, kv.Key)
	}
	return nil
}

// GetN implements Batcher over the network: one 'g' round trip (a
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
