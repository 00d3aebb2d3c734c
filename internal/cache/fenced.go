package cache

// Term-fenced writes (DESIGN.md §11.5): every data-plane write can be
// stamped with the shard term the writer believes current. A server
// that has learned a newer term — from a topology-document write or a
// higher-termed envelope — answers status 'F' instead of applying the
// write, which surfaces here as *ErrFenced. That is the split-brain
// guard: after a promotion bumps the term, a deposed leader can still
// be reachable, but it can no longer silently accept writes from
// clients holding the pre-promotion topology.
//
// Term zero disarms fencing entirely: the op goes out as its plain
// form, byte-for-byte identical to a build without fencing. A fresh
// cluster starts at term zero and stays there until the first
// promotion, so the 1-shard lockstep path never pays (or emits) a
// single envelope byte.

import (
	"strconv"

	"stellaris/internal/obs/lineage"
)

// ErrFenced reports a write refused because the server has learned a
// newer shard term than the one the write carried: the writer's
// topology view is deposed and must be refreshed before retrying.
type ErrFenced struct {
	// Term is the server's current term, from the 'F' reply payload.
	Term int64
}

func (e *ErrFenced) Error() string {
	return "cache: write fenced by newer shard term " + strconv.FormatInt(e.Term, 10) + "; refresh topology"
}

// fenced sends one write inside a 'T' envelope — req.term is nonzero,
// so the frame carries [u64 term][u8 req.op] ahead of the inner op's
// value — and returns the inner op's reply payload. An 'F' status
// becomes *ErrFenced carrying the server's term; a server that cannot
// fence fails the write like any other '!' answer — it is never retried
// as a plain, unfenced op.
func (c *Client) fenced(req request) ([]byte, error) {
	status, payload, err := c.roundTrip(req)
	if err == nil && status == 'F' {
		t, _ := strconv.ParseInt(string(payload), 10, 64)
		return nil, &ErrFenced{Term: t}
	}
	return payload, respErr(status, payload, err, req.key)
}

// PutFenced is Put stamped with the caller's believed shard term.
func (c *Client) PutFenced(term int64, key string, val []byte) error {
	if term == 0 {
		return c.Put(key, val)
	}
	if _, err := c.fenced(request{op: 'P', key: key, term: term, val: val}); err != nil {
		return err
	}
	c.lineageHop(lineage.HopPut, key)
	return nil
}

// DeleteFenced is Delete stamped with the caller's believed shard term.
func (c *Client) DeleteFenced(term int64, key string) error {
	if term == 0 {
		return c.Delete(key)
	}
	_, err := c.fenced(request{op: 'D', key: key, term: term})
	return err
}
