// Package errdrop is a lint fixture: silently dropping the error of a
// cache data op or an os.Setenv-style call is reported; an explicit
// `_ =` discard is a visible decision and passes.
package errdrop

import (
	"os"

	"stellaris/internal/cache"
)

func bad(c cache.Cache) {
	c.Delete("k")         // want "error from Cache.Delete discarded"
	c.Put("k", nil)       // want "error from Cache.Put discarded"
	os.Setenv("K", "v")   // want "error from os.Setenv discarded"
	os.Unsetenv("K")      // want "error from os.Unsetenv discarded"
	defer c.Put("k", nil) // want "error from Cache.Put discarded by defer"
	go c.Delete("k")      // want "error from Cache.Delete discarded by go statement"
}

func memToo(m *cache.MemCache) {
	m.Put("k", nil) // want "error from MemCache.Put discarded"
}

func batchedToo(b cache.Batcher) {
	b.PutN(nil) // want "error from Batcher.PutN discarded"
	b.GetN(nil) // want "error from Batcher.GetN discarded"
}

func fencedToo(c *cache.Client) {
	// A dropped fence rejection is a split-brain write silently thrown
	// away: the caller never learns its topology view is stale.
	c.PutFenced(1, "k", nil)     // want "error from Client.PutFenced discarded"
	c.PutNFenced(1, nil)         // want "error from Client.PutNFenced discarded"
	c.DeleteFenced(1, "k")       // want "error from Client.DeleteFenced discarded"
	_ = c.PutFenced(1, "k", nil) // fine: explicit shed decision
}

func replicationToo(r *cache.Replica) {
	// A dropped apply error is a follower silently diverging from its
	// leader — the worst possible failure mode for a promotion target.
	r.ApplyRecord('P', "k", nil) // want "error from Replica.ApplyRecord discarded"
}

func handled(c cache.Cache) error {
	if err := c.Put("k", nil); err != nil {
		return err
	}
	v, err := c.Get("k")
	_ = v
	return err
}

func explicitDiscard(c cache.Cache) {
	_ = c.Delete("k") // fine: the blank assignment is a visible shed decision
	v, _ := c.Get("k")
	_ = v
}

func otherCallsAreFine() {
	_ = os.Getenv("HOME") // fine: no error result
	println("x")
}

func exempted(c cache.Cache) {
	c.Delete("k") //lint:allow errdrop best-effort cleanup on shutdown
}
