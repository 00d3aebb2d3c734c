package cache

// ShardedClient spreads the cache keyspace across a cluster of
// stellaris-cached shards (DESIGN.md §11): consistent-hash routing per
// key, batched reads fanned out per shard, and — when a shard's leader
// stops answering — failover onto its follower wired into the same
// retry machinery single-server clients already ride through outages.
//
// Ordering contract: single-key ops route to exactly one shard, so
// per-key ordering matches the single-server client, and a write the
// caller saw acknowledged lands before any write it issues afterwards.
// That is all the weight publisher's vector-then-head order needs,
// whichever shards the two keys hash to. GetN has no ordering obligation
// and fans out one batch per shard, merging results back into request
// order.
//
// The reserved topology key (cluster.TopologyKey) is handled outside
// the ring: writes go to every shard, reads accept the first answer,
// so the shard map itself survives any single shard loss.

import (
	"errors"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"stellaris/internal/cache/cluster"
	"stellaris/internal/obs"
)

// ShardedStats extends ClientStats with cluster-level recovery events.
type ShardedStats struct {
	ClientStats
	// Failovers counts shard leaders replaced by their follower after
	// transport exhaustion.
	Failovers int64
	// TopologyRefreshes counts newer topology documents adopted (watch
	// or post-failover refresh).
	TopologyRefreshes int64 //lint:allow reach benchmark-only: benchmark/cachemix.go reads it
	// TopologyVersion is the version of the topology currently in use.
	TopologyVersion int //lint:allow reach benchmark-only: benchmark/cachemix.go reads it
	// FencedWrites counts writes refused by a server holding a newer
	// shard term (each forces a topology refresh before the retry).
	FencedWrites int64
}

// shardEventsFamily counts every sharded client's recovery events by
// kind and shard; RegistryStats sums it over shards.
const shardEventsFamily = "cache_shard_events_total"

// ShardedClient is a Conn backed by a cluster of cache servers. Safe
// for concurrent use.
type ShardedClient struct {
	opts DialOptions
	ring *cluster.Ring

	mu    sync.Mutex
	topo  *cluster.Topology
	slots []*shardSlot

	closed       atomic.Bool
	failovers    obs.Counter
	refreshes    obs.Counter
	fencedWrites obs.Counter

	// events mirrors the recovery counters above into the caller's
	// registry as cache_shard_events_total{event,shard} when
	// DialOptions.Obs is set, so /metrics says which shard failed over
	// or fenced a write. Nil without a registry.
	events *obs.CounterVec

	watchOnce sync.Once
	watchStop chan struct{}
	watchWG   sync.WaitGroup
}

// shardSlot is the mutable per-shard connection state. epoch advances
// on every client swap so concurrent operations that all hit the same
// dead leader trigger exactly one failover between them.
type shardSlot struct {
	id int

	mu       sync.Mutex
	cli      *Client
	addr     string
	follower string
	epoch    int64
	// term is the shard's fencing token as this client believes it:
	// seeded from the topology, bumped on every local promotion, and
	// stamped onto data-plane writes (see fencedDo).
	term int64
	// fcli is a lazily dialed client to the CURRENT follower address:
	// the topology-teaching client (see followerClient). Invalidated
	// whenever the follower address moves.
	fcli     *Client
	fcliAddr string
}

func (s *shardSlot) client() (*Client, int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cli, s.epoch
}

// DialSharded connects to every shard in topo. Like DialWith, the
// initial connects are eager so a misconfigured topology surfaces
// immediately. The topology is cloned; later refreshes never mutate the
// caller's copy.
func DialSharded(topo *cluster.Topology, opts DialOptions) (*ShardedClient, error) {
	ring, err := cluster.NewRing(topo)
	if err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	sc := &ShardedClient{
		opts:      opts,
		ring:      ring,
		topo:      topo.Clone(),
		watchStop: make(chan struct{}),
	}
	if opts.Obs != nil {
		sc.events = opts.Obs.CounterVec(shardEventsFamily,
			"Cluster recovery events by kind and shard.", "event", "shard")
	}
	for _, sh := range sc.topo.Shards {
		cli, err := DialWith(sh.Addr, opts)
		if err != nil {
			for _, s := range sc.slots {
				_ = s.cli.Close()
			}
			return nil, err
		}
		sc.slots = append(sc.slots, &shardSlot{
			id: sh.ID, cli: cli, addr: sh.Addr, follower: sh.Follower, term: sh.Term,
		})
	}
	return sc, nil
}

// event records one per-shard recovery event into the caller's registry
// (no-op without one).
func (sc *ShardedClient) event(kind string, shard int) {
	if sc.events != nil {
		sc.events.With(kind, strconv.Itoa(shard)).Inc()
	}
}

// slotFor routes key to its shard. The ring is immutable (failover and
// refresh change addresses, never ownership), so no lock is needed.
func (sc *ShardedClient) slotFor(key string) *shardSlot {
	return sc.slots[sc.ring.Shard(key)]
}

// doSlot runs op against slot's shard, failing over onto the follower
// (and retrying once) when the leader is transport-dead.
func (sc *ShardedClient) doSlot(slot *shardSlot, op func(*Client) error) error {
	cli, epoch := slot.client()
	err := op(cli)
	var te *TransportError
	if err == nil || !errors.As(err, &te) {
		return err
	}
	if !sc.failover(slot, epoch) {
		return err
	}
	cli, _ = slot.client()
	return op(cli)
}

// failover promotes slot's follower: dial it, swap it in as the leader
// address, and demote the old leader address to follower position so a
// later failover can swing back if the original process resurrects. The
// epoch check collapses a thundering herd of concurrent failures into
// one promotion. Returns false when there is nothing to promote (no
// follower, follower also dead, client closed, or a concurrent caller
// already failed over — in which case the caller should simply retry).
func (sc *ShardedClient) failover(slot *shardSlot, epoch int64) bool {
	if sc.closed.Load() {
		return false
	}
	slot.mu.Lock()
	if slot.epoch != epoch {
		slot.mu.Unlock()
		return true // someone else already promoted; retry on the new client
	}
	follower := slot.follower
	slot.mu.Unlock()
	if follower == "" {
		return false
	}

	// Dial outside the slot lock: a dead follower costs a full
	// DialTimeout and must not wedge concurrent ops on this shard (they
	// will fail their own epoch check afterwards and report the original
	// error).
	cli, err := DialWith(follower, sc.opts)
	if err != nil {
		return false
	}

	slot.mu.Lock()
	if slot.epoch != epoch {
		slot.mu.Unlock()
		_ = cli.Close()
		return true
	}
	old := slot.cli
	slot.cli = cli
	slot.addr, slot.follower = follower, slot.addr
	slot.epoch++
	// Promotion bumps the shard's fencing term: our writes now carry
	// term+1, which teaches the promoted follower the new term on first
	// contact and fences any client still writing to the old leader
	// under the old term (DESIGN.md §11.5).
	slot.term++
	slot.mu.Unlock()
	_ = old.Close()
	sc.failovers.Inc()
	sc.event("failover", slot.id)

	// Best-effort: record the new leadership in the shared topology so
	// watching clients converge without each one rediscovering the dead
	// leader. Racing failovers publish identical documents, so version
	// collisions are harmless.
	sc.publishPromotion(slot)
	return true
}

// publishPromotion writes a bumped topology reflecting slot's current
// leadership to every reachable shard. Failures are ignored — topology
// publication is an optimization, not a correctness requirement (every
// client can fail over independently).
func (sc *ShardedClient) publishPromotion(slot *shardSlot) {
	sc.mu.Lock()
	t := sc.topo.Clone()
	t.Version++
	for i := range t.Shards {
		if t.Shards[i].ID == slot.id {
			slot.mu.Lock()
			t.Shards[i].Addr, t.Shards[i].Follower = slot.addr, slot.follower
			t.Shards[i].Term = slot.term
			slot.mu.Unlock()
		}
	}
	sc.topo = t
	sc.refreshes.Inc()
	sc.mu.Unlock()
	if b, err := t.Encode(); err == nil {
		sc.broadcastTopology(b)
	}
}

// ---- term-fenced write routing ----

// fencedDo runs a term-stamped write against slot. A fenced reply
// means this client's topology view predates a promotion: refresh,
// pick up the new term (and possibly the new leader address), and
// retry once. A second fence is surfaced to the caller — by then
// something is publishing terms faster than we can refresh, and
// looping would spin.
func (sc *ShardedClient) fencedDo(slot *shardSlot, op func(c *Client, term int64) error) error {
	slot.mu.Lock()
	term := slot.term
	slot.mu.Unlock()
	err := sc.doSlot(slot, func(c *Client) error { return op(c, term) })
	var fe *ErrFenced
	if !errors.As(err, &fe) {
		return err
	}
	sc.fencedWrites.Inc()
	sc.event("fenced-write", slot.id)
	if _, rerr := sc.RefreshTopology(); rerr != nil {
		return err
	}
	slot.mu.Lock()
	term = slot.term
	slot.mu.Unlock()
	return sc.doSlot(slot, func(c *Client) error { return op(c, term) })
}

// ---- Cache ----

// Put implements Cache. The topology key is written to every shard
// (followers included — it carries the fencing terms); all other keys
// route through the ring as term-stamped writes.
func (sc *ShardedClient) Put(key string, val []byte) error {
	if key == cluster.TopologyKey {
		return sc.broadcastTopology(val)
	}
	slot := sc.slotFor(key)
	return sc.fencedDo(slot, func(c *Client, term int64) error {
		return c.PutFenced(term, key, val)
	})
}

// Get implements Cache. The topology key is answered by the first shard
// that has it.
func (sc *ShardedClient) Get(key string) ([]byte, error) { return sc.GetInto(key, nil) }

// GetInto is Get reading into buf as Client.GetInto does, routed and
// failed over exactly as Get. The topology key's scan reads into fresh
// memory.
func (sc *ShardedClient) GetInto(key string, buf []byte) ([]byte, error) {
	if key == cluster.TopologyKey {
		return sc.getAny(key)
	}
	var v []byte
	err := sc.doSlot(sc.slotFor(key), func(c *Client) error {
		var e error
		v, e = c.GetInto(key, buf)
		return e
	})
	return v, err
}

// Delete implements Cache (topology key: deleted everywhere).
func (sc *ShardedClient) Delete(key string) error {
	if key == cluster.TopologyKey {
		return sc.deleteAll(key)
	}
	slot := sc.slotFor(key)
	return sc.fencedDo(slot, func(c *Client, term int64) error {
		return c.DeleteFenced(term, key)
	})
}

// ---- batched reads ----

// GetN implements Cache: one batch per shard, results merged back
// into request order; missing keys yield nil entries.
func (sc *ShardedClient) GetN(keys []string) ([][]byte, error) {
	if len(keys) == 0 {
		return nil, nil
	}
	out := make([][]byte, len(keys))
	perShard := make(map[*shardSlot][]int)
	order := make([]*shardSlot, 0, len(sc.slots))
	for i, k := range keys {
		slot := sc.slotFor(k)
		if _, seen := perShard[slot]; !seen {
			order = append(order, slot)
		}
		perShard[slot] = append(perShard[slot], i)
	}
	for _, slot := range order {
		idx := perShard[slot]
		sub := make([]string, len(idx))
		for j, i := range idx {
			sub[j] = keys[i]
		}
		err := sc.doSlot(slot, func(c *Client) error {
			vals, e := c.GetN(sub)
			if e != nil {
				return e
			}
			for j, i := range idx {
				out[i] = vals[j]
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// ---- topology-key fan-out ----

// followerClient returns the topology-teaching client: a cached
// client to slot's CURRENT follower address, dialed (outside any lock)
// when missing or stale. broadcastTopology writes every topology
// document through it, which is how a deposed leader sitting in the
// follower position learns the new term. Nil when the shard has no
// follower or the follower is undialable.
func (sc *ShardedClient) followerClient(slot *shardSlot) *Client {
	slot.mu.Lock()
	f := slot.follower
	if slot.fcli != nil && slot.fcliAddr == f {
		c := slot.fcli
		slot.mu.Unlock()
		return c
	}
	stale := slot.fcli
	slot.fcli = nil
	slot.mu.Unlock()
	if stale != nil {
		_ = stale.Close()
	}
	if f == "" {
		return nil
	}
	// One attempt, no registry: the teaching write is best-effort, and
	// an unreachable deposed leader is fenced by the first stamped write
	// it sees instead.
	fopts := sc.opts
	fopts.Attempts = 1
	fopts.Obs = nil
	cli, err := DialWith(f, fopts)
	if err != nil {
		return nil
	}
	slot.mu.Lock()
	if sc.closed.Load() || slot.follower != f || slot.fcli != nil {
		slot.mu.Unlock()
		_ = cli.Close()
		return nil
	}
	slot.fcli, slot.fcliAddr = cli, f
	slot.mu.Unlock()
	return cli
}

// broadcastTopology writes a topology document to every shard leader
// AND every reachable follower. The follower leg is what closes the
// fencing loop: after a promotion the deposed leader sits in the
// follower position of the new topology, and this write — plain,
// never fenced, because control-plane writes must always land — is how
// it learns the new term and starts refusing stale-termed data writes.
// Follower failures are ignored; an unreachable deposed leader is
// fenced by the first 'T' envelope it sees instead.
func (sc *ShardedClient) broadcastTopology(val []byte) error {
	err := sc.putAll(cluster.TopologyKey, val)
	for _, slot := range sc.slots {
		if fc := sc.followerClient(slot); fc != nil {
			_ = fc.Put(cluster.TopologyKey, val)
		}
	}
	return err
}

func (sc *ShardedClient) putAll(key string, val []byte) error {
	var firstErr error
	for _, slot := range sc.slots {
		if err := sc.doSlot(slot, func(c *Client) error { return c.Put(key, val) }); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

func (sc *ShardedClient) deleteAll(key string) error {
	var firstErr error
	for _, slot := range sc.slots {
		if err := sc.doSlot(slot, func(c *Client) error { return c.Delete(key) }); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// getAny reads key from the first shard that answers, bypassing hash
// routing: the topology document is written to every shard, so any
// live one can serve it.
func (sc *ShardedClient) getAny(key string) ([]byte, error) {
	var lastErr error
	for _, slot := range sc.slots {
		var v []byte
		err := sc.doSlot(slot, func(c *Client) error {
			var e error
			v, e = c.Get(key)
			return e
		})
		if err == nil {
			return v, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

// ---- Conn plumbing ----

// Stats implements Conn, aggregating the per-shard clients' counters.
// Clients replaced by failover stop contributing their history, so the
// aggregate can briefly dip; ShardedStats().Failovers records that the
// dip had a cause, and RegistryStats keeps the whole history.
func (sc *ShardedClient) Stats() ClientStats { //lint:allow reach benchmark-only: benchmark/tier.go and cachemix.go read it
	var agg ClientStats
	for _, slot := range sc.slots {
		cli, _ := slot.client()
		st := cli.Stats()
		agg.Retries += st.Retries
		agg.Reconnects += st.Reconnects
		agg.Timeouts += st.Timeouts
	}
	return agg
}

// ShardedStats returns the cluster-level view: aggregated client
// counters plus failovers and topology refreshes.
func (sc *ShardedClient) ShardedStats() ShardedStats { //lint:allow reach benchmark-only: benchmark/cachemix.go reads it
	sc.mu.Lock()
	ver := sc.topo.Version
	sc.mu.Unlock()
	return ShardedStats{
		ClientStats:       sc.Stats(),
		Failovers:         sc.failovers.Value(),
		TopologyRefreshes: sc.refreshes.Value(),
		TopologyVersion:   ver,
		FencedWrites:      sc.fencedWrites.Value(),
	}
}

// RegistryStats reads back the recovery events that every client
// dialed with reg (DialOptions.Obs) recorded there:
// cache_client_events_total, and cache_shard_events_total summed over
// its shard label. Unlike Stats and ShardedStats it keeps the history
// of closed clients and of clients replaced on failover.
// TopologyRefreshes and TopologyVersion have no family and read zero.
func RegistryStats(reg *obs.Registry) ShardedStats {
	var st ShardedStats
	byEvent := map[string]map[string]*int64{
		clientEventsFamily: {
			"retry":     &st.Retries,
			"reconnect": &st.Reconnects,
			"timeout":   &st.Timeouts,
		},
		shardEventsFamily: {
			"failover":     &st.Failovers,
			"fenced-write": &st.FencedWrites,
		},
	}
	for _, p := range reg.Snapshot().Counters {
		if n := byEvent[p.Name][p.Labels["event"]]; n != nil {
			*n += int64(p.Value)
		}
	}
	return st
}

// Close implements Conn: stops the topology watch and closes every
// shard client. Idempotent.
func (sc *ShardedClient) Close() error {
	if !sc.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(sc.watchStop)
	sc.watchWG.Wait()
	var firstErr error
	for _, slot := range sc.slots {
		slot.mu.Lock()
		cli, fcli := slot.cli, slot.fcli
		slot.fcli = nil
		slot.mu.Unlock()
		if fcli != nil {
			_ = fcli.Close()
		}
		if err := cli.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// ---- topology refresh ----

// PublishTopology writes t to every shard under cluster.TopologyKey and
// adopts it locally. Use it to seed a fresh cluster or push an
// operator-driven change.
func (sc *ShardedClient) PublishTopology(t *cluster.Topology) error { //lint:allow reach benchmark-only: benchmark/tier.go seeds its cluster with it
	b, err := t.Encode()
	if err != nil {
		return err
	}
	if err := sc.broadcastTopology(b); err != nil {
		return err
	}
	return sc.adopt(t)
}

// FetchTopology reads the current topology document from the cluster
// (first shard that has it).
func (sc *ShardedClient) FetchTopology() (*cluster.Topology, error) {
	b, err := sc.getAny(cluster.TopologyKey)
	if err != nil {
		return nil, err
	}
	return cluster.Decode(b)
}

// RefreshTopology fetches the shared topology document and adopts it if
// strictly newer than the one in use. Returns whether an adoption
// happened.
func (sc *ShardedClient) RefreshTopology() (bool, error) {
	t, err := sc.FetchTopology()
	if err != nil {
		return false, err
	}
	sc.mu.Lock()
	cur := sc.topo.Version
	sc.mu.Unlock()
	if t.Version <= cur {
		return false, nil
	}
	if err := sc.adopt(t); err != nil {
		return false, err
	}
	return true, nil
}

// adopt installs t: shard addresses are updated in place (dialing new
// leaders eagerly; shards whose new address is unreachable keep their
// current client and heal on a later refresh). The shard ID set must
// match — the ring is fixed at construction, and a topology that adds
// or removes shards would silently re-home keys mid-run.
func (sc *ShardedClient) adopt(t *cluster.Topology) error {
	if err := t.Validate(); err != nil {
		return err
	}
	if len(t.Shards) != len(sc.slots) {
		return errors.New("cache: topology shard count changed; resharding requires a new client")
	}
	byID := make(map[int]cluster.Shard, len(t.Shards))
	for _, sh := range t.Shards {
		byID[sh.ID] = sh
	}
	for _, slot := range sc.slots {
		if _, ok := byID[slot.id]; !ok {
			return errors.New("cache: topology shard ids changed; resharding requires a new client")
		}
	}
	for _, slot := range sc.slots {
		sh := byID[slot.id]
		slot.mu.Lock()
		sameAddr := slot.addr == sh.Addr
		slot.follower = sh.Follower
		if sh.Term > slot.term {
			// Terms only ratchet up: a stale document must never talk a
			// client back into a term a server would fence.
			slot.term = sh.Term
		}
		slot.mu.Unlock()
		if sameAddr {
			continue
		}
		cli, err := DialWith(sh.Addr, sc.opts)
		if err != nil {
			continue // keep the current client; a later refresh can heal
		}
		slot.mu.Lock()
		old := slot.cli
		slot.cli = cli
		slot.addr = sh.Addr
		slot.epoch++
		slot.mu.Unlock()
		_ = old.Close()
	}
	sc.mu.Lock()
	sc.topo = t.Clone()
	sc.mu.Unlock()
	sc.refreshes.Inc()
	return nil
}

// StartTopologyWatch polls the shared topology document every interval
// and adopts newer versions, so promotions performed by other clients
// (or operators) propagate without waiting for this client to hit the
// dead leader itself. Stopped by Close. Safe to call once; later calls
// are no-ops.
func (sc *ShardedClient) StartTopologyWatch(every time.Duration) {
	if every <= 0 {
		return
	}
	sc.watchOnce.Do(func() {
		sc.watchWG.Add(1)
		go func() {
			defer sc.watchWG.Done()
			tick := time.NewTicker(every)
			defer tick.Stop()
			for {
				select {
				case <-tick.C:
					_, _ = sc.RefreshTopology()
				case <-sc.watchStop:
					return
				}
			}
		}()
	})
}

// Interface conformance.
var (
	_ Conn = (*Client)(nil)
	_ Conn = (*ShardedClient)(nil)
)
