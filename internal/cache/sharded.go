package cache

// ShardedClient spreads the cache keyspace across a cluster of
// stellaris-cached shards (DESIGN.md §11): consistent-hash routing per
// key, batch ops fanned out per shard, and — when a shard's leader
// stops answering — failover onto its follower wired into the same
// retry machinery single-server clients already ride through outages.
//
// Ordering contract: single-key ops route to exactly one shard, so
// per-key ordering matches the single-server client. PutN preserves the
// caller's pair order globally by splitting the batch into contiguous
// same-shard runs and executing the runs sequentially — the delta
// weight publisher's delta→snapshot→head ordering survives sharding
// unchanged. GetN has no ordering obligation and fans out one batch per
// shard, merging results back into request order.
//
// The reserved topology key (cluster.TopologyKey) is handled outside
// the ring: writes go to every shard, reads accept the first answer,
// so the shard map itself survives any single shard loss.

import (
	"errors"
	"sort"
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
	// transport exhaustion (gray-failure evacuations included).
	Failovers int64
	// GrayFailovers counts the subset of Failovers triggered by the
	// health score (alive-but-degraded leader) rather than transport
	// exhaustion.
	GrayFailovers int64
	// TopologyRefreshes counts newer topology documents adopted (watch
	// or post-failover refresh).
	TopologyRefreshes int64
	// TopologyVersion is the version of the topology currently in use.
	TopologyVersion int
	// FencedWrites counts writes refused by a server holding a newer
	// shard term (each forces a topology refresh before the retry).
	FencedWrites int64
	// HedgedReads counts reads raced against a degraded shard's
	// follower.
	HedgedReads int64
	// BreakerOpens counts closed→open circuit-breaker transitions.
	BreakerOpens int64
	// RetryBudgetExhausted counts retries denied by the shared
	// DialOptions.RetryBudget (zero when no budget is installed).
	RetryBudgetExhausted int64
}

// ShardedClient is a Conn backed by a cluster of cache servers. Safe
// for concurrent use.
type ShardedClient struct {
	opts DialOptions
	ring *cluster.Ring

	mu    sync.Mutex
	topo  *cluster.Topology
	slots []*shardSlot

	closed        atomic.Bool
	failovers     obs.Counter
	grayFailovers obs.Counter
	refreshes     obs.Counter
	fencedWrites  obs.Counter
	hedgedReads   obs.Counter
	breakerOpens  atomic.Int64 // shared with every slot's breaker

	// events mirrors the recovery counters above into the caller's
	// registry as cache_shard_events_total{event,shard} when
	// DialOptions.Obs is set — the per-shard series the fleet collector's
	// derived failover/fence/breaker/hedge rates are computed from. Nil
	// without a registry.
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
	// hcli is a lazily dialed client to the CURRENT follower address,
	// used for hedged reads and follower topology teaching. Invalidated
	// whenever the follower address moves.
	hcli     *Client
	hcliAddr string

	// health and brk self-synchronize; they sit outside slot.mu.
	health *shardHealth
	brk    *breaker
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
		sc.events = opts.Obs.CounterVec("cache_shard_events_total",
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
		id := sh.ID
		sc.slots = append(sc.slots, &shardSlot{
			id: id, cli: cli, addr: sh.Addr, follower: sh.Follower,
			term:   sh.Term,
			health: newShardHealth(opts.DegradeWindow),
			brk: newBreaker(opts.BreakerThreshold, opts.BreakerCooldown, &sc.breakerOpens,
				func() { sc.event("breaker-open", id) }),
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

// do runs op against key's shard, failing over onto the follower (and
// retrying once) when the leader is transport-dead.
func (sc *ShardedClient) do(key string, op func(*Client) error) error {
	return sc.doSlot(sc.slotFor(key), op)
}

func (sc *ShardedClient) doSlot(slot *shardSlot, op func(*Client) error) error {
	if !slot.brk.allow() {
		return &ErrBreakerOpen{Shard: slot.id}
	}
	cli, epoch := slot.client()
	start := time.Now()
	err := op(cli)
	var te *TransportError
	transport := err != nil && errors.As(err, &te)
	slot.health.note(time.Since(start), transport)
	slot.brk.note(!transport)
	if err == nil {
		// Success — but a persistently slow shard is a gray failure:
		// evacuate it through the same epoch-guarded promotion a dead one
		// gets. The health reset inside failover re-arms the warm-up
		// grace, so a freshly promoted follower cannot be re-judged until
		// a full window of its own ops has accumulated.
		if sc.degraded(slot) {
			sc.failover(slot, epoch, true)
		}
		return nil
	}
	if !transport {
		return err
	}
	if !sc.failover(slot, epoch, false) {
		return err
	}
	cli, _ = slot.client()
	return op(cli)
}

// Health levels from the gray-failure score: suspect shards get their
// reads hedged (latency insurance while the slowdown is mild or still
// being confirmed); degraded shards are evacuated outright.
const (
	healthOK       = iota
	healthSuspect  // latency EWMA past half the threshold: hedge reads
	healthDegraded // past the full threshold (or error rate): evacuate
)

// healthLevel scores slot against the configured gray-failure
// thresholds. Detection is armed only when DegradeLatency is set and
// the observation window has filled.
func (sc *ShardedClient) healthLevel(slot *shardSlot) int {
	if sc.opts.DegradeLatency <= 0 {
		return healthOK
	}
	ewma, errRate, filled := slot.health.snapshot()
	if !filled {
		return healthOK
	}
	switch {
	case ewma >= sc.opts.DegradeLatency || errRate >= degradeErrorRate:
		return healthDegraded
	case ewma >= sc.opts.DegradeLatency/2:
		return healthSuspect
	}
	return healthOK
}

func (sc *ShardedClient) degraded(slot *shardSlot) bool {
	return sc.healthLevel(slot) >= healthDegraded
}

// failover promotes slot's follower: dial it, swap it in as the leader
// address, and demote the old leader address to follower position so a
// later failover can swing back if the original process resurrects. The
// epoch check collapses a thundering herd of concurrent failures into
// one promotion. Returns false when there is nothing to promote (no
// follower, follower also dead, client closed, or a concurrent caller
// already failed over — in which case the caller should simply retry).
// gray marks a promotion triggered by the gray-failure detector rather
// than a transport error; it is counted only when THIS call performs
// the swap, so racing degraded callers cannot inflate GrayFailovers
// past Failovers.
func (sc *ShardedClient) failover(slot *shardSlot, epoch int64, gray bool) bool {
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
	// The new leader starts with a clean health score and a closed
	// breaker — judging it by its predecessor's latencies would
	// evacuate straight back.
	slot.health.reset()
	slot.brk.reset()
	sc.failovers.Inc()
	sc.event("failover", slot.id)
	if gray {
		sc.grayFailovers.Inc()
		sc.event("gray-failover", slot.id)
	}

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
// that has it; reads on a degraded shard are optionally hedged against
// its follower.
func (sc *ShardedClient) Get(key string) ([]byte, error) {
	if key == cluster.TopologyKey {
		return sc.getAny(key)
	}
	slot := sc.slotFor(key)
	if sc.shouldHedge(slot) {
		if v, err, ok := sc.getHedged(slot, key); ok {
			return v, err
		}
	}
	var v []byte
	err := sc.doSlot(slot, func(c *Client) error {
		var e error
		v, e = c.Get(key)
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

// Keys implements Cache: fan out to every shard, merge sorted, dedupe
// (the topology key legitimately exists on all shards).
func (sc *ShardedClient) Keys(prefix string) ([]string, error) {
	var all []string
	for _, slot := range sc.slots {
		err := sc.doSlot(slot, func(c *Client) error {
			ks, e := c.Keys(prefix)
			if e == nil {
				all = append(all, ks...)
			}
			return e
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(all)
	out := all[:0]
	for i, k := range all {
		if i == 0 || k != all[i-1] {
			out = append(out, k)
		}
	}
	return out, nil
}

// Len implements Cache as the sum of per-shard lengths. Keys replicated
// to every shard (the topology key) are counted once per shard — Len is
// a capacity gauge, not an exact cardinality, and the existing
// interface has no way to dedupe counts without a full key scan.
func (sc *ShardedClient) Len() (int, error) {
	total := 0
	for _, slot := range sc.slots {
		err := sc.doSlot(slot, func(c *Client) error {
			n, e := c.Len()
			if e == nil {
				total += n
			}
			return e
		})
		if err != nil {
			return 0, err
		}
	}
	return total, nil
}

// ---- Batcher ----

// PutN implements Batcher. The batch splits into contiguous same-shard
// runs executed sequentially, preserving the caller's global pair order
// (see the package comment: the weight publisher depends on it).
func (sc *ShardedClient) PutN(kvs []KV) error {
	if len(kvs) == 0 {
		return nil
	}
	for start := 0; start < len(kvs); {
		slot := sc.slotFor(kvs[start].Key)
		end := start + 1
		for end < len(kvs) && sc.slotFor(kvs[end].Key) == slot {
			end++
		}
		run := kvs[start:end]
		err := sc.fencedDo(slot, func(c *Client, term int64) error {
			return c.PutNFenced(term, run)
		})
		if err != nil {
			return err
		}
		start = end
	}
	return nil
}

// GetN implements Batcher: one batch per shard, results merged back
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
		if sc.shouldHedge(slot) {
			if vals, err, ok := sc.getNHedged(slot, sub); ok {
				if err != nil {
					return nil, err
				}
				for j, i := range idx {
					out[i] = vals[j]
				}
				continue
			}
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

// ---- hedged reads ----

// shouldHedge reports whether reads on slot should race the follower:
// hedging is enabled, the leader's health score is at least suspect,
// and a follower exists to hedge against.
func (sc *ShardedClient) shouldHedge(slot *shardSlot) bool {
	if !sc.opts.HedgeReads || sc.healthLevel(slot) < healthSuspect {
		return false
	}
	slot.mu.Lock()
	f := slot.follower
	slot.mu.Unlock()
	return f != ""
}

// hedge races op against the slot's leader and follower, returning the
// first successful answer (or, if both fail, the leader's error). The
// losing goroutine is never abandoned mid-channel: the result channel
// is buffered for both, so each sender completes its straight-line
// body — bounded by the client's OpTimeout — and exits. ok=false means
// the follower was undialable and the caller should take the normal
// path.
func (sc *ShardedClient) hedge(slot *shardSlot, op func(*Client) (any, error)) (any, error, bool) {
	fcli := sc.followerClient(slot)
	if fcli == nil {
		return nil, nil, false
	}
	cli, _ := slot.client()
	sc.hedgedReads.Inc()
	sc.event("hedged-read", slot.id)
	type res struct {
		v      any
		err    error
		leader bool
	}
	ch := make(chan res, 2)
	go func() {
		v, err := op(cli)
		ch <- res{v, err, true}
	}()
	go func() {
		v, err := op(fcli)
		ch <- res{v, err, false}
	}()
	first := <-ch
	if first.err == nil {
		return first.v, nil, true
	}
	second := <-ch
	if second.err == nil {
		return second.v, nil, true
	}
	if first.leader {
		return nil, first.err, true
	}
	return nil, second.err, true
}

func (sc *ShardedClient) getHedged(slot *shardSlot, key string) ([]byte, error, bool) {
	v, err, ok := sc.hedge(slot, func(c *Client) (any, error) { return c.Get(key) })
	if !ok || err != nil {
		return nil, err, ok
	}
	return v.([]byte), nil, true
}

func (sc *ShardedClient) getNHedged(slot *shardSlot, keys []string) ([][]byte, error, bool) {
	v, err, ok := sc.hedge(slot, func(c *Client) (any, error) { return c.GetN(keys) })
	if !ok || err != nil {
		return nil, err, ok
	}
	return v.([][]byte), nil, true
}

// followerClient returns a cached client to slot's CURRENT follower
// address, dialing one (outside any lock) when missing or stale. Nil
// when the shard has no follower or the follower is undialable.
func (sc *ShardedClient) followerClient(slot *shardSlot) *Client {
	slot.mu.Lock()
	f := slot.follower
	if slot.hcli != nil && slot.hcliAddr == f {
		c := slot.hcli
		slot.mu.Unlock()
		return c
	}
	stale := slot.hcli
	slot.hcli = nil
	slot.mu.Unlock()
	if stale != nil {
		_ = stale.Close()
	}
	if f == "" {
		return nil
	}
	// A hedge client never retries: its whole purpose is the fast
	// second opinion, and the primary path already owns the backoff
	// schedule.
	hopts := sc.opts
	hopts.Attempts = 1
	hopts.Obs = nil
	cli, err := DialWith(f, hopts)
	if err != nil {
		return nil
	}
	slot.mu.Lock()
	if sc.closed.Load() || slot.follower != f || slot.hcli != nil {
		slot.mu.Unlock()
		_ = cli.Close()
		return nil
	}
	slot.hcli, slot.hcliAddr = cli, f
	slot.mu.Unlock()
	return cli
}

// ---- topology-key fan-out ----

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

// GetAny reads key from the first shard that answers, bypassing hash
// routing. Records written by a process directly into its own shard's
// store — heartbeat self-registrations under KeyObsInstancePrefix — are
// not hash-placed, so discovery readers must scan rather than route.
func (sc *ShardedClient) GetAny(key string) ([]byte, error) {
	return sc.getAny(key)
}

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
// dip had a cause.
func (sc *ShardedClient) Stats() ClientStats {
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
func (sc *ShardedClient) ShardedStats() ShardedStats {
	sc.mu.Lock()
	ver := sc.topo.Version
	sc.mu.Unlock()
	var exhausted int64
	if sc.opts.RetryBudget != nil {
		exhausted = sc.opts.RetryBudget.Exhausted()
	}
	return ShardedStats{
		ClientStats:          sc.Stats(),
		Failovers:            sc.failovers.Value(),
		GrayFailovers:        sc.grayFailovers.Value(),
		TopologyRefreshes:    sc.refreshes.Value(),
		TopologyVersion:      ver,
		FencedWrites:         sc.fencedWrites.Value(),
		HedgedReads:          sc.hedgedReads.Value(),
		BreakerOpens:         sc.breakerOpens.Load(),
		RetryBudgetExhausted: exhausted,
	}
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
		cli, hcli := slot.cli, slot.hcli
		slot.hcli = nil
		slot.mu.Unlock()
		if hcli != nil {
			_ = hcli.Close()
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
func (sc *ShardedClient) PublishTopology(t *cluster.Topology) error {
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
