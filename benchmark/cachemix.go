package main

import (
	"bytes"
	"fmt"
	"sync"
	"time"

	"stellaris/internal/cache"
	"stellaris/internal/obs"
	"stellaris/internal/obs/lineage"
	"stellaris/internal/replay"
	"stellaris/internal/rng"
)

// mixClients is the number of closed-loop clients; each waits for its
// own reply before sending the next request. It equals the cores the
// children run on.
const mixClients = 2

// mixTrajPool is how many distinct seeded trajectories each client
// cycles through.
const mixTrajPool = 16

// mixClient is one closed-loop client of cache_mix: its connection,
// its delta subscriber and (client 0 only) the delta publisher.
type mixClient struct {
	id      int
	conn    cache.Conn
	sub     *cache.WeightsSub
	pub     *cache.WeightsPublisher
	trajs   []*replay.Trajectory
	grad    []float64
	weights []float64
	rng     *rng.RNG

	calls, failed int
	latencies     []float64 // ms per cycle
}

// call counts one cache call and whether it failed.
func (c *mixClient) call(err error) bool {
	c.calls++
	if err != nil {
		c.failed++
		return false
	}
	return true
}

// same counts a returned payload that differs from what was put as a
// failed call.
func (c *mixClient) same(got, put []byte) {
	if !bytes.Equal(got, put) {
		c.failed++
	}
}

// cycle replays the cache traffic of one policy update at group size 1:
// the actor's weight fetch and two trajectory puts, the learner's batch
// get, decodes and deletes, the gradient's put/get/decode/delete, and
// (client 0) the parameter worker's delta publish.
func (c *mixClient) cycle(n int) {
	_, ver, err := c.sub.Fetch()
	c.call(err)

	var keys [2]string
	var bufs [2][]byte
	for j := range keys {
		keys[j] = fmt.Sprintf("traj/%d/%d", c.id, 2*n+j)
		traj := c.trajs[(2*n+j)%len(c.trajs)]
		traj.PolicyVersion = ver
		traj.Trace = lineage.Meta{
			ID: keys[j], Kind: lineage.KindTrajectory,
			Origin: fmt.Sprintf("actor/%d#0", c.id), Parent: lineage.WeightsID(ver),
		}
		b, err := cache.EncodeTrajectory(traj)
		if c.call(err) {
			c.call(c.conn.Put(keys[j], b))
		}
		bufs[j] = b
	}
	vals, err := cache.BatchGet(c.conn, keys[:])
	if c.call(err) {
		for j, raw := range vals {
			c.same(raw, bufs[j])
			_, err := cache.DecodeTrajectory(raw)
			c.call(err)
		}
	}
	for j, k := range keys {
		c.call(c.conn.Delete(k))
		cache.Recycle(bufs[j])
	}

	gkey := fmt.Sprintf("grad/%d/%d", c.id, n)
	gb, err := cache.EncodeGrad(&cache.GradMsg{
		LearnerID: c.id, BornVersion: ver, Grad: c.grad, Samples: 128, MeanRatio: 1,
		Trace: lineage.Meta{
			ID: gkey, Kind: lineage.KindGradient,
			Origin: fmt.Sprintf("learner/%d#0", c.id), Parent: lineage.WeightsID(ver),
		},
	})
	if c.call(err) && c.call(c.conn.Put(gkey, gb)) {
		raw, err := c.conn.Get(gkey)
		if c.call(err) {
			c.same(raw, gb)
			_, err := cache.DecodeGrad(raw)
			c.call(err)
		}
		c.call(c.conn.Delete(gkey))
	}
	cache.Recycle(gb)

	if c.pub != nil {
		// A dense perturbation: every weight changes, as after an
		// optimizer step, so the delta goes out in its dense form.
		eps := 1e-3 * c.rng.NormFloat64()
		for i := range c.weights {
			c.weights[i] += eps
		}
		c.call(c.pub.Publish(n+1, c.weights, lineage.Meta{
			ID: lineage.WeightsID(n + 1), Kind: lineage.KindWeights, Origin: "param",
		}))
	}
}

// mixPass dials the clients onto t, runs cycles cycles on each and
// returns them (closed). Client 0 publishes version 0 before the
// clients start, so the first fetch already finds a head. timed, when
// set, wraps the part between the start barrier and the last cycle.
func mixPass(w workload, seed uint64, t *tier, reg *obs.Registry, cycles int, timed func(func())) ([]*mixClient, error) {
	clients := make([]*mixClient, mixClients)
	for i := range clients {
		conn, err := t.dialWith(cache.DialOptions{Seed: seed + uint64(i), Obs: reg})
		if err != nil {
			for _, c := range clients[:i] {
				_ = c.conn.Close()
			}
			return nil, err
		}
		clients[i] = &mixClient{id: i, conn: conn, sub: &cache.WeightsSub{C: conn}}
	}
	defer func() {
		for _, c := range clients {
			_ = c.conn.Close()
		}
	}()

	for i, c := range clients {
		// Real payloads from the seed: trajectories from a seeded rollout,
		// gradient and weight vectors of the model's parameter count.
		rl, err := newRoller(w, seed+uint64(i))
		if err != nil {
			return nil, err
		}
		for j := 0; j < mixTrajPool; j++ {
			c.trajs = append(c.trajs, rl.rollout("", w.ActorSteps, 0))
		}
		c.rng = rng.New(seed).Split(uint64(500 + i))
		c.grad = noise(c.rng, rl.model.NumParams(), 0.01)
		c.weights = rl.model.Weights()
		c.latencies = make([]float64, 0, cycles)
	}
	clients[0].pub = &cache.WeightsPublisher{C: clients[0].conn}
	if err := clients[0].pub.Publish(0, clients[0].weights, lineage.Meta{}); err != nil {
		return nil, fmt.Errorf("publishing version 0: %w", err)
	}

	run := func() {
		var wg sync.WaitGroup
		for _, c := range clients {
			wg.Add(1)
			go func(c *mixClient) {
				defer wg.Done()
				for n := 0; n < cycles; n++ {
					start := time.Now()
					c.cycle(n)
					c.latencies = append(c.latencies, float64(time.Since(start))/float64(time.Millisecond))
				}
			}(c)
		}
		wg.Wait()
	}
	if timed != nil {
		timed(run)
	} else {
		run()
	}
	return clients, nil
}

func runCacheMix(w workload, spec runSpec, res *runResult) error {
	cycles := scaled(w.Units, spec.Scale)
	res.Params = map[string]any{
		"clients": mixClients, "gomaxprocs": w.Procs, "cycles_per_client": cycles, "shards": w.Shards, "followers": true,
		"env": w.Env, "hidden": w.Hidden, "actor_steps": w.ActorSteps, "traj_pool": mixTrajPool, "codec": "binary",
	}

	wt, err := startTier(w.Shards, spec.Seed, nil)
	if err != nil {
		return err
	}
	_, err = mixPass(w, spec.Seed, wt, nil, scaled(cycles, warmupShare), nil)
	wt.close()
	if err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}

	var cliReg, srvReg *obs.Registry
	if spec.Mode == modeTraced {
		cliReg, srvReg = obs.NewRegistry(), obs.NewRegistry()
	}
	t, err := startTier(w.Shards, spec.Seed, srvReg)
	if err != nil {
		return err
	}
	defer t.close()
	clients, err := mixPass(w, spec.Seed, t, cliReg, cycles, res.timed)
	if err != nil {
		return err
	}
	converged := t.converged(2 * time.Second)

	var all []float64
	var sub cache.SubStats
	for _, c := range clients {
		res.Attempted += c.calls
		res.Failed += c.failed
		all = append(all, c.latencies...)
		s := c.sub.Stats()
		sub.DeltaHits += s.DeltaHits
		sub.FullFetches += s.FullFetches
	}
	res.UpdatesPerS = float64(len(all)) / res.WallS
	res.CyclesPerS = res.UpdatesPerS
	res.CycleSamples = len(all)
	sorted := sortedCopy(all)
	res.CycleP50Ms = percentile(sorted, 50)
	if pct, v, ok := highPercentile(sorted); ok {
		res.CycleHiPct, res.CycleHiMs = pct, v
	}

	res.check("payloads_and_calls", res.Failed == 0, fmt.Sprintf("%d of %d cache calls failed or returned other bytes", res.Failed, res.Attempted))
	// The clients are closed; a fresh connection must still see the
	// last published version through the delta path's head pointer.
	final := -1
	if conn, err := t.dialWith(cache.DialOptions{Seed: spec.Seed}); err == nil {
		_, final, err = (&cache.WeightsSub{C: conn}).Fetch()
		if err != nil {
			final = -1
		}
		_ = conn.Close()
	}
	res.check("final_version", final == cycles, fmt.Sprintf("fetched v%d, published v%d", final, cycles))
	res.check("followers_converged", converged, "every follower store matches its leader's key count within 2 s")

	if fetched := sub.DeltaHits + sub.FullFetches; fetched > 0 {
		res.Layer["cache.delta_hit_ratio"] = float64(sub.DeltaHits) / float64(fetched)
	}
	if spec.Mode == modeTraced {
		mixLayer(res.Layer, clients, srvReg.Snapshot(), t, float64(len(all)))
	}
	return nil
}

// mixLayer reads the (I) per-layer metrics of an instrumented
// cache_mix run; a cycle stands for one update.
func mixLayer(out map[string]float64, clients []*mixClient, srv *obs.Snapshot, t *tier, cycles float64) {
	out["cache.ops_per_update"] = counterSum(srv, "cache_server_ops_total", "", "") / cycles
	out["cache.wire_bytes_per_update"] = counterSum(srv, "cache_server_frame_bytes_total", "", "") / cycles
	_, out["cache.server_busy_s"] = histTotals(srv, "cache_server_op_seconds", "", "")
	out["cache.repl_applied_ops"] = float64(t.replicatedOps())
	for _, c := range clients {
		st := c.conn.Stats()
		out["cache.retries"] += float64(st.Retries)
		out["cache.timeouts"] += float64(st.Timeouts)
		if sc, ok := c.conn.(*cache.ShardedClient); ok {
			ss := sc.ShardedStats()
			out["cache.failovers"] += float64(ss.Failovers)
			out["cache.fenced_writes"] += float64(ss.FencedWrites)
		}
	}
}
