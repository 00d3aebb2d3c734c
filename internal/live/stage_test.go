package live

import (
	"errors"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"stellaris/internal/cache"
	"stellaris/internal/leaktest"
	"stellaris/internal/obs"
	"stellaris/internal/obs/lineage"
	"stellaris/internal/rng"
)

// gradPutFails is a cache whose gradient puts fail the way a client
// with its retries exhausted does.
type gradPutFails struct{ cache.Cache }

func (c gradPutFails) Put(key string, val []byte) error {
	if strings.HasPrefix(key, "grad/") {
		return errors.New("put refused")
	}
	return c.Cache.Put(key, val)
}

func dropsBy(t *testing.T, reg *obs.Registry, reason string) int64 {
	t.Helper()
	p, ok := reg.Snapshot().Find("live_dropped_payloads_total", map[string]string{"reason": reason})
	if !ok {
		t.Fatalf("live_dropped_payloads_total{reason=%q} missing", reason)
	}
	return int64(p.Value)
}

// TestLearnerStep drives learner.step against a plain MemCache: every
// case starts from two real trajectories an actor rolled out under
// weights v3.
func TestLearnerStep(t *testing.T) {
	const fetched = 3
	cases := []struct {
		name      string
		noWeights bool // the weights vanish before the learner ever fetched
		corrupt   bool // the first trajectory is garbage
		failPut   bool
		wantOK    bool
		reason    string // the one drop reason expected, "" for none
		drops     int64
		wantSeq   int
		samples   int // Samples of the gradient that landed
	}{
		{name: "happy path", wantOK: true, wantSeq: 1, samples: 16},
		{name: "no weights yet", noWeights: true, reason: dropNoWeights, drops: 2},
		{name: "one corrupt trajectory", corrupt: true, wantOK: true, reason: dropDecodeFailed, drops: 1, wantSeq: 1, samples: 8},
		{name: "put failure", failPut: true, reason: dropPutFailed, drops: 1, wantSeq: 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			r := newTestRun(t, Options{ActorSteps: 8, MaxStaleFallbacks: 2, Hidden: 16})
			r.m = newLiveMetrics(reg)
			r.st.m = r.m
			mem := cache.NewMemCache()
			a, err := r.newActor(0, workerName("actor", 0, 0), mem, rng.New(7))
			if err != nil {
				t.Fatal(err)
			}
			if err := (&cache.WeightsPublisher{C: mem}).Publish(fetched, a.model.Weights(), lineage.Meta{}); err != nil {
				t.Fatal(err)
			}
			var keys []string
			for i := 0; i < 2; i++ {
				note, ok, err := a.iterate()
				if err != nil || !ok {
					t.Fatalf("rollout %d: ok=%v err=%v", i, ok, err)
				}
				keys = append(keys, note.key)
			}
			if tc.noWeights {
				if err := mem.Delete(cache.KeyWeightsLatest); err != nil {
					t.Fatal(err)
				}
			}
			if tc.corrupt {
				if err := mem.Put(keys[0], []byte("not a trajectory")); err != nil {
					t.Fatal(err)
				}
			}
			var cli cache.Cache = mem
			if tc.failPut {
				cli = gradPutFails{mem}
			}
			seq := 0
			l := r.newLearner(0, workerName("learner", 0, 0), cli, rng.New(9), &seq)

			note, ok, err := l.step(keys)
			if err != nil || ok != tc.wantOK {
				t.Fatalf("step: ok=%v err=%v, want ok=%v", ok, err, tc.wantOK)
			}
			if seq != tc.wantSeq {
				t.Fatalf("seq = %d, want %d", seq, tc.wantSeq)
			}
			if got := total(r.m.drops, dropReasons); got != tc.drops {
				t.Fatalf("dropped = %d, want %d", got, tc.drops)
			}
			if tc.reason != "" {
				if got := dropsBy(t, reg, tc.reason); got != tc.drops {
					t.Fatalf("drops{%s} = %d, want %d", tc.reason, got, tc.drops)
				}
			}
			// Used, shed or corrupt: no trajectory outlives the step.
			if left, _ := mem.Keys("traj/"); len(left) != 0 {
				t.Fatalf("trajectories left in the cache: %v", left)
			}
			grads, _ := mem.Keys("grad/")
			if !tc.wantOK {
				if note.key != "" || len(grads) != 0 {
					t.Fatalf("no gradient expected: note %+v, keys %v", note, grads)
				}
				return
			}
			if len(grads) != 1 || grads[0] != note.key {
				t.Fatalf("gradient keys %v, note %+v", grads, note)
			}
			raw, err := mem.Get(note.key)
			if err != nil {
				t.Fatal(err)
			}
			msg, err := cache.DecodeGrad(raw)
			if err != nil {
				t.Fatal(err)
			}
			if msg.BornVersion != fetched || msg.Samples != tc.samples || msg.Trace.ID != note.key {
				t.Fatalf("gradient born v%d with %d samples, trace %q; want v%d, %d, %q",
					msg.BornVersion, msg.Samples, msg.Trace.ID, fetched, tc.samples, note.key)
			}
		})
	}
}

// TestAbsorbCorruptGradient: a gradient that does not decode is shed —
// counted, deleted — and changes nothing else.
func TestAbsorbCorruptGradient(t *testing.T) {
	opt := lockOpts("")
	opt.Obs = obs.NewRegistry()
	opt, err := opt.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	r, _, err := newRun(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	const key = "grad/0/0"
	if err := r.paramCli.Put(key, []byte("not a gradient")); err != nil {
		t.Fatal(err)
	}
	before := append([]float64(nil), r.weights...)
	if err := r.absorb(gradNote{key: key}); err != nil {
		t.Fatal(err)
	}
	if got, all := dropsBy(t, opt.Obs, dropDecodeFailed), total(r.m.drops, dropReasons); got != 1 || all != 1 {
		t.Fatalf("decode-failed drops = %d (total %d), want 1", got, all)
	}
	if _, err := r.paramCli.Get(key); err == nil {
		t.Fatal("corrupt gradient still in the cache")
	}
	if r.version.Load() != 0 || !weightsEqual(before, r.weights) {
		t.Fatalf("corrupt gradient moved the policy: version %d", r.version.Load())
	}
	// A gradient that is not there at all is skipped without a drop.
	if err := r.absorb(gradNote{key: "grad/0/1"}); err != nil || total(r.m.drops, dropReasons) != 1 {
		t.Fatalf("missing gradient: err=%v dropped=%d", err, total(r.m.drops, dropReasons))
	}
}

// TestWeightViewFallback pins the one stale-weight fallback actors and
// learners share: a failed fetch returns the stale copy WITH the version
// it was fetched under, a success clears the streak, and the view gives
// up after MaxStaleFallbacks consecutive failures.
func TestWeightViewFallback(t *testing.T) {
	r := newTestRun(t, Options{MaxStaleFallbacks: 2})
	mem := cache.NewMemCache()
	fresh := []float64{1, 2, 3}
	v := r.newWeightView(mem, make([]float64, len(fresh)), "learner 0")
	if err := (&cache.WeightsPublisher{C: mem}).Publish(4, fresh, lineage.Meta{}); err != nil {
		t.Fatal(err)
	}
	if _, ver, ok, err := v.fetch(); err != nil || !ok || ver != 4 {
		t.Fatalf("fetch: v%d ok=%v err=%v", ver, ok, err)
	}
	unpublish(t, mem)
	for i := 1; i <= 2; i++ {
		w, ver, ok, err := v.fetch()
		if err != nil || !ok || ver != 4 || !weightsEqual(w, fresh) {
			t.Fatalf("fallback %d: %v v%d ok=%v err=%v, want the v4 copy", i, w, ver, ok, err)
		}
	}
	if got := r.m.staleReuse.Value(); got != 2 {
		t.Fatalf("stale reuses = %d, want 2", got)
	}
	if _, _, _, err := v.fetch(); err == nil || !strings.Contains(err.Error(), "learner 0: weights unavailable after 3 fallbacks") {
		t.Fatalf("third consecutive failure: err = %v", err)
	}
	// A success in between resets the streak.
	if err := (&cache.WeightsPublisher{C: mem}).Publish(5, fresh, lineage.Meta{}); err != nil {
		t.Fatal(err)
	}
	if _, ver, ok, err := v.fetch(); err != nil || !ok || ver != 5 {
		t.Fatalf("recovered fetch: v%d ok=%v err=%v", ver, ok, err)
	}
	unpublish(t, mem)
	if _, ver, ok, err := v.fetch(); err != nil || !ok || ver != 5 {
		t.Fatalf("fallback after recovery: v%d ok=%v err=%v", ver, ok, err)
	}
}

// unpublish deletes the head and the vector, so the next fetch fails.
func unpublish(t *testing.T, c cache.Cache) {
	t.Helper()
	for _, k := range []string{cache.KeyWeightsHead, cache.KeyWeightsLatest} {
		if err := c.Delete(k); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWeightViewKeepsCopyOnCorruptSnapshot: the view's subscriber
// decodes each vector over its own stale copy, so one that fails its
// checks after a good fetch — read because the head moved — must leave
// that copy and its version bit for bit as they were, and be what the
// fallback answers.
func TestWeightViewKeepsCopyOnCorruptSnapshot(t *testing.T) {
	good := []float64{1, math.Copysign(0, -1), math.Inf(1), 5e-324}
	next, err := cache.EncodeWeights(&cache.WeightsMsg{Version: 5, Weights: []float64{9, 9, 9, 9}})
	if err != nil {
		t.Fatal(err)
	}
	grad, err := cache.EncodeGrad(&cache.GradMsg{Grad: []float64{9, 9, 9, 9}})
	if err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string][]byte{
		"trailing byte": append(append([]byte(nil), next...), 0),
		"truncated":     next[:len(next)-8],
		"wrong kind":    grad,
	} {
		t.Run(name, func(t *testing.T) {
			r := newTestRun(t, Options{MaxStaleFallbacks: 2})
			mem := cache.NewMemCache()
			v := r.newWeightView(mem, make([]float64, len(good)), "actor 0")
			if err := (&cache.WeightsPublisher{C: mem}).Publish(4, good, lineage.Meta{}); err != nil {
				t.Fatal(err)
			}
			w, ver, ok, err := v.fetch()
			if err != nil || !ok || ver != 4 {
				t.Fatalf("good fetch: v%d ok=%v err=%v", ver, ok, err)
			}
			copyBefore := &w[0]
			head, err := cache.EncodeWeights(&cache.WeightsMsg{Version: 5})
			if err != nil {
				t.Fatal(err)
			}
			if err := mem.Put(cache.KeyWeightsLatest, bad); err != nil {
				t.Fatal(err)
			}
			if err := mem.Put(cache.KeyWeightsHead, head); err != nil {
				t.Fatal(err)
			}
			w, ver, ok, err = v.fetch()
			if err != nil || !ok || ver != 4 || &w[0] != copyBefore {
				t.Fatalf("fallback: v%d ok=%v err=%v, want the v4 copy itself", ver, ok, err)
			}
			for i := range good {
				if math.Float64bits(w[i]) != math.Float64bits(good[i]) {
					t.Fatalf("the stale copy changed at %d: %v, was %v", i, w[i], good[i])
				}
			}
		})
	}
}

// TestWeightViewFetchAllocatesNoVector guards the workers' receive
// path: once warm, a fetch whose head moved — the head, then the 1 MB
// vector, over a loopback server — allocates less than 4 KB in the whole
// process: the value lands in the subscriber's receive buffer and is
// decoded over its copy. The publishes between fetches are not counted.
func TestWeightViewFetchAllocatesNoVector(t *testing.T) {
	leaktest.Check(t)
	srv := cache.NewServer(nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := cache.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	pub := &cache.WeightsPublisher{C: cli}
	w := make([]float64, 1<<20/8)
	v := newTestRun(t, Options{}).newWeightView(cli, make([]float64, len(w)), "actor 0")
	publishThenFetch := func(ver int) uint64 {
		w[len(w)-1] = float64(ver)
		if err := pub.Publish(ver, w, lineage.Meta{}); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, gotVer, ok, err := v.fetch()
		runtime.ReadMemStats(&after)
		if err != nil || !ok || gotVer != ver || got[len(w)-1] != w[len(w)-1] {
			t.Fatalf("fetch: v%d ok=%v err=%v, want v%d", gotVer, ok, err, ver)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	publishThenFetch(0)
	publishThenFetch(1)
	const fetches = 100
	var total uint64
	for ver := 2; ver < 2+fetches; ver++ {
		total += publishThenFetch(ver)
	}
	if st := v.sub.Stats(); st.FullFetches != 2+fetches {
		t.Fatalf("%d vector reads for %d moved heads", st.FullFetches, 2+fetches)
	}
	if per := total / fetches; per >= 4<<10 {
		t.Fatalf("a weight fetch allocates %d bytes, want < 4096 (the vector is %d)", per, 8*len(w))
	} else {
		t.Logf("a weight fetch allocates %d bytes for a %d-byte vector", per, 8*len(w))
	}
}

// TestAbsorbGetFailed: a gradient the cache could not serve is a drop
// like any other — counted under its own reason, with a shed hop — but is
// not deleted: the cache has just eaten a retry budget.
func TestAbsorbGetFailed(t *testing.T) {
	opt := lockOpts("")
	opt.Obs = obs.NewRegistry()
	opt, err := opt.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	r, _, err := newRun(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	const key = "grad/0/0"
	if err := r.paramCli.Put(key, []byte("unreachable")); err != nil {
		t.Fatal(err)
	}
	healthy := r.paramCli
	r.paramCli = getFails{healthy}
	err = r.absorb(gradNote{key: key})
	r.paramCli = healthy
	if err != nil {
		t.Fatal(err)
	}
	if got, all := dropsBy(t, opt.Obs, dropGetFailed), total(r.m.drops, dropReasons); got != 1 || all != 1 {
		t.Fatalf("get-failed drops = %d (total %d), want 1", got, all)
	}
	if _, err := healthy.Get(key); err != nil {
		t.Fatalf("the shed spent a delete on a failing cache: %v", err)
	}
	if r.version.Load() != 0 {
		t.Fatalf("unreadable gradient moved the policy to v%d", r.version.Load())
	}
}

// getFails is a connection whose buffered reads, the ones absorb makes,
// fail the way a client with its retries exhausted does.
type getFails struct{ cache.Conn }

func (getFails) GetInto(string, []byte) ([]byte, error) { return nil, errors.New("get timed out") }

// TestLiveTrainLeavesNoPayloadsBehind began as the regression test for
// the trajectory leak (shed batches' keys used to stay in the cache for
// good) and now holds the stronger promise rollout admission makes: with
// learners far slower than actors nothing is produced that would have to
// be shed. Against an external store the run must drop nothing, keep the
// payload count bounded by what admission lets wait, and leave no
// trajectory or gradient behind when it ends.
func TestLiveTrainLeavesNoPayloadsBehind(t *testing.T) {
	leaktest.Check(t)
	mem := cache.NewMemCache()
	srv := cache.NewServer(mem)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	opt := tinyOpts()
	opt.CacheAddr = addr
	opt.Obs = obs.NewRegistry() // for Report.Lineage
	opt.panicHook = func(role string, id int) bool {
		if role == "learner" {
			time.Sleep(20 * time.Millisecond) // learners slower than actors
		}
		return false
	}
	payloads := func() int {
		trajs, _ := mem.Keys("traj/")
		grads, _ := mem.Keys("grad/")
		return len(trajs) + len(grads)
	}
	stop, sampled := make(chan struct{}), make(chan int)
	go func() {
		peak := 0
		for {
			select {
			case <-stop:
				sampled <- peak
				return
			case <-time.After(2 * time.Millisecond):
				if n := payloads(); n > peak {
					peak = n
				}
			}
		}
	}()
	rep, err := Train(opt)
	close(stop)
	peak := <-sampled
	if err != nil {
		t.Fatal(err)
	}
	// No trajectory is shed. (A gradient still may be, at gradCh, should
	// the parameter worker fall behind: that is not admission's promise.)
	for _, id := range rep.Lineage.Traces(lineage.KindTrajectory) {
		for _, e := range rep.Lineage.Timeline(id) {
			if e.Hop == lineage.HopShed {
				t.Fatalf("%s shed (%s): admission let the actors outrun the learners", id, e.Detail)
			}
		}
	}
	if rep.DroppedPayloads > int64(opt.Learners) {
		t.Fatalf("%d payloads shed", rep.DroppedPayloads)
	}
	if n := payloads(); n != 0 {
		t.Fatalf("%d payloads left behind", n)
	}
	// What can be in the store at once: what admission lets wait (actors
	// check, then add, so up to Actors−1 beyond the rule), one batch in
	// each learner's hands, and the gradient queue plus one gradient per
	// learner.
	perBatch := (opt.BatchSize + opt.ActorSteps - 1) / opt.ActorSteps
	bound := perBatch*(opt.Learners+1) + opt.Actors - 1 +
		opt.Learners*perBatch + 2*opt.Learners + opt.Learners
	t.Logf("peak %d payloads in the store (bound %d), %d drops", peak, bound, rep.DroppedPayloads)
	if peak > bound {
		t.Fatalf("store held %d payloads at once, bound %d", peak, bound)
	}
}

// TestAdmissionKeepsHungryLearnersFed is the liveness twin: more
// learners than actors, and batches that ActorSteps does not divide. The
// gate counts trajectories where the loader counts steps; were an
// admitted batch's worth ever short of a loader batch, every actor would
// park on a batch that can never fill.
func TestAdmissionKeepsHungryLearnersFed(t *testing.T) {
	leaktest.Check(t)
	opt := tinyOpts()
	opt.Actors, opt.Learners = 1, 3
	opt.ActorSteps, opt.BatchSize = 24, 64
	opt.Updates = 6
	type result struct {
		rep *Report
		err error
	}
	done := make(chan result, 1)
	go func() {
		rep, err := Train(opt)
		done <- result{rep, err}
	}()
	select {
	case res := <-done:
		if res.err != nil {
			t.Fatal(res.err)
		}
		if res.rep.Updates < opt.Updates {
			t.Fatalf("%d of %d updates", res.rep.Updates, opt.Updates)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("stalled: the actor parked on a batch that can never fill")
	}
}

// TestAdmissionSurvivesWorkerPanics: workers crashing at a seeded rate —
// actors inside an admitted iteration, with their slot held — must not
// leak the admission counts: the run completes, and once it has drained
// nothing is waiting and nobody is idle.
func TestAdmissionSurvivesWorkerPanics(t *testing.T) {
	leaktest.Check(t)
	opt := tinyOpts()
	opt.Updates = 8
	opt.RestartBudget = 64
	opt.RestartBackoff = time.Millisecond
	var mu sync.Mutex
	chaos := rng.New(23)
	calls := map[string]int{}
	opt.panicHook = func(role string, id int) bool {
		mu.Lock()
		defer mu.Unlock()
		calls[role]++
		// The second call of each role guarantees a crash of both kinds
		// however few iterations the run takes.
		return calls[role] == 2 || chaos.Float64() < 0.1
	}
	opt, err := opt.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	r, _, err := newRun(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	if err := r.runAsync(); err != nil {
		t.Fatal(err)
	}
	if got := int(r.version.Load()); got < opt.Updates {
		t.Fatalf("%d of %d updates", got, opt.Updates)
	}
	actors, learners := r.m.restarts.With("actor").Value(), r.m.restarts.With("learner").Value()
	if actors == 0 || learners == 0 {
		t.Fatalf("restarts: %d actor, %d learner — the drill crashed nobody", actors, learners)
	}
	if w, i := r.waiting.Load(), r.idle.Load(); w != 0 || i != 0 {
		t.Fatalf("after the drain: %d waiting, %d idle (%d actor + %d learner restarts), want 0, 0",
			w, i, actors, learners)
	}
}

// reuseStore is a single-goroutine cache.Conn that allocates a value
// buffer only when none it already holds fits: an overwrite reuses the
// key's buffer, and the smallest deleted key's buffer that fits serves
// the next put. Over it,
// what the pipeline's stages allocate is theirs alone — a MemCache or a
// server would add a stored copy of every put.
type reuseStore struct {
	vals map[string][]byte
	free [][]byte
}

func newReuseStore() *reuseStore { return &reuseStore{vals: map[string][]byte{}} }

func (s *reuseStore) Put(key string, val []byte) error {
	buf := s.vals[key]
	if cap(buf) < len(val) {
		best := -1 // the smallest free buffer that fits
		for i, f := range s.free {
			if cap(f) >= len(val) && (best < 0 || cap(f) < cap(s.free[best])) {
				best = i
			}
		}
		if best < 0 {
			buf = make([]byte, len(val))
		} else {
			buf, s.free = s.free[best], append(s.free[:best], s.free[best+1:]...)
		}
	}
	s.vals[key] = append(buf[:0], val...)
	return nil
}

func (s *reuseStore) Get(key string) ([]byte, error) {
	if v, ok := s.vals[key]; ok {
		return v, nil
	}
	return nil, cache.ErrNotFound{Key: key}
}

func (s *reuseStore) GetInto(key string, buf []byte) ([]byte, error) {
	v, err := s.Get(key)
	if err != nil {
		return nil, err
	}
	return append(buf[:0], v...), nil
}

func (s *reuseStore) GetN(keys []string) ([][]byte, error) {
	out := make([][]byte, len(keys))
	for i, k := range keys {
		out[i] = s.vals[k]
	}
	return out, nil
}

func (s *reuseStore) Delete(key string) error {
	if v, ok := s.vals[key]; ok {
		s.free = append(s.free, v)
		delete(s.vals, key)
	}
	return nil
}

func (s *reuseStore) Len() (int, error)        { return len(s.vals), nil }
func (s *reuseStore) Stats() cache.ClientStats { return cache.ClientStats{} }
func (s *reuseStore) Close() error             { return nil }

// TestSteadyStateStepsAllocateNoParameterVector guards the in-place
// update loop at the paper's 2x256 width: once warm, a learner step —
// the weights decoded into its model, the gradient computed into the
// model's gradient slab and encoded from it — and a parameter step —
// the gradient decoded into a vector a combined group gave back,
// combined, stepped and published — each allocate, on average in the
// whole process, far less than one parameter vector.
func TestSteadyStateStepsAllocateNoParameterVector(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop frames at random: the codec's encodes allocate")
	}
	// One P: the codec's frame pool is per P, and a goroutine moved to
	// another one would encode into a new frame.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	opt, err := Options{
		Env: "cartpole", Seed: 3, Actors: 1, Learners: 1,
		Updates: 1 << 20, ActorSteps: 8, BatchSize: 16, Hidden: 256,
		Lockstep: true,
	}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	r, _, err := newRun(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	store := newReuseStore()
	r.paramCli, r.pub = store, &cache.WeightsPublisher{C: store}
	if err := r.publishWeights(0); err != nil {
		t.Fatal(err)
	}
	a, err := r.newActor(0, workerName("actor", 0, 0), store, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	l := r.newLearner(0, workerName("learner", 0, 0), store, rng.New(9), new(int))
	var stepBytes, absorbBytes uint64
	warmVersion := 0
	// The warm-up outlasts two settling phases: the codec's frame pool
	// holds trajectory-sized frames after the first steps (an encode that
	// draws one drops it for a frame of its own size), and the parameter
	// step holds one recycled vector per gradient of the largest group so
	// far, which grows from 1 to 4 when the aggregator's warm-up round
	// ends at version 8.
	const warm, measured = 16, 32
	for i := 0; i < warm+measured; i++ {
		var keys []string
		for len(keys) < 2 {
			note, ok, err := a.iterate()
			if err != nil || !ok {
				t.Fatalf("rollout: ok=%v err=%v", ok, err)
			}
			keys = append(keys, note.key)
		}
		var note gradNote
		sb := allocatedDuring(func() {
			var ok bool
			if note, ok, err = l.step(keys); err != nil || !ok {
				t.Fatalf("learner step: ok=%v err=%v", ok, err)
			}
		})
		ab := allocatedDuring(func() {
			if err := r.absorb(note); err != nil {
				t.Fatal(err)
			}
		})
		if i == warm-1 {
			warmVersion = int(r.version.Load())
		}
		if i >= warm {
			stepBytes += sb
			absorbBytes += ab
		}
	}
	if got := int(r.version.Load()) - warmVersion; got < measured/4 {
		t.Fatalf("%d updates from %d measured gradients: the parameter step hardly ran", got, measured)
	}
	vec := uint64(8 * len(r.weights))
	for _, c := range []struct {
		what  string
		bytes uint64
	}{{"learner.step", stepBytes / measured}, {"absorb", absorbBytes / measured}} {
		if c.bytes > vec/32 {
			t.Errorf("a steady-state %s allocates %d bytes, want under %d (a parameter vector is %d)", c.what, c.bytes, vec/32, vec)
		} else {
			t.Logf("a steady-state %s allocates %d bytes; a parameter vector is %d", c.what, c.bytes, vec)
		}
	}
}

// allocatedDuring is the process's heap allocation, in bytes, over f.
func allocatedDuring(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}
