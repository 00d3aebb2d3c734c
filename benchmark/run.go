package main

import (
	"fmt"
	"time"
)

// repeatSeed derives the seed of a run's i-th repeat, so that a run's
// inputs are a function of its seed alone and no two runs share one.
func repeatSeed(seed uint64, i int) uint64 { return seed*100 + uint64(i) }

// runWorkload makes the run spec names, in this process. start is when
// the first set-up began: process start in a child.
//
// An untraced or instrumented run repeats the workload, each repeat
// with its own set-up, tier and derived seed, until spec.Seconds have
// passed since start (and minRepeats are made), and folds the repeats
// into one result. A shared box runs in a fast state and, while a
// neighbour is busy on the same physical core, in a slow one a fifth to
// a half slower, and stays in either for seconds to tens of seconds;
// short repeats tell the two apart and the fold keeps the fastest. A
// process is slow for its first second, which rules out a fresh process
// per repeat.
func runWorkload(spec runSpec, start time.Time) (*runResult, error) {
	w, err := findWorkload(spec.Workload)
	if err != nil {
		return nil, err
	}
	one := func(seed uint64, start time.Time) (*runResult, error) {
		res := &runResult{
			Workload: w.Name, Mode: spec.Mode, Seed: seed,
			Layer: map[string]float64{}, start: start,
		}
		s := spec
		s.Seed = seed
		var err error
		switch {
		case spec.Mode == modeLadder:
			err = runLadder(w, s, res)
		case w.Name == "cache_mix":
			err = runCacheMix(w, s, res)
		case w.Name == "des_sweep":
			err = runDES(w, s, res)
		default:
			err = runLive(w, s, res)
		}
		return res, err
	}
	if spec.Mode == modeLadder {
		return one(repeatSeed(spec.Seed, 0), start)
	}
	var repeats []*runResult
	begin, last := start, time.Duration(0)
	for i := 0; ; i++ {
		if spec.Repeats > 0 {
			if i == spec.Repeats {
				break
			}
		} else if i >= minRepeats && (time.Since(begin)+last).Seconds() > spec.Seconds {
			// A repeat as long as the last would overrun the run's length.
			break
		}
		res, err := one(repeatSeed(spec.Seed, i), start)
		if err != nil {
			return nil, fmt.Errorf("repeat %d: %w", i, err)
		}
		repeats = append(repeats, res)
		last = time.Since(start)
		start = time.Now()
	}
	return fold(repeats), nil
}

// fold reduces a run's repeats to one result: of every timing the mean
// over the fastest eighth of the repeats, at least two (the shortest
// times, the highest rates). A repeat's time has a floor, the box
// undisturbed and the scheduling lucky, and a long tail above it; the
// fastest repeats sit at the floor whenever an eighth of the run did,
// where the median needs half, and their mean does not hang on the one
// luckiest repeat as the minimum does. Counts (allocation, per-layer)
// fold to their median, the operation counts to their sum; checks, hash
// and parameters are the first repeat's plus any later repeat's failed
// check.
func fold(repeats []*runResult) *runResult {
	out := *repeats[0]
	out.Layer = map[string]float64{}
	out.Repeats = len(repeats)
	out.Attempted, out.Failed, out.CycleSamples = 0, 0, 0
	over := func(get func(*runResult) float64) []float64 {
		vs := make([]float64, len(repeats))
		for i, r := range repeats {
			vs[i] = get(r)
		}
		return vs
	}
	out.RepeatWallS = over(func(r *runResult) float64 { return r.WallS })
	out.SetupS = fastest(over(func(r *runResult) float64 { return r.SetupS }), "lower")
	out.WallS = fastest(out.RepeatWallS, "lower")
	out.UpdatesPerS = fastest(over(func(r *runResult) float64 { return r.UpdatesPerS }), "higher")
	out.CyclesPerS = fastest(over(func(r *runResult) float64 { return r.CyclesPerS }), "higher")
	out.CycleP50Ms = fastest(over(func(r *runResult) float64 { return r.CycleP50Ms }), "lower")
	out.CycleHiMs = fastest(over(func(r *runResult) float64 { return r.CycleHiMs }), "lower")
	out.AllocMB = median(over(func(r *runResult) float64 { return r.AllocMB }))
	for _, r := range repeats {
		if r.UpdatesPerS > 0 { // 0 after a failed Train, which the checks report
			out.MeanUpdateUs += 1e6 / r.UpdatesPerS / float64(len(repeats))
		}
	}
	for name := range repeats[0].Layer {
		out.Layer[name] = median(over(func(r *runResult) float64 { return r.Layer[name] }))
	}
	for i, r := range repeats {
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		out.CycleSamples += r.CycleSamples
		if i == 0 {
			continue
		}
		for _, c := range r.Checks {
			if !c.OK {
				c.Name = fmt.Sprintf("repeat %d: %s", i, c.Name)
				out.Checks = append(out.Checks, c)
			}
		}
	}
	return &out
}
