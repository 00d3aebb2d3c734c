package main

import (
	"runtime"
	"syscall"
	"time"
)

// processStart is taken as early as the Go runtime allows; a child's
// setup_s counts from here to the first timed call.
var processStart = time.Now()

// A check is one output-correctness assertion and what it saw.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// runResult is what one child process reports about one workload run.
type runResult struct {
	Workload string         `json:"workload"`
	Mode     string         `json:"mode"`
	Seed     uint64         `json:"seed"`
	Params   map[string]any `json:"params,omitempty"`

	// Repeats is how many repeats the measurements below are folded
	// from (1 for a single repeat and for a ladder run); RepeatWallS is
	// every repeat's timed region, in order.
	Repeats     int       `json:"repeats"`
	RepeatWallS []float64 `json:"repeat_wall_s,omitempty"`
	// SetupS is the start of a repeat's set-up (process start, for the
	// first) to its timed call.
	SetupS float64 `json:"setup_s"`
	// WallS is the timed region; UpdatesPerS and CyclesPerS the policy
	// updates (or update-equivalents) and the cycles finished inside
	// it, per second.
	WallS       float64 `json:"wall_s"`
	UpdatesPerS float64 `json:"updates_per_s"`
	CyclesPerS  float64 `json:"cycles_per_s"`
	// CycleSamples is how many cycles were timed one by one (the sample
	// count behind CycleP50Ms); CycleHiMs is the highest percentile
	// CycleHiPct with at least ten samples beyond it.
	CycleSamples int     `json:"cycle_samples"`
	CycleP50Ms   float64 `json:"cycle_p50_ms"`
	CycleHiMs    float64 `json:"cycle_hi_ms,omitempty"`
	CycleHiPct   float64 `json:"cycle_hi_pct,omitempty"`
	AllocMB      float64 `json:"alloc_mb"`
	// MeanUpdateUs is the mean over the repeats of the time one update
	// took, in µs: what the time budget is held against, because the
	// ladder's mean self times add up to a mean, not to the fastest
	// repeats.
	MeanUpdateUs float64 `json:"mean_update_us"`

	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Checks    []check `json:"checks"`
	// Hash fingerprints the outputs of the deterministic workloads
	// (lockstep_fat, des_sweep); empty elsewhere.
	Hash string `json:"hash,omitempty"`

	// Layer holds the per-layer metrics this run produced: proc.* from
	// an untraced run, the (I) set from an instrumented run, the (L)
	// set from a ladder run.
	Layer map[string]float64 `json:"layer,omitempty"`
	// StageMeanUs holds, per (L) metric, the mean self time of one call
	// in µs. The metric itself is the median, which is steadier; the time
	// budget uses the means, because only means add up to a total.
	StageMeanUs map[string]float64 `json:"stage_mean_us,omitempty"`

	// start is when this repeat's set-up began.
	start time.Time
}

func (r *runResult) check(name string, ok bool, detail string) {
	r.Checks = append(r.Checks, check{Name: name, OK: ok, Detail: detail})
}

// setupDone ends set-up: it collects what set-up left on the heap, so
// the timed region starts from a settled heap, and records setup_s.
func (r *runResult) setupDone() {
	runtime.GC()
	r.SetupS = time.Since(r.start).Seconds()
}

// timed ends set-up and runs fn as the run's timed region, filling in
// the wall time, the allocation volume and the process counters.
func (r *runResult) timed(fn func()) {
	var before, after runtime.MemStats
	var ruBefore, ruAfter syscall.Rusage
	r.setupDone()
	runtime.ReadMemStats(&before)
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ruBefore) // cannot fail for RUSAGE_SELF
	start := time.Now()
	fn()
	r.WallS = time.Since(start).Seconds()
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ruAfter)
	runtime.ReadMemStats(&after)

	r.AllocMB = float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	cpu := func(ru *syscall.Rusage) float64 {
		return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
	}
	r.Layer["proc.cpu_s"] = cpu(&ruAfter) - cpu(&ruBefore)
	r.Layer["proc.peak_rss_mb"] = float64(ruAfter.Maxrss) / 1024 // Linux reports KiB
	r.Layer["proc.gc_cycles"] = float64(after.NumGC - before.NumGC)
	r.Layer["proc.gc_pause_ms"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
}
