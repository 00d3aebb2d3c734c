package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// childTimeout bounds one child process; the driver contract allows a
// whole invocation 180 s.
const childTimeout = 170 * time.Second

// runRecord is one run of one workload as result.json stores it.
type runRecord struct {
	Seed uint64 `json:"seed"`
	// Metrics holds the end-to-end metrics, each folded from the run's
	// repeats (fastest repeats of a timing, median of a count); Samples
	// the number of samples behind each (repeats, or cycle latencies
	// over all repeats); RepeatWallS every repeat's timed region.
	Metrics     map[string]float64 `json:"metrics"`
	Samples     map[string]int     `json:"samples"`
	RepeatWallS []float64          `json:"repeat_wall_s"`
	// CycleHiPct/CycleHiMs: the highest cycle-latency percentile with
	// at least ten samples beyond it (cache_mix only).
	CycleHiPct float64 `json:"cycle_hi_pct,omitempty"`
	CycleHiMs  float64 `json:"cycle_hi_ms,omitempty"`
	Attempted  int     `json:"attempted"`
	Failed     int     `json:"failed"`
	Correct    bool    `json:"correct"`
	Checks     []check `json:"checks"`
	Hash       string  `json:"hash,omitempty"`
	// Layer holds the per-layer metrics: proc.* always, everything in a
	// traced run.
	Layer map[string]float64 `json:"layer"`
	// Budget is the traced run's time budget, stage by stage.
	Budget []budgetLine `json:"budget,omitempty"`
}

type workloadRecord struct {
	Why    string         `json:"why"`
	Params map[string]any `json:"params"`
	Runs   []runRecord    `json:"runs"`
}

// resultFile is what -out/result.json holds and compare reads.
type resultFile struct {
	Provenance map[string]any             `json:"provenance"`
	Workloads  map[string]*workloadRecord `json:"workloads"`
}

type driver struct {
	workloads []workload
	seed      uint64
	runs      int
	trace     bool
	out       string
	// seconds is the length of one run; a run makes as many repeats of
	// its workload as fit. repeats, when set, asks for that many instead
	// and scale shrinks the work counts (tests).
	seconds float64
	repeats int
	scale   float64
	stdout  io.Writer
	// child makes one run; tests substitute an in-process call.
	child func(runSpec) (*runResult, error)
}

func (d *driver) main() int {
	if d.child == nil {
		d.child = execChild
	}
	file := resultFile{Provenance: provenance(d), Workloads: map[string]*workloadRecord{}}
	fmt.Fprintf(d.stdout, "benchmark: commit %v, %v, nproc %v, seed %d, %d run(s) of %.3g s per workload\n",
		file.Provenance["commit"], file.Provenance["go_version"], file.Provenance["nproc"], d.seed, d.runs, d.seconds)
	ok := true
	var last runRecord
	for _, w := range d.workloads {
		wr := &workloadRecord{Why: w.Why}
		file.Workloads[w.Name] = wr
		for i := 0; i < d.runs; i++ {
			rec, params, err := d.oneRun(w, d.seed+uint64(i))
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.Name, err)
				return 1
			}
			wr.Params = params
			wr.Runs = append(wr.Runs, rec)
			d.print(w, rec, params)
			ok = ok && rec.Correct
			last = rec
		}
	}
	if err := writeResult(filepath.Join(d.out, "result.json"), &file); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if len(d.workloads) == 1 {
		// The driver contract's result line: the last line of output.
		fmt.Fprintln(d.stdout, contractLine(last, d.trace))
	}
	if !ok {
		return 1
	}
	return 0
}

// oneRun makes one run of a workload: the untraced child, whose
// repeats fold into the end-to-end metrics; in trace mode also the
// instrumented rerun, half as long, and the stage ladder.
func (d *driver) oneRun(w workload, seed uint64) (runRecord, map[string]any, error) {
	spec := runSpec{Workload: w.Name, Seed: seed, Scale: d.scale, Mode: modeRun, Seconds: d.seconds, Repeats: d.repeats}
	run, err := d.child(spec)
	if err != nil {
		return runRecord{}, nil, err
	}
	rec := runRecord{
		Seed: seed, Attempted: run.Attempted, Failed: run.Failed,
		Checks: run.Checks, Hash: run.Hash, Layer: run.Layer,
		CycleHiPct: run.CycleHiPct, CycleHiMs: run.CycleHiMs,
		RepeatWallS: run.RepeatWallS,
		Metrics: map[string]float64{
			"setup_s":       run.SetupS,
			"updates_per_s": run.UpdatesPerS,
			"cycles_per_s":  run.CyclesPerS,
			"cycle_p50_ms":  run.CycleP50Ms,
			"wall_s":        run.WallS,
			"alloc_mb":      run.AllocMB,
		},
		Samples: map[string]int{
			"setup_s": run.Repeats, "updates_per_s": run.Repeats, "cycles_per_s": run.Repeats,
			"cycle_p50_ms": run.CycleSamples, "wall_s": run.Repeats, "alloc_mb": run.Repeats,
		},
	}

	if d.trace {
		spec.Mode, spec.Seconds = modeTraced, d.seconds/2
		traced, err := d.child(spec)
		if err != nil {
			return runRecord{}, nil, err
		}
		spec.Mode, spec.Out = modeLadder, d.out
		ladder, err := d.child(spec)
		if err != nil {
			return runRecord{}, nil, err
		}
		rec.Checks = append(rec.Checks, traced.Checks...)
		rec.Checks = append(rec.Checks, ladder.Checks...)
		for _, l := range []map[string]float64{ladder.Layer, traced.Layer} {
			for k, v := range l {
				if !strings.HasPrefix(k, "proc.") { // proc.* stay the untraced run's
					rec.Layer[k] = v
				}
			}
		}
		rec.Layer["trace.overhead_frac"] = traced.WallS/run.WallS - 1
		if run.Hash != "" {
			// Same seed, same outputs: the run is deterministic and
			// instrumentation does not perturb the computation.
			rec.Checks = append(rec.Checks, check{
				Name: "traced_outputs_identical", OK: traced.Hash == run.Hash,
				Detail: fmt.Sprintf("untraced %.12s, instrumented %.12s", run.Hash, traced.Hash),
			})
		}
		// Measured mean time of one update, on every thread that runs
		// stages.
		threads := 1.0
		if !w.Lockstep && w.Shards > 0 {
			threads = float64(w.Procs)
		}
		measuredUs := threads * run.MeanUpdateUs
		if w.Name == "des_sweep" {
			measuredUs = rec.Layer["des.first_config_ms_per_update"] * 1e3
		}
		rec.Budget = budgetLines(w, rec.Layer, ladder.StageMeanUs)
		rec.Layer["budget.coverage"], rec.Layer["budget.compute_share"], rec.Layer["budget.cache_share"] = budget(rec.Budget, measuredUs)
	}
	rec.Correct = true
	for _, c := range rec.Checks {
		rec.Correct = rec.Correct && c.OK
	}
	return rec, run.Params, nil
}

// print writes one run's human-readable report.
func (d *driver) print(w workload, rec runRecord, params map[string]any) {
	p, _ := json.Marshal(params) // a map of plain values always encodes
	fmt.Fprintf(d.stdout, "\n== %s  seed %d  %s\n", w.Name, rec.Seed, p)
	for _, c := range rec.Checks {
		verdict := "ok"
		if !c.OK {
			verdict = "FAILED"
		}
		fmt.Fprintf(d.stdout, "  check %-26s %-6s %s\n", c.Name, verdict, c.Detail)
	}
	if rec.Hash != "" {
		fmt.Fprintf(d.stdout, "  output hash %s\n", rec.Hash)
	}
	fmt.Fprintf(d.stdout, "  operations attempted %d, failed %d\n", rec.Attempted, rec.Failed)
	fmt.Fprintln(d.stdout, "  end-to-end (untraced; a timing is the mean of the fastest eighth of n repeats, a count the median):")
	for _, m := range endToEnd {
		fmt.Fprintf(d.stdout, "    %-16s %14.4f %-5s n=%d\n", m.Name, rec.Metrics[m.Name], m.Unit, rec.Samples[m.Name])
	}
	if rec.CycleHiPct > 0 {
		fmt.Fprintf(d.stdout, "    %-16s %14.4f %-5s (p%g, the highest percentile with 10 samples beyond it)\n", "cycle_hi_ms", rec.CycleHiMs, "ms", rec.CycleHiPct)
	}
	if !d.trace {
		fmt.Fprintln(d.stdout, "  process (untraced, not gated):")
		for _, m := range perLayer {
			if strings.HasPrefix(m.Name, "proc.") {
				fmt.Fprintf(d.stdout, "    %-30s %14.4f %s\n", m.Name, rec.Layer[m.Name], m.Unit)
			}
		}
		return
	}
	fmt.Fprintln(d.stdout, "  per layer (L = stage ladder, I = instrumented rerun; 0 = does not exist on this workload):")
	for _, m := range perLayer {
		fmt.Fprintf(d.stdout, "    %-30s %14.4f %s\n", m.Name, rec.Layer[m.Name], m.Unit)
	}
	fmt.Fprintln(d.stdout, "  time budget of one update (calls × mean self time on the ladder):")
	var total float64
	for _, l := range rec.Budget {
		total += l.Calls * l.Us
	}
	for _, l := range rec.Budget {
		fmt.Fprintf(d.stdout, "    %-26s %-8s %9.2f × %10.2f us = %11.1f us  %5.1f %%\n",
			l.Stage, l.Group, l.Calls, l.Us, l.Calls*l.Us, 100*l.Calls*l.Us/total)
	}
	fmt.Fprintf(d.stdout, "    sum %.1f us = %.2f of the measured time per update; spans in %s\n",
		total, rec.Layer["budget.coverage"], filepath.Join(d.out, w.Name+".trace.json"))
}

// contractLine renders a run as the driver contract's one JSON object:
// every end-to-end metric untraced, every per-layer metric traced.
func contractLine(rec runRecord, trace bool) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	if trace {
		for _, m := range perLayer {
			metrics[m.Name] = value{rec.Layer[m.Name], m.Unit}
		}
	} else {
		for _, m := range endToEnd {
			metrics[m.Name] = value{rec.Metrics[m.Name], m.Unit}
		}
	}
	b, _ := json.Marshal(map[string]any{ // plain values always encode
		"correct": rec.Correct, "attempted": rec.Attempted, "failed": rec.Failed, "metrics": metrics,
	})
	return string(b)
}

// provenance stamps the result with what it was measured on.
func provenance(d *driver) map[string]any {
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"commit": commit, "go_version": runtime.Version(), "nproc": runtime.NumCPU(),
		"seed": d.seed, "runs": d.runs, "seconds": d.seconds, "trace": d.trace,
		"time": time.Now().UTC().Format(time.RFC3339),
	}
}

func writeResult(path string, file *resultFile) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// execChild re-executes this binary for one run: a fresh heap, fresh
// ports, and none of the Go runtime's tuning variables inherited.
func execChild(spec runSpec) (*runResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	arg, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, "child", string(arg))
	for _, kv := range os.Environ() {
		name := strings.SplitN(kv, "=", 2)[0]
		switch name {
		case "GOGC", "GOMEMLIMIT", "GODEBUG", "GOMAXPROCS":
			// No environment variable changes what is measured.
		default:
			cmd.Env = append(cmd.Env, kv)
		}
	}
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s run of %s: %w", spec.Mode, spec.Workload, err)
	}
	var res runResult
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		return nil, fmt.Errorf("%s run of %s: reading result: %w", spec.Mode, spec.Workload, err)
	}
	return &res, nil
}
