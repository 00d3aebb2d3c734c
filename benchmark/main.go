// Command benchmark is the repo's one performance benchmark: five named
// workloads, six end-to-end metrics, a per-layer stage ladder and a
// traced run. See README.md in this directory for the tables.
//
//	go run ./benchmark                      # all workloads, untraced
//	go run ./benchmark -trace               # plus per-layer metrics and span files
//	go run ./benchmark -workload cache_mix -seed 7 -runs 5
//	go run ./benchmark compare a.json b.json
//
// Every workload run is a fresh child process of this binary.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
)

// Run modes of a child process.
const (
	modeRun    = "run"    // the untraced, timed run behind the end-to-end metrics
	modeTraced = "traced" // the instrumented rerun behind the (I) metrics
	modeLadder = "ladder" // the span-recorded stage ladder behind the (L) metrics
)

// runSpec tells a child which run to make.
type runSpec struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	// Scale shrinks the work counts; 1 in every measured run.
	Scale float64 `json:"scale"`
	Mode  string  `json:"mode"`
	// Seconds is how long an untraced or instrumented run goes on making
	// repeats of the workload, counted from the start of the process.
	// Repeats, when set, asks for that many instead (tests).
	Seconds float64 `json:"seconds,omitempty"`
	Repeats int     `json:"repeats,omitempty"`
	// Out is where a ladder run writes its span file.
	Out string `json:"out,omitempty"`
}

func main() {
	args := os.Args[1:]
	if len(args) > 0 && args[0] == "child" {
		os.Exit(childMain(args[1:]))
	}
	if len(args) > 0 && args[0] == "compare" {
		os.Exit(compareMain(args[1:], os.Stdout))
	}

	fs := flag.NewFlagSet("benchmark", flag.ExitOnError)
	name := fs.String("workload", "all", "workload to run: all, or one of "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "workload seed; run i of -runs uses seed+i")
	runs := fs.Int("runs", 1, "runs per workload, each a fresh process that repeats the workload for -seconds")
	trace := fs.Bool("trace", false, "also make the instrumented rerun and the stage ladder, print per-layer metrics, write span files")
	out := fs.String("out", "benchmark/out", "directory for result.json and span files")
	seconds := fs.Float64("seconds", refSeconds, "length of one run: it repeats the workload, set-up included, until this long after its start")
	_ = fs.Parse(normalizeArgs(args)) // ExitOnError: Parse does not return on failure
	if fs.NArg() > 0 || *runs < 1 || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "usage: benchmark [-workload name] [-seed n] [-runs n] [-trace] [-out dir] [-seconds s] | benchmark compare a.json b.json")
		os.Exit(2)
	}
	d := driver{
		seed: *seed, runs: *runs, trace: *trace, out: *out,
		seconds: *seconds, scale: 1, stdout: os.Stdout,
	}
	if *name == "all" {
		d.workloads = workloads
	} else {
		w, err := findWorkload(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(2)
		}
		d.workloads = []workload{w}
	}
	os.Exit(d.main())
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	return names
}

// normalizeArgs lets -trace take the driver contract's separate 0/1
// value ("--trace 1") as well as the bare boolean form ("-trace"): the
// flag package would stop parsing at a boolean flag's detached value.
func normalizeArgs(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			out = append(out, "-trace="+args[i+1])
			i++
			continue
		}
		out = append(out, a)
	}
	return out
}

// childMain makes the one run its spec names and prints the result as
// one JSON line on standard output.
func childMain(args []string) int {
	var spec runSpec
	if len(args) != 1 || json.Unmarshal([]byte(args[0]), &spec) != nil {
		fmt.Fprintln(os.Stderr, "benchmark: child takes one JSON run spec")
		return 2
	}
	if w, err := findWorkload(spec.Workload); err == nil {
		runtime.GOMAXPROCS(w.Procs)
	}
	res, err := runWorkload(spec, processStart)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s (%s): %v\n", spec.Workload, spec.Mode, err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	return 0
}
