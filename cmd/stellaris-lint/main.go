// Command stellaris-lint runs the repo's invariant analyzer
// (internal/lint) over the module and exits non-zero on any finding.
// It is the `make lint` CI gate, sitting between go vet and the race
// detector: vet catches what the Go team considers universally wrong,
// stellaris-lint catches what is wrong *for this codebase* — wall
// clocks in DES code, mixed atomic/plain field access, blocking under
// a mutex, global randomness, silently dropped cache errors, and
// exported names that only tests or the benchmark use.
//
// Usage:
//
//	stellaris-lint ./...               # whole module (the CI invocation)
//	stellaris-lint internal/live       # one package directory
//	stellaris-lint -format json ./...  # machine-readable findings
//	stellaris-lint -checks             # list checks and exit
//
// Findings print one per line as file:line:col: [check] message, or as
// a JSON array with -format json (the GitHub Actions problem matcher
// consumes the text form; tooling consumes the JSON form). Intentional
// sites are suppressed in source with `//lint:allow <check> <reason>`
// (same line or the line above); a directive that suppresses nothing
// is itself a finding.
//
// The interprocedural checks (lockhold, lockorder, goroleak) see call
// chains across every package in the same invocation, so the ./...
// form is the one that gates CI; reach runs only in that form. A
// timing line goes to stderr; the run fails if analysis exceeds -budget
// (default 120s) so the lint gate cannot quietly grow into the slowest
// CI step.
//
// Exit status: 0 clean, 1 findings, 2 the analyzer itself failed
// (unparseable tree, type errors, blown budget).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"time"

	"stellaris/internal/lint"
)

func main() {
	listChecks := flag.Bool("checks", false, "list registered checks and exit")
	format := flag.String("format", "text", `output format: "text" (file:line:col: [check] message) or "json"`)
	budget := flag.Duration("budget", 120*time.Second, "fail (exit 2) if analysis takes longer than this")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: stellaris-lint [-checks] [-format text|json] [./... | pkg-dir ...]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *format != "text" && *format != "json" {
		fmt.Fprintf(os.Stderr, "stellaris-lint: unknown -format %q (want text or json)\n", *format)
		os.Exit(2)
	}

	if *listChecks {
		for _, c := range lint.Checks() {
			fmt.Printf("%-10s %s\n", c.Name, c.Doc)
		}
		return
	}

	start := time.Now()
	cwd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	loader, err := lint.NewLoader(cwd)
	if err != nil {
		fatal(err)
	}

	args := flag.Args()
	var pkgs []*lint.Package
	checks := lint.Checks()
	if len(args) == 0 || (len(args) == 1 && args[0] == "./...") {
		pkgs, err = loader.LoadAll()
		if err != nil {
			fatal(err)
		}
	} else {
		// reach needs every caller in the module; a partial universe
		// would report the names its other packages use.
		checks = slices.DeleteFunc(checks, func(c lint.Check) bool { return c.Name == "reach" })
		for _, arg := range args {
			p, err := loader.LoadDir(arg)
			if err != nil {
				fatal(err)
			}
			pkgs = append(pkgs, p)
		}
	}

	// Type errors don't stop the checks, but a tree that does not
	// type-check cannot be trusted to pass the gate either.
	typeErrs := loader.Errors()
	for _, e := range typeErrs {
		fmt.Fprintln(os.Stderr, "stellaris-lint: type error:", e)
	}

	findings := lint.Analyze(pkgs, checks)
	if *format == "json" {
		printJSON(findings)
	} else {
		for _, f := range findings {
			fmt.Println(f)
		}
	}

	// Timing line + runtime budget: the linter loads and type-checks the
	// module (plus stdlib deps) from source, so keep an eye on it — a
	// blown budget fails the run like any other analyzer breakage.
	elapsed := time.Since(start)
	fmt.Fprintf(os.Stderr, "stellaris-lint: %d packages, %d findings in %.1fs\n",
		len(pkgs), len(findings), elapsed.Seconds())
	if elapsed > *budget {
		fmt.Fprintf(os.Stderr, "stellaris-lint: analysis took %.1fs, over the %s budget\n",
			elapsed.Seconds(), *budget)
		os.Exit(2)
	}

	switch {
	case len(typeErrs) > 0:
		os.Exit(2)
	case len(findings) > 0:
		os.Exit(1)
	}
}

// jsonFinding is the -format json shape; field names are stable API
// for tooling.
type jsonFinding struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Column  int    `json:"column"`
	Check   string `json:"check"`
	Message string `json:"message"`
}

func printJSON(findings []lint.Finding) {
	out := make([]jsonFinding, 0, len(findings))
	for _, f := range findings {
		out = append(out, jsonFinding{
			File:    f.Pos.Filename,
			Line:    f.Pos.Line,
			Column:  f.Pos.Column,
			Check:   f.Check,
			Message: f.Message,
		})
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "stellaris-lint:", err)
	os.Exit(2)
}
