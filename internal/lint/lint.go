// Package lint implements stellaris-lint, the repo's invariant
// analyzer. It enforces correctness properties that ordinary tests are
// bad at catching because violations are only *sometimes* wrong at
// runtime: wall-clock reads inside DES-clocked code, mixed
// atomic/plain access to a field, blocking operations under a mutex,
// global (unseeded) randomness, and silently dropped cache errors —
// plus one about size: exported names that no product code reaches.
//
// The analyzer is built only on the standard library's go/ast,
// go/parser, go/token and go/types — no golang.org/x/tools — so it
// carries zero dependencies and runs anywhere the repo builds. See
// DESIGN.md "Invariants" for the rationale behind each check and the
// past bug that motivated it.
//
// Findings print as
//
//	file:line:col: [check] message
//
// and any finding makes the driver (cmd/stellaris-lint) exit non-zero,
// which is how `make lint` gates CI.
//
// # Suppression
//
// A true-but-intentional site is silenced with a directive comment on
// the same line or the line directly above:
//
//	//lint:allow <check> <reason>
//
// The reason is mandatory; a directive without one (or naming an
// unknown check) is itself reported. Directives never suppress other
// checks than the one they name.
package lint

import (
	"fmt"
	"go/token"
	"sort"
)

// A Finding is one rule violation at a source position.
type Finding struct {
	Pos     token.Position
	Check   string
	Message string
}

// String renders the canonical file:line:col: [check] message form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Check, f.Message)
}

// A Check is one analysis pass over a type-checked package.
type Check struct {
	// Name is the identifier used in output and //lint:allow directives.
	Name string
	// Doc is a one-line description for -checks output.
	Doc string
	// Run reports the check's findings for one package.
	Run func(p *Package) []Finding
	// runModule, when set, makes this an interprocedural check: it runs
	// against the module-wide call graph built over every analyzed
	// package and reports the findings attributable to p. Exactly one of
	// Run and runModule is set.
	runModule func(g *graph, p *Package) []Finding
}

// Checks returns every registered check, in reporting order.
func Checks() []Check {
	return []Check{
		wallclockCheck(),
		atomicsCheck(),
		lockholdCheck(),
		lockorderCheck(),
		goroleakCheck(),
		globalrandCheck(),
		errdropCheck(),
		reachCheck(),
	}
}

// checkNames is the set of valid names for directive validation.
func checkNames() map[string]bool {
	names := make(map[string]bool)
	for _, c := range Checks() {
		names[c.Name] = true
	}
	return names
}

// Analyze runs checks over pkgs, applies //lint:allow suppression, and
// returns the surviving findings sorted by position. Interprocedural
// checks see a call graph spanning exactly pkgs: the ./... invocation
// (CI) covers every cross-package chain; a single-directory run only
// sees chains inside that package.
//
// A //lint:allow directive that names a check which ran but suppressed
// nothing is itself reported (check "allow"): dead annotations
// otherwise accumulate and hide real regressions at the same site.
func Analyze(pkgs []*Package, checks []Check) []Finding {
	var out []Finding
	valid := checkNames()
	var g *graph
	for _, c := range checks {
		if c.runModule != nil {
			g = buildGraph(pkgs)
			break
		}
	}
	ran := make(map[string]bool, len(checks))
	for _, c := range checks {
		ran[c.Name] = true
	}
	for _, p := range pkgs {
		allows, bad := collectAllows(p, valid)
		out = append(out, bad...)
		for _, c := range checks {
			var fs []Finding
			if c.runModule != nil {
				fs = c.runModule(g, p)
			} else {
				fs = c.Run(p)
			}
			for _, f := range fs {
				if allows.suppressed(f) {
					continue
				}
				out = append(out, f)
			}
		}
		out = append(out, allows.stale(ran)...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Check < b.Check
	})
	return out
}
