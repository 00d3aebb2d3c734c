package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// wallclockFuncs are the package time functions that read or schedule
// against the machine's wall clock. Inside DES-clocked code every one
// of them silently decouples the measurement from virtual time: the
// run still works, but latencies, staleness windows and costs stop
// being reproducible — the exact failure mode PR 2 fixed in the
// version-stamping path.
var wallclockFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
}

const simclockPath = "stellaris/internal/simclock"

// desClocked reports whether p runs on the virtual clock: the simclock
// engine itself plus every package that imports it (internal/core,
// internal/serverless, and any future consumer — the import *is* the
// declaration that the package's notion of time is the DES). The
// lineage store is clock-agnostic by contract (its timestamps come from
// an injected func() float64 that may be a DES clock), so it is held to
// the same rule even though it cannot import simclock itself.
func desClocked(p *Package) bool {
	if strings.HasSuffix(p.Path, "internal/simclock") ||
		strings.HasSuffix(p.Path, "internal/obs/lineage") {
		return true
	}
	return importsPath(p, simclockPath)
}

func wallclockCheck() Check {
	return Check{
		Name: "wallclock",
		Doc:  "forbid time.Now/Since/Sleep/timers in DES-clocked packages (use the injected clock)",
		Run:  runWallclock,
	}
}

func runWallclock(p *Package) []Finding {
	if !desClocked(p) {
		return nil
	}
	var out []Finding
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			pn, ok := p.Info.Uses[id].(*types.PkgName)
			if !ok || pn.Imported().Path() != "time" {
				return true
			}
			if wallclockFuncs[sel.Sel.Name] {
				out = append(out, Finding{
					Pos:   p.position(sel.Pos()),
					Check: "wallclock",
					Message: "time." + sel.Sel.Name + " reads the wall clock; DES-clocked packages must take " +
						"time from the injected simclock.Clock (or the registry clock)",
				})
			}
			return true
		})
	}
	return out
}
