package lint

import (
	"fmt"
	"sort"
	"strings"
)

// The lockhold check forbids operations that can block indefinitely
// while a sync.Mutex is held — channel sends/receives, default-less
// selects, range over a channel, and the blocking calls of blockset.go
// (cache round trips and dials, time.Sleep, WaitGroup/Cond waits,
// net.Conn I/O) — whether the operation sits in the critical section
// itself or several frames down a call made from it. A goroutine parked
// while holding a mutex is how live.Train once hung: its workers died
// with state still locked and the pipeline waited forever.
//
// It reads the call-graph summary (callgraph.go), whose held sets are
// lexical: critical sections are short, straight-line and never do
// I/O, which is exactly the invariant the repo's code maintains. Two
// kinds of finding:
//
//   - a blocking operation reached with a lock held, named with the
//     lock operand as written ("b.mu");
//   - a call made with a lock held whose callee may block, with the
//     chain down to the operation. A deferred call runs after the
//     region, and a call that blocks itself is already the first kind.
//
// The MemCache exemption comes from the shared blockset, and a select
// with a default clause polls rather than parks (the replication taps
// poll under the store lock by design).
func lockholdCheck() Check {
	return Check{
		Name: "lockhold",
		Doc:  "no blocking operations, direct or down a call chain, while a sync.Mutex is held",
		runModule: func(g *graph, p *Package) []Finding {
			return g.moduleFindings("lockhold", lockholdFindings, p)
		},
	}
}

func lockholdFindings(g *graph) []taggedFinding {
	var out []taggedFinding
	report := func(n *funcNode, f Finding) {
		f.Check = "lockhold"
		out = append(out, taggedFinding{pkg: n.p, f: f})
	}
	for _, n := range g.nodes {
		for _, b := range n.blocks {
			if len(b.held) == 0 {
				continue
			}
			report(n, Finding{
				Pos: n.p.position(b.pos),
				Message: fmt.Sprintf("%s while holding %s: blocking inside a critical section can wedge every other waiter",
					b.desc, heldNames(b.held, func(h heldLock) string { return h.expr })),
			})
		}
		for _, cs := range n.calls {
			if len(cs.held) == 0 || cs.deferred || cs.direct != "" || cs.callee == nil || cs.callee.mayBlock == nil {
				continue
			}
			report(n, Finding{
				Pos: n.p.position(cs.pos),
				Message: fmt.Sprintf("call to %s while holding %s transitively blocks: %s",
					cs.callee.name, heldNames(cs.held, func(h heldLock) string { return h.disp }),
					renderBlockChain(cs.callee, n.p.Fset)),
			})
		}
	}
	return out
}

// heldNames renders a held set, sorted, one name per lock.
func heldNames(held []heldLock, name func(heldLock) string) string {
	names := make([]string, len(held))
	for i, h := range held {
		names[i] = name(h)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}
