// Package leaktest is the runtime counterpart of stellaris-lint's
// goroleak check: a goroutine-leak sanitizer for tests. The static
// check catches loops that are structurally unable to terminate;
// this package catches the dynamically wedged ones — a replication
// loop that never saw its stop channel, a watch goroutine outliving
// Close() — by snapshotting goroutine stacks after a test finishes
// and failing if any non-benign goroutine is still alive.
//
// Usage, first line of a test:
//
//	func TestServerClose(t *testing.T) {
//		leaktest.Check(t)
//		...
//	}
//
// Check registers a t.Cleanup hook, so it runs after the test body
// AND after every cleanup the test itself registers later (cleanups
// run last-in-first-out) — exactly when all Close() paths have run.
// Goroutines are given a grace window to wind down before the test
// fails, so a just-closed server's accept loop draining out is not a
// false positive.
package leaktest

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// maxWait is the wind-down grace window: how long a goroutine that is
// already on its way out (server accept loops, connection pumps after
// Close) may take to disappear before it counts as leaked.
const maxWait = 2 * time.Second

// Check arranges for the calling test to fail if goroutines are still
// running when the test (including its later-registered cleanups) is
// done.
func Check(t testing.TB) { //lint:allow reach inspection accessor: the cache, live and obs tests call it
	t.Helper()
	t.Cleanup(func() {
		if err := verify(maxWait); err != nil {
			t.Errorf("leaktest: %v", err)
		}
	})
}

// verify polls until no interesting goroutines remain or wait
// expires, then reports the survivors. Split from Check so the
// package's self-test can assert the failure path without failing
// itself.
func verify(wait time.Duration) error {
	deadline := time.Now().Add(wait)
	var leaked []string
	for {
		leaked = interestingGoroutines()
		if len(leaked) == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	return fmt.Errorf("%d goroutine(s) leaked:\n%s", len(leaked), strings.Join(leaked, "\n\n"))
}

// benignMarkers identify goroutines that are part of the runtime, the
// testing harness, or bounded stdlib pools rather than code under
// test. net/http's idle-connection read/write loops are included:
// test HTTP clients park keep-alive connections there for up to the
// transport's idle timeout, which is not a leak in the server under
// test.
var benignMarkers = []string{
	"testing.Main(",
	"testing.tRunner(",
	"testing.(*T).Run(",
	"testing.(*M).",
	"testing.runTests",
	"testing.runFuzzing",
	"runtime.goexit",
	"runtime.gc",
	"runtime.MHeap_Scavenger",
	"runtime.bgsweep",
	"runtime.bgscavenge",
	"runtime.forcegchelper",
	"runtime.ReadTrace",
	"runtime/trace.Start",
	"signal.signal_recv",
	"os/signal.loop",
	"os/signal.signal_recv",
	"net/http.(*persistConn).readLoop",
	"net/http.(*persistConn).writeLoop",
	"net/http.(*Transport).dialConn",
	"internal/leaktest.interestingGoroutines",
}

// interestingGoroutines returns the stack of every live goroutine
// that is not the current one and matches no benign marker.
func interestingGoroutines() []string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	var out []string
	for i, g := range strings.Split(string(buf), "\n\n") {
		if i == 0 {
			continue // the current goroutine (runtime.Stack lists it first)
		}
		g = strings.TrimSpace(g)
		if g == "" || isBenign(g) {
			continue
		}
		out = append(out, g)
	}
	return out
}

func isBenign(stack string) bool {
	for _, marker := range benignMarkers {
		if strings.Contains(stack, marker) {
			return true
		}
	}
	return false
}
