package core

import (
	"os/exec"
	"strings"
	"testing"
)

// TestSimulatorDoesNotLinkTheCacheTier: the DES charges the cache hops
// as latency and performs none of them, so nothing it imports, however
// far down, may be the cache package (TCP client, server, replication).
func TestSimulatorDoesNotLinkTheCacheTier(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool on PATH to list dependencies with")
	}
	out, err := exec.Command(goTool, "list", "-deps", ".").Output()
	if err != nil {
		t.Fatalf("go list -deps: %v", err)
	}
	for _, dep := range strings.Fields(string(out)) {
		if dep == "stellaris/internal/cache" || strings.HasPrefix(dep, "stellaris/internal/cache/") {
			t.Errorf("internal/core depends on %s", dep)
		}
	}
}
