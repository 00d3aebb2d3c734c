// Package benchmark stands in for the module's benchmark/ tree: what it
// calls is not reached by product code.
package benchmark

import "stellaris/internal/lint/testdata/src/reach"

// Run calls what only the benchmark uses.
func Run() {
	reach.OnlyBench()
	_ = reach.Start(reach.RunOptions{Depth: 3})
}
