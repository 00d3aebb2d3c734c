//go:build race

package tensor

// raceEnabled: the race detector is on, and its instrumentation
// dominates the time of a short kernel call.
const raceEnabled = true
