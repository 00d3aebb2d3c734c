//go:build !race

package tensor

// raceEnabled: the race detector is off.
const raceEnabled = false
