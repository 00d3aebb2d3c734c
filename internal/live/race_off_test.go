//go:build !race

package live

// raceEnabled: the race detector is off.
const raceEnabled = false
