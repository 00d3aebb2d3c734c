//go:build !race

package cache

// raceEnabled: the race detector is off.
const raceEnabled = false
