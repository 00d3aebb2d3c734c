//go:build race

package cache

// raceEnabled: the race detector is on, and sync.Pool drops a share of
// what is put into it on purpose.
const raceEnabled = true
