//go:build race

package viz

// raceEnabled reports a -race build: the race detector makes sync.Pool
// drop a random share of its Puts, so the allocation count of a pooled
// path is not a constant under it.
const raceEnabled = true
