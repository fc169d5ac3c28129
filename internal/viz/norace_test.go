//go:build !race

package viz

const raceEnabled = false
