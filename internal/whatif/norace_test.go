//go:build !race

package whatif_test

const raceEnabled = false
