//go:build !race

package gf2

// raceEnabled reports whether the race detector is active.
const raceEnabled = false
