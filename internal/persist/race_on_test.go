//go:build race

package persist

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = true
