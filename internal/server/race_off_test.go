//go:build !race

package server

// raceEnabled reports whether the race detector is compiled in; the
// allocation tests skip under -race because the detector's bookkeeping
// perturbs allocation counts.
const raceEnabled = false
