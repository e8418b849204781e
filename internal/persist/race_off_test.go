//go:build !race

package persist

// raceEnabled reports whether the race detector is compiled in; the
// allocation-budget test skips under -race because the detector's
// shadow-memory bookkeeping perturbs testing.AllocsPerRun.
const raceEnabled = false
