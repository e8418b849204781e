package main

import (
	"math"
	"sort"
	"time"
)

var clockBase = time.Now()

// now returns monotonic nanoseconds since the process started.
func now() int64 { return int64(time.Since(clockBase)) }

// The metric run's window is --seconds long, and every end-to-end metric
// is taken over all of it: operations completed / window, the percentiles
// over every sample. The window is also cut into equal parts, whose rates
// and percentiles are printed beside the metrics so that a reader sees
// how much of a run's noise is inside the run.
const runParts = 5

// tracedParts cuts the traced run's window, which is half of --seconds:
// tracing is on in the odd parts and off in the even ones, five of each.
const tracedParts = 10

// partStats is what one goroutine of the load counted in one part of
// the window.
type partStats struct {
	ops      uint64 // verified operations completed
	updates  uint64 // the INSERTs and DELETEs among them
	readKeys uint64 // keys returned by reads
	lat      Recorder
}

// parts is one goroutine's view of the window.
type parts struct {
	t0, partNs int64
	w          []partStats
}

func newParts(t0 int64, d time.Duration, n int) *parts {
	return &parts{t0: t0, partNs: int64(d) / int64(n), w: make([]partStats, n)}
}

// index returns the part holding time t, or -1 outside the window.
func (ws *parts) index(t int64) int {
	if i := (t - ws.t0) / ws.partNs; t >= ws.t0 && i < int64(len(ws.w)) {
		return int(i)
	}
	return -1
}

// at returns the part holding time t, or nil outside the window.
func (ws *parts) at(t int64) *partStats {
	if i := ws.index(t); i >= 0 {
		return &ws.w[i]
	}
	return nil
}

// merged folds several goroutines' views part by part.
func merged(all ...*parts) *parts {
	out := &parts{t0: all[0].t0, partNs: all[0].partNs, w: make([]partStats, len(all[0].w))}
	for _, ws := range all {
		for i := range ws.w {
			out.w[i].ops += ws.w[i].ops
			out.w[i].updates += ws.w[i].updates
			out.w[i].readKeys += ws.w[i].readKeys
			out.w[i].lat.Merge(&ws.w[i].lat)
		}
	}
	return out
}

// each evaluates f on every part keep accepts (all of them when keep is
// nil) and returns the values that are numbers.
func (ws *parts) each(keep func(i int) bool, f func(s *partStats) float64) []float64 {
	var vals []float64
	for i := range ws.w {
		if keep != nil && !keep(i) {
			continue
		}
		if v := f(&ws.w[i]); !math.IsNaN(v) {
			vals = append(vals, v)
		}
	}
	return vals
}

func (ws *parts) opsPerSec(s *partStats) float64 {
	return float64(s.ops) / (float64(ws.partNs) / 1e9)
}
func (ws *parts) keysPerSec(s *partStats) float64 {
	return float64(s.readKeys) / (float64(ws.partNs) / 1e9)
}
func p50us(s *partStats) float64 { return s.lat.Percentile(50) / 1e3 }
func p99us(s *partStats) float64 { return s.lat.Percentile(99) / 1e3 }

// total returns the whole window as one part.
func (ws *parts) total() *partStats {
	t := new(partStats)
	for i := range ws.w {
		t.ops += ws.w[i].ops
		t.updates += ws.w[i].updates
		t.readKeys += ws.w[i].readKeys
		t.lat.Merge(&ws.w[i].lat)
	}
	return t
}

// median returns the median of vals (NaN when empty); vals is reordered.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	sort.Float64s(vals)
	n := len(vals)
	return (vals[(n-1)/2] + vals[n/2]) / 2
}
