package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// TestRecorderAgainstSortedSamples checks the recorder's p50 and p99
// against the exact percentiles of the raw samples, over distributions
// shaped like the latencies the benchmark sees (tens of microseconds
// with a heavy tail, and a sub-microsecond in-process one).
func TestRecorderAgainstSortedSamples(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, tc := range []struct {
		name  string
		mu    float64 // log-mean of the lognormal, ln(ns)
		sigma float64
	}{
		{"rtt", math.Log(15e3), 0.6},
		{"durable", math.Log(2.4e6), 0.4},
		{"in-process", math.Log(700), 0.9},
	} {
		var rec Recorder
		raw := make([]int64, 200_000)
		for i := range raw {
			raw[i] = int64(math.Exp(tc.mu + tc.sigma*rng.NormFloat64()))
			rec.Record(raw[i])
		}
		sort.Slice(raw, func(i, j int) bool { return raw[i] < raw[j] })
		for _, p := range []float64{50, 99} {
			exact := float64(raw[int(math.Ceil(p/100*float64(len(raw))))-1])
			got := rec.Percentile(p)
			if rel := math.Abs(got-exact) / exact; rel > 0.01 {
				t.Errorf("%s p%v: recorder %.1f, exact %.1f, off by %.2f %%", tc.name, p, got, exact, 100*rel)
			}
		}
		if rec.Count() != uint64(len(raw)) {
			t.Errorf("%s: count %d, want %d", tc.name, rec.Count(), len(raw))
		}
	}
}

// TestRecorderBuckets checks that every value falls in a bucket that
// holds it and is at most 0.78 % wide, that indexes are monotone, and
// that merging adds counts.
func TestRecorderBuckets(t *testing.T) {
	prev := -1
	for v := uint64(0); v < 1<<41; v = v + 1 + v/300 {
		i := recIndex(v)
		if i < prev || i >= recBuckets {
			t.Fatalf("index of %d is %d after %d", v, i, prev)
		}
		prev = i
		if v >= 1<<40 {
			continue // clamped
		}
		if low, width := recBounds(i); float64(v) < low || float64(v) >= low+width || width > math.Max(1, float64(v)/recSub) {
			t.Fatalf("value %d in bucket %d = [%.0f, +%.0f)", v, i, low, width)
		}
	}
	var a, b Recorder
	a.Record(100)
	b.Record(300)
	b.Record(-5)
	a.Merge(&b)
	if p100 := a.Percentile(100); a.Count() != 3 || p100 < 300 || p100 > 302 || a.Percentile(1) != 0 {
		t.Fatalf("merge: count %d p100 %v p1 %v", a.Count(), a.Percentile(100), a.Percentile(1))
	}
	if !math.IsNaN(new(Recorder).Percentile(50)) {
		t.Fatal("empty recorder must report NaN")
	}
}
