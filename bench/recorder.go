package main

import (
	"math"
	"math/bits"
)

// Recorder is a fixed-memory latency recorder: a log-linear histogram
// with 128 sub-buckets per octave, so a bucket is at most 1/128 = 0.78 %
// wide and a percentile is within that of the sample it stands for.
// Values below 256 ns are exact.
// Recording allocates nothing and keeps no per-sample storage, so the
// recorder inflates neither allocs_per_op nor heap_bytes_per_key.
//
// stats.Histogram is not used for percentiles: its 16 sub-buckets per
// octave are 6-12 % steps, wider than the regression bounds.
type Recorder struct {
	counts [recBuckets]uint32
	n      uint64
}

const (
	recSubBits = 7
	recSub     = 1 << recSubBits // sub-buckets per octave
	recMaxExp  = 32              // values clamp at 2^40 ns (18 minutes)
	recBuckets = (recMaxExp + 2) * recSub
)

func recIndex(v uint64) int {
	e := bits.Len64(v) - (recSubBits + 1)
	if e <= 0 {
		return int(v)
	}
	if e > recMaxExp {
		return recBuckets - 1
	}
	return e<<recSubBits + int(v>>uint(e))
}

// recBounds returns the lowest value of bucket i and the bucket's width.
func recBounds(i int) (low, width float64) {
	if i < 2*recSub {
		return float64(i), 1
	}
	e := uint(i>>recSubBits) - 1
	return float64(uint64(i&(recSub-1)+recSub) << e), float64(uint64(1) << e)
}

// Record adds one sample of ns nanoseconds (negative samples count as 0).
func (r *Recorder) Record(ns int64) {
	if ns < 0 {
		ns = 0
	}
	r.counts[recIndex(uint64(ns))]++
	r.n++
}

// Count returns the number of samples recorded.
func (r *Recorder) Count() uint64 { return r.n }

// Merge adds other's samples to r.
func (r *Recorder) Merge(other *Recorder) {
	for i, c := range other.counts {
		r.counts[i] += c
	}
	r.n += other.n
}

// Percentile returns the p-th percentile (0 < p <= 100) in nanoseconds,
// NaN when no sample was recorded. Inside the bucket holding the rank the
// samples are taken as evenly spread, so the result is a continuous
// quantity, still within the bucket and so within 0.78 % of the sample.
func (r *Recorder) Percentile(p float64) float64 {
	if r.n == 0 {
		return math.NaN()
	}
	rank := max(p/100*float64(r.n), 1)
	var seen float64
	for i, c := range r.counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			low, width := recBounds(i)
			if width == 1 {
				return low // exact
			}
			return low + width*(rank-seen)/float64(c)
		}
		seen += float64(c)
	}
	low, width := recBounds(recBuckets - 1)
	return low + width
}
