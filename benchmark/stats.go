package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of sorted,
// which must be ascending and non-empty.
func percentile(sorted []float64, p float64) float64 {
	rank := int(math.Ceil(p * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// summary is how a metric is reported: the median of its per-slice (or
// per-run) values with the quartiles and the sample count beside it.
type summary struct {
	median, q1, q3 float64
	n              int
}

// spread is the interquartile range as a share of the median, the figure
// the bounds in BENCHMARK.json are judged against.
func (s summary) spread() float64 {
	if s.median == 0 {
		return 0
	}
	return (s.q3 - s.q1) / math.Abs(s.median)
}

// summarize computes the median and quartiles of values by linear
// interpolation between closest ranks. NaN entries mark slices that had
// nothing to measure and are skipped; with no values left the summary's n
// is 0.
func summarize(values []float64) summary {
	var v []float64
	for _, x := range values {
		if !math.IsNaN(x) {
			v = append(v, x)
		}
	}
	if len(v) == 0 {
		return summary{}
	}
	sort.Float64s(v)
	at := func(q float64) float64 {
		pos := q * float64(len(v)-1)
		lo := int(math.Floor(pos))
		hi := int(math.Ceil(pos))
		return v[lo] + (v[hi]-v[lo])*(pos-float64(lo))
	}
	return summary{median: at(0.5), q1: at(0.25), q3: at(0.75), n: len(v)}
}
