package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{
		{0.5, 5}, {0.95, 10}, {0.9, 9}, {0.01, 1}, {1, 10},
	} {
		if got := percentile(sorted, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{42}, 0.95); got != 42 {
		t.Errorf("single sample: got %v", got)
	}
}

func TestSummarizeMedianAndQuartiles(t *testing.T) {
	// statistics.quantiles(method="inclusive") of 10..50 gives 20, 30, 40.
	s := summarize([]float64{50, 10, 40, 20, 30})
	if s.median != 30 || s.q1 != 20 || s.q3 != 40 || s.n != 5 {
		t.Errorf("got %+v", s)
	}
	if got := s.spread(); math.Abs(got-20.0/30) > 1e-12 {
		t.Errorf("spread = %v", got)
	}
	// One wild slice must not move the median.
	if s := summarize([]float64{100, 101, 99, 100, 5}); s.median != 100 {
		t.Errorf("median with an outlier = %v", s.median)
	}
	// Slices with nothing to measure are skipped, not counted as zero.
	if s := summarize([]float64{math.NaN(), 7, math.NaN()}); s.median != 7 || s.n != 1 {
		t.Errorf("NaN handling: %+v", s)
	}
	if s := summarize(nil); s.n != 0 {
		t.Errorf("empty: %+v", s)
	}
}

func TestSliceMetricsAssignTransactionsToTheSliceTheyCommitIn(t *testing.T) {
	const dur = 5 * time.Second
	res := &windowResult{dur: dur}
	for i := 0; i <= numSlices; i++ {
		// 100 ms of client CPU and 50 ms of server CPU per slice.
		res.bounds = append(res.bounds, boundary{
			at:        time.Duration(i) * time.Second,
			clientCPU: time.Duration(i) * 100 * time.Millisecond,
			serverCPU: time.Duration(i) * 50 * time.Millisecond,
		})
	}
	// Slice 0: 3 commits; slice 1: 1; slice 2: none; slice 3: 2; slice 4: 1
	// committing exactly at the window's end.
	for _, s := range []struct{ atMs, latMs int }{
		{100, 10}, {500, 20}, {1000, 30},
		{1500, 40},
		{3200, 5}, {3900, 15},
		{5000, 7},
	} {
		res.samples = append(res.samples, commitSample{
			at:      time.Duration(s.atMs) * time.Millisecond,
			latency: time.Duration(s.latMs) * time.Millisecond,
		})
	}
	cps, p50, p95, cpu := sliceMetrics(res)
	wantCPS := []float64{3, 1, 0, 2, 1}
	wantP50 := []float64{20, 40, math.NaN(), 5, 7}
	wantP95 := []float64{30, 40, math.NaN(), 15, 7}
	wantCPU := []float64{50, 150, math.NaN(), 75, 150}
	same := func(a, b float64) bool { return a == b || (math.IsNaN(a) && math.IsNaN(b)) }
	for i := 0; i < numSlices; i++ {
		if !same(cps[i], wantCPS[i]) || !same(p50[i], wantP50[i]) || !same(p95[i], wantP95[i]) || !same(cpu[i], wantCPU[i]) {
			t.Errorf("slice %d: cps %v p50 %v p95 %v cpu %v; want %v %v %v %v",
				i, cps[i], p50[i], p95[i], cpu[i], wantCPS[i], wantP50[i], wantP95[i], wantCPU[i])
		}
	}
	sums, err := timedValues(res, []float64{0.5, 0.3, 0.4})
	if err != nil {
		t.Fatal(err)
	}
	if sums["commits_per_s"].median != 1 || sums["txn_p50_ms"].median != 13.5 || sums["setup_s"].median != 0.4 {
		t.Errorf("medians of slices: %v", sums)
	}
	if sums["txn_p50_ms"].n != 4 {
		t.Errorf("the empty slice must not count: n=%d", sums["txn_p50_ms"].n)
	}
}
