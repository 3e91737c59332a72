package sim

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCostTableScaling(t *testing.T) {
	c := DefaultCosts(0.5)
	if got := c.Scaled(10 * time.Millisecond); got != 5*time.Millisecond {
		t.Errorf("Scaled = %v, want 5ms", got)
	}
	zero := DefaultCosts(0)
	if got := zero.Scaled(10 * time.Millisecond); got != 0 {
		t.Errorf("zero scale Scaled = %v, want 0", got)
	}
	if got := c.Scaled(-time.Millisecond); got != 0 {
		t.Errorf("negative Scaled = %v, want 0", got)
	}
}

func TestResourceAccountsWithoutSleepAtZeroScale(t *testing.T) {
	r := NewResource("cpu", DefaultCosts(0))
	start := time.Now()
	for i := 0; i < 100; i++ {
		r.Use(8 * time.Millisecond)
	}
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Errorf("zero-scale Use slept: %v", elapsed)
	}
	if r.Uses() != 100 {
		t.Errorf("Uses = %d", r.Uses())
	}
	if r.BusyTime() != 0 {
		t.Errorf("BusyTime = %v at zero scale", r.BusyTime())
	}
}

func TestResourceSerializesFIFO(t *testing.T) {
	r := NewResource("disk", DefaultCosts(1))
	const n = 5
	const each = 10 * time.Millisecond
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.Use(each)
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if elapsed < n*each-5*time.Millisecond {
		t.Errorf("resource did not serialize: %v < %v", elapsed, n*each)
	}
	if r.BusyTime() != n*each {
		t.Errorf("BusyTime = %v, want %v", r.BusyTime(), n*each)
	}
	if u := r.Utilization(elapsed); u < 0.8 || u > 1.1 {
		t.Errorf("Utilization = %v", u)
	}
}

func TestStatsCounters(t *testing.T) {
	s := NewStats()
	s.Inc(CtrMessages)
	s.Add(CtrMessages, 2)
	s.Inc(CtrCallbacks)
	if got := s.Get(CtrMessages); got != 3 {
		t.Errorf("messages = %d", got)
	}
	snap := s.Snapshot()
	if snap[CtrMessages] != 3 || snap[CtrCallbacks] != 1 {
		t.Errorf("snapshot = %v", snap)
	}
	str := s.String()
	if !strings.Contains(str, "messages=3") || !strings.Contains(str, "callbacks=1") {
		t.Errorf("String = %q", str)
	}
}

func TestStatsConcurrent(t *testing.T) {
	s := NewStats()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				s.Inc(CtrMessages)
			}
		}()
	}
	wg.Wait()
	if got := s.Get(CtrMessages); got != 8000 {
		t.Errorf("messages = %d, want 8000", got)
	}
}

func TestWaitTrackerAdaptiveTimeout(t *testing.T) {
	w := NewWaitTracker(10 * time.Second)
	if got := w.Timeout(); got != 10*time.Second {
		t.Errorf("cold timeout = %v, want ceiling", got)
	}
	for i := 0; i < 100; i++ {
		w.Observe(100 * time.Millisecond)
	}
	// Zero variance: timeout = mean * 1.5 = 150ms.
	got := w.Timeout()
	if got < 140*time.Millisecond || got > 160*time.Millisecond {
		t.Errorf("timeout = %v, want ~150ms", got)
	}
	if w.Count() != 100 {
		t.Errorf("Count = %d", w.Count())
	}
}

// TestWaitTrackerExactFormula pins the derivation on heterogeneous
// samples: timeout = (mean + stddev) * inflate, computed independently
// here from the same samples.
func TestWaitTrackerExactFormula(t *testing.T) {
	w := NewWaitTracker(time.Hour)
	samples := []time.Duration{
		10 * time.Millisecond, 20 * time.Millisecond,
		30 * time.Millisecond, 40 * time.Millisecond,
	}
	var sum, sumSq float64
	for _, d := range samples {
		w.Observe(d)
		s := d.Seconds()
		sum += s
		sumSq += s * s
	}
	mean := sum / float64(len(samples))
	variance := sumSq/float64(len(samples)) - mean*mean
	want := time.Duration((mean + math.Sqrt(variance)) * 1.5 * float64(time.Second))
	got := w.Timeout()
	if diff := got - want; diff < -time.Microsecond || diff > time.Microsecond {
		t.Errorf("timeout = %v, want %v (mean %v + stddev %v, ×1.5)",
			got, want, time.Duration(mean*float64(time.Second)),
			time.Duration(math.Sqrt(variance)*float64(time.Second)))
	}
}

func TestWaitTrackerVarianceRaisesTimeout(t *testing.T) {
	w := NewWaitTracker(time.Hour)
	for i := 0; i < 50; i++ {
		w.Observe(50 * time.Millisecond)
		w.Observe(150 * time.Millisecond)
	}
	// mean 100ms, stddev 50ms => timeout = 1.5 * 150ms = 225ms.
	got := w.Timeout()
	if got < 200*time.Millisecond || got > 250*time.Millisecond {
		t.Errorf("timeout = %v, want ~225ms", got)
	}
}

func TestWaitTrackerClamps(t *testing.T) {
	w := NewWaitTracker(200 * time.Millisecond)
	w.Observe(time.Millisecond)
	if got := w.Timeout(); got != waitFloor {
		t.Errorf("floor clamp = %v, want %v", got, waitFloor)
	}
	for i := 0; i < 100; i++ {
		w.Observe(10 * time.Second)
	}
	if got := w.Timeout(); got != 200*time.Millisecond {
		t.Errorf("ceiling clamp = %v", got)
	}
}

func TestResourceQuantumBatching(t *testing.T) {
	costs := DefaultCosts(1)
	costs.Quantum = 5 * time.Millisecond
	r := NewResource("cpu", costs)
	// 20 sub-quantum charges of 200us = 4ms total: below the quantum, so
	// no sleeping should occur, only accounting.
	start := time.Now()
	for i := 0; i < 20; i++ {
		r.Use(200 * time.Microsecond)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Millisecond {
		t.Errorf("sub-quantum charges slept: %v", elapsed)
	}
	if got := r.BusyTime(); got != 4*time.Millisecond {
		t.Errorf("BusyTime = %v, want 4ms", got)
	}
	// Crossing the quantum pays off the accumulated debt.
	start = time.Now()
	r.Use(2 * time.Millisecond)
	if elapsed := time.Since(start); elapsed < 5*time.Millisecond {
		t.Errorf("quantum crossing slept only %v, want >= ~6ms", elapsed)
	}
}

func TestResourceAggregateDemandConserved(t *testing.T) {
	costs := DefaultCosts(1)
	r := NewResource("cpu", costs)
	const n = 40
	const each = 500 * time.Microsecond
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.Use(each)
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	want := time.Duration(n) * each // 20ms of demand
	// The oversleep compensation keeps total elapsed close to demand even
	// with coarse host timers (allow generous slack for scheduling).
	if elapsed < want/2 || elapsed > want*3 {
		t.Errorf("elapsed = %v for %v of serial demand", elapsed, want)
	}
	if r.BusyTime() != want {
		t.Errorf("BusyTime = %v, want %v", r.BusyTime(), want)
	}
}
