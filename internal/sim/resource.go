package sim

import (
	"sync"
	"sync/atomic"
	"time"
)

// Resource models a serially-shared hardware resource (a site CPU or a
// disk). Use charges scaled service demand to the resource; every caller
// passes through a FIFO chain, so when the resource has outstanding sleep
// debt all subsequent users queue behind it — reproducing utilization and
// queueing delay.
//
// Because the host's sleep granularity (~1 ms) is far coarser than many of
// the modeled costs (e.g. 150 µs per message), demand is accumulated as
// debt and paid in quanta: a caller whose accumulated debt reaches the
// quantum sleeps it off while holding the resource. The actual time slept
// is measured and the overshoot credited back, so aggregate busy time is
// exact even though individual sleeps are coarse.
type Resource struct {
	name  string
	costs CostTable

	mu   sync.Mutex
	tail chan struct{} // closed when the most recent user finishes
	debt int64         // accumulated scaled demand not yet slept, ns

	busy atomic.Int64 // accumulated scaled demand, ns
	uses atomic.Int64
}

// defaultQuantum is used when the cost table does not set one.
const defaultQuantum = time.Millisecond

// NewResource returns a resource named for diagnostics, charging time
// according to costs.
func NewResource(name string, costs CostTable) *Resource {
	return &Resource{name: name, costs: costs}
}

// Name reports the diagnostic name of the resource.
func (r *Resource) Name() string { return r.name }

func (r *Resource) quantum() int64 {
	if r.costs.Quantum > 0 {
		return int64(r.costs.Quantum)
	}
	return int64(defaultQuantum)
}

// Use charges the scaled equivalent of d to the resource, queueing FIFO
// behind current users and sleeping off accumulated debt when it reaches
// the quantum. A zero scale or non-positive d only updates counters.
func (r *Resource) Use(d time.Duration) {
	scaled := r.costs.Scaled(d)
	r.uses.Add(1)
	if scaled == 0 {
		return
	}
	r.busy.Add(int64(scaled))

	r.mu.Lock()
	r.debt += int64(scaled)
	var toSleep int64
	if r.debt >= r.quantum() {
		toSleep = r.debt
		r.debt = 0
	}
	done := make(chan struct{})
	prev := r.tail
	r.tail = done
	r.mu.Unlock()

	if prev != nil {
		<-prev // FIFO: wait for the previous user
	}
	if toSleep > 0 {
		start := time.Now()
		time.Sleep(time.Duration(toSleep))
		over := int64(time.Since(start)) - toSleep
		if over > 0 {
			// Credit the oversleep back so long-run busy time is exact
			// despite coarse host timers.
			r.mu.Lock()
			r.debt -= over
			r.mu.Unlock()
		}
	}
	close(done)
}

// BusyTime reports total scaled demand charged to the resource.
func (r *Resource) BusyTime() time.Duration { return time.Duration(r.busy.Load()) }

// Uses reports how many times the resource has been used.
func (r *Resource) Uses() int64 { return r.uses.Load() }

// Utilization reports the fraction of the elapsed wall-clock interval the
// resource was busy. Callers supply the interval they measured over.
func (r *Resource) Utilization(elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(r.BusyTime()) / float64(elapsed)
}
