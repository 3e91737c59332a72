// Package sim provides the simulated resource and cost model that stands in
// for the IBM SP2 hardware used in the paper's performance study.
//
// Sites (peer servers) own a CPU Resource and zero or more disk Resources.
// Protocol code charges work to these resources through Resource.Use, which
// serializes requests FIFO and holds the resource for a scaled amount of
// real time. Because the holding is implemented with time.Sleep, many
// simulated sites can run on a single host core without distorting each
// other: queueing delay, not host CPU burn, models contention.
package sim

import "time"

// CostTable holds the base (unscaled) service demands of the modeled
// hardware, expressed in the paper's own magnitudes (milliseconds on the
// SP2), together with a Scale factor that converts them into the real time
// actually slept during a run. Scale 0 disables all sleeping, which is what
// unit tests use.
type CostTable struct {
	// Scale converts paper-time into wall-clock sleep time. 1.0 runs the
	// model in real time; 0.25 runs it 4x faster; 0 disables sleeping.
	Scale float64

	// PerObjProc is the application processing time per object read. It is
	// doubled when the object is updated (paper Table 2: 2 msec).
	PerObjProc time.Duration

	// MsgCPU is the CPU demand charged at each end of a message send
	// (the SP2's "relatively cheap" messages; it folds in the small wire
	// latency, which is not modeled separately by default).
	MsgCPU time.Duration

	// MsgLatency is the wire latency of a message, charged to no resource.
	// Zero by default: host sleep granularity (~1 ms) is far above the
	// SP2's switch latency, so wire time is folded into MsgCPU.
	MsgLatency time.Duration

	// Quantum is the batching granularity of resource sleeps (see
	// Resource); zero selects the 1 ms default.
	Quantum time.Duration

	// PerPageExtra is the additional CPU demand, at each end, for messages
	// that carry a whole page.
	PerPageExtra time.Duration

	// DiskIO is the service time of one page read or write at a disk.
	DiskIO time.Duration

	// LockCPU is the CPU demand of a lock table operation.
	LockCPU time.Duration
}

// DefaultCosts returns the cost table used by the experiment harness. The
// magnitudes follow the paper's description of the SHORE/SP2 platform:
// 2 msec of client processing per object, messages several times cheaper
// than in the earlier simulation study, and high-single-digit-millisecond
// disk accesses.
func DefaultCosts(scale float64) CostTable {
	return CostTable{
		Scale:        scale,
		PerObjProc:   2 * time.Millisecond,
		MsgCPU:       200 * time.Microsecond,
		PerPageExtra: 300 * time.Microsecond,
		DiskIO:       8 * time.Millisecond,
		LockCPU:      30 * time.Microsecond,
	}
}

// Scaled converts a base duration into the real time to sleep for it.
func (c CostTable) Scaled(d time.Duration) time.Duration {
	if c.Scale <= 0 || d <= 0 {
		return 0
	}
	return time.Duration(float64(d) * c.Scale)
}
