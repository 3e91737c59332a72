// Package critpath attributes commit latency to protocol phases.
//
// Input is the merged event stream of one experiment window (obs
// Set.TraceEvents). Events are grouped into traces by their Tx identity;
// every timed event (Dur > 0) is a span in the trace's causal tree, joined
// to its parent through the span ids stamped by the protocol fabric. Each
// span's *exclusive* time — its duration minus the summed durations of its
// children — is charged to the phase its kind belongs to:
//
//	lock-wait  EvLockGrant (time a request spent blocked)
//	callback   EvCallbackRound, EvCallbackHandled
//	network    EvRPC (round trip minus the server-side serve span = wire
//	           plus queueing time)
//	disk       EvDiskIO
//	wal        EvWALAppend (log forces)
//	other      everything else (client/server compute: EvClientOp,
//	           EvServe, EvCommit, ...)
//
// Children of a callback fan-out run in parallel, so their summed
// durations can exceed the parent round; exclusive time is clamped at
// zero rather than going negative. Only traces that contain an EvCommit
// event count as commits; traces with an empty Tx (background write-backs
// and similar) are ignored.
package critpath

import (
	"fmt"
	"strings"
	"time"

	"adaptivecc/internal/obs"
)

// Phase is one latency bucket of the commit critical path.
type Phase int

// The attribution buckets, in display order.
const (
	PhaseLockWait Phase = iota
	PhaseCallback
	PhaseNetwork
	PhaseDisk
	PhaseWAL
	PhaseOther
	NumPhases
)

// String names the phase as it appears in breakdown tables.
func (p Phase) String() string {
	switch p {
	case PhaseLockWait:
		return "lock-wait"
	case PhaseCallback:
		return "callback"
	case PhaseNetwork:
		return "network"
	case PhaseDisk:
		return "disk"
	case PhaseWAL:
		return "wal"
	case PhaseOther:
		return "other"
	default:
		return "unknown"
	}
}

// phaseOf maps an event kind to its latency bucket.
func phaseOf(k obs.EventKind) Phase {
	switch k {
	case obs.EvLockGrant:
		return PhaseLockWait
	case obs.EvCallbackRound, obs.EvCallbackHandled:
		return PhaseCallback
	case obs.EvRPC:
		return PhaseNetwork
	case obs.EvDiskIO:
		return PhaseDisk
	case obs.EvWALAppend:
		return PhaseWAL
	default:
		return PhaseOther
	}
}

// Breakdown is the aggregated phase attribution over one experiment
// window. Total is the summed duration of root spans (trace wall time);
// the per-phase exclusive times in Phases can sum past Total when
// parallel fan-outs overlap, so percentages are taken over the phase sum.
type Breakdown struct {
	Commits int                      // traces containing an EvCommit
	Traces  int                      // traces with at least one timed event
	Phases  [NumPhases]time.Duration // exclusive time per phase, all traces
	Total   time.Duration            // summed root-span durations
}

// PhaseSum is the summed exclusive time across all phases.
func (b *Breakdown) PhaseSum() time.Duration {
	var s time.Duration
	for _, d := range b.Phases {
		s += d
	}
	return s
}

// Percent reports the share of phase p in the total attributed time.
func (b *Breakdown) Percent(p Phase) float64 {
	sum := b.PhaseSum()
	if sum <= 0 {
		return 0
	}
	return 100 * float64(b.Phases[p]) / float64(sum)
}

// PerCommit reports phase p's exclusive time averaged over commits.
func (b *Breakdown) PerCommit(p Phase) time.Duration {
	if b.Commits == 0 {
		return 0
	}
	return b.Phases[p] / time.Duration(b.Commits)
}

// Table renders the breakdown as an aligned text table (paper-time
// milliseconds), one row per phase plus a totals row.
func (b *Breakdown) Table() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-10s %12s %14s %7s\n", "phase", "total-ms", "per-commit-ms", "pct")
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	for p := Phase(0); p < NumPhases; p++ {
		fmt.Fprintf(&sb, "%-10s %12.3f %14.4f %6.1f%%\n",
			p.String(), ms(b.Phases[p]), ms(b.PerCommit(p)), b.Percent(p))
	}
	fmt.Fprintf(&sb, "%-10s %12.3f %14s %7s  (%d commits, %d traces)\n",
		"wall", ms(b.Total), "", "", b.Commits, b.Traces)
	return sb.String()
}

// Analyze groups events into traces, reconstructs each trace's span tree,
// and returns the aggregated phase breakdown. Events with an empty Tx are
// skipped; a nil result never occurs (an empty input yields zero values).
func Analyze(events []obs.Event) *Breakdown {
	byTx := make(map[string][]obs.Event)
	for _, ev := range events {
		if ev.Tx == "" {
			continue
		}
		byTx[ev.Tx] = append(byTx[ev.Tx], ev)
	}

	b := &Breakdown{}
	for _, evs := range byTx {
		var (
			timed    []obs.Event
			childDur = make(map[uint64]time.Duration)
			spans    = make(map[uint64]bool)
			commit   bool
		)
		for _, ev := range evs {
			if ev.Kind == obs.EvCommit {
				commit = true
			}
			if ev.Dur <= 0 {
				continue
			}
			timed = append(timed, ev)
			if ev.Span != 0 {
				spans[ev.Span] = true
			}
			if ev.Parent != 0 {
				childDur[ev.Parent] += ev.Dur
			}
		}
		if len(timed) == 0 {
			continue
		}
		b.Traces++
		if commit {
			b.Commits++
		}
		for _, ev := range timed {
			excl := ev.Dur
			if ev.Span != 0 {
				excl -= childDur[ev.Span]
				if excl < 0 {
					excl = 0
				}
			}
			b.Phases[phaseOf(ev.Kind)] += excl
			// A root is a span whose parent is absent from this trace —
			// either a true root (Parent 0) or an orphan whose parent
			// was dropped from the ring.
			if ev.Parent == 0 || !spans[ev.Parent] {
				b.Total += ev.Dur
			}
		}
	}
	return b
}
