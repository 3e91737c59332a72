package sim

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Stats is a set of named atomic counters shared by all components of a
// running system. Counter names are free-form; the canonical ones used by
// the protocol code are listed as constants below.
type Stats struct {
	mu       sync.Mutex
	counters map[string]*atomic.Int64
}

// Canonical counter names incremented by the protocol implementation.
const (
	CtrMessages        = "messages"          // every message sent
	CtrPageTransfers   = "page_transfers"    // messages that carried a page
	CtrReadRequests    = "read_requests"     // client->server object/page reads
	CtrWriteRequests   = "write_requests"    // client->server write-permission requests
	CtrCallbacks       = "callbacks"         // callback requests issued
	CtrCallbackBlocked = "callback_blocked"  // callback-blocked replies
	CtrCallbackRaces   = "callback_races"    // callback races registered
	CtrPurgeRaces      = "purge_races"       // purge races detected
	CtrDeescalations   = "deescalations"     // adaptive lock deescalations
	CtrAdaptiveGrants  = "adaptive_grants"   // adaptive page locks granted
	CtrDiskReads       = "disk_reads"        // page reads from disk
	CtrDiskWrites      = "disk_writes"       // page writes to disk
	CtrCommits         = "commits"           // transactions committed
	CtrAborts          = "aborts"            // transactions aborted (any reason)
	CtrDeadlockAborts  = "deadlock_aborts"   // aborts from local deadlock detection
	CtrTimeoutAborts   = "timeout_aborts"    // aborts from lock-wait timeouts
	CtrLockWaits       = "lock_waits"        // lock requests that blocked
	CtrCallbackRounds  = "callback_rounds"   // extra callback rounds (objective-2 violations)
	CtrLogRecords      = "log_records"       // log records generated
	CtrRedoPageReads   = "redo_page_reads"   // redo-at-server disk re-reads
	CtrObjectReads     = "object_reads"      // application-level object reads
	CtrObjectWrites    = "object_writes"     // application-level object writes
	CtrLocalHits       = "local_cache_hits"  // reads satisfied from the local cache
	CtrEscalationSaved = "escalations_saved" // object writes covered by an adaptive page lock
	CtrNetDrops        = "net_drops"         // sends refused because the fabric was closed (or, on TCP, unroutable)
	CtrWriteBackErrors = "writeback_errors"  // dirty-page write-backs that failed
	CtrRetries         = "retries"           // RPC attempts resent after a reply timeout
	CtrTimeoutsFired   = "timeouts_fired"    // RPC/callback-round timeouts that fired
	CtrDupSuppressed   = "dup_suppressed"    // re-delivered messages suppressed by dedup
	CtrCrashRecoveries = "crash_recoveries"  // peers that reclaimed state of a crashed peer
	CtrFaultDrops      = "fault_drops"       // messages dropped by fault injection (incl. partitions)
	CtrFaultDups       = "fault_dups"        // messages duplicated by fault injection
	CtrFaultDelays     = "fault_delays"      // messages delayed/reordered by fault injection
	CtrCrashDrops      = "crash_drops"       // sends refused because an endpoint was crashed

	// WAL group commit (internal/wal).
	CtrWALGroupForces = "wal_group_forces" // log-disk writes issued by the group committer
	CtrWALGroupJoins  = "wal_group_joins"  // log forces absorbed into another committer's force

	// TCP fabric connection lifecycle (internal/transport).
	CtrTCPConns      = "tcp_conns"      // TCP connections established (dialed or accepted)
	CtrTCPReconnects = "tcp_reconnects" // dials that replaced a previously-lost connection

	// PS-AH history-advisor decisions (internal/consistency).
	CtrAdvisorEscSuppressed   = "advisor_esc_suppressed"   // adaptive grants suppressed by deescalation history
	CtrAdvisorObjectGrainCB   = "advisor_object_callbacks" // callback ops demoted to object grain by history
	CtrAdvisorPageGrainWrites = "advisor_page_writes"      // writes upgraded to page grain by a quiet-streak

	// Purge-notice lifecycle (internal/core). A graceful detach balances:
	// every notice a client attaches to an outgoing message is applied
	// exactly once at the owner (dedup suppresses retried duplicates).
	CtrPurgeSent    = "purge_notices_sent"    // purge notices attached to outgoing messages
	CtrPurgeApplied = "purge_notices_applied" // purge notices applied at the owner

	// Cross-shard two-phase commit (internal/core, internal/wal).
	Ctr2PCPrepares       = "2pc_prepares"        // participant prepare records forced (cross-shard commits)
	Ctr2PCPresumedAborts = "2pc_presumed_aborts" // in-doubt transactions resolved by presumed abort
)

// CanonicalCounters lists every canonical counter name above. The metrics
// surface seeds its exposition with this list so each series exists (at
// zero) from the first scrape, before any code path touches it — the TCP
// lifecycle counters and the crash/net drop split in particular must be
// present on a freshly started server. counters_test.go in internal/core
// cross-checks this list against the constant block, so a new counter
// cannot be declared without joining it.
var CanonicalCounters = []string{
	CtrMessages, CtrPageTransfers, CtrReadRequests, CtrWriteRequests,
	CtrCallbacks, CtrCallbackBlocked, CtrCallbackRaces, CtrPurgeRaces,
	CtrDeescalations, CtrAdaptiveGrants, CtrDiskReads, CtrDiskWrites,
	CtrCommits, CtrAborts, CtrDeadlockAborts, CtrTimeoutAborts,
	CtrLockWaits, CtrCallbackRounds, CtrLogRecords, CtrRedoPageReads,
	CtrObjectReads, CtrObjectWrites, CtrLocalHits, CtrEscalationSaved,
	CtrNetDrops, CtrWriteBackErrors, CtrRetries, CtrTimeoutsFired,
	CtrDupSuppressed, CtrCrashRecoveries, CtrFaultDrops, CtrFaultDups,
	CtrFaultDelays, CtrCrashDrops,
	CtrWALGroupForces, CtrWALGroupJoins,
	CtrTCPConns, CtrTCPReconnects,
	CtrAdvisorEscSuppressed, CtrAdvisorObjectGrainCB, CtrAdvisorPageGrainWrites,
	CtrPurgeSent, CtrPurgeApplied,
	Ctr2PCPrepares, Ctr2PCPresumedAborts,
}

// NewStats returns an empty counter set.
func NewStats() *Stats {
	return &Stats{counters: make(map[string]*atomic.Int64)}
}

// Counter returns the named counter's cell, creating it at zero. A caller
// that counts per object access resolves the cell once and adds to it
// directly, skipping the mutex and the name lookup of Inc/Add.
func (s *Stats) Counter(name string) *atomic.Int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.counters[name]
	if !ok {
		c = &atomic.Int64{}
		s.counters[name] = c
	}
	return c
}

// Inc adds one to the named counter.
func (s *Stats) Inc(name string) { s.Add(name, 1) }

// Add adds delta to the named counter.
func (s *Stats) Add(name string, delta int64) { s.Counter(name).Add(delta) }

// Get reads the named counter.
func (s *Stats) Get(name string) int64 { return s.Counter(name).Load() }

// Snapshot copies all counters into a plain map. Only the copy happens
// under the mutex; callers format at leisure.
func (s *Stats) Snapshot() map[string]int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int64, len(s.counters))
	for k, v := range s.counters {
		out[k] = v.Load()
	}
	return out
}

// Counter is one named counter value in a deterministic dump.
type Counter struct {
	Name  string
	Value int64
}

// Sorted copies all counters into a slice sorted by name. Like Snapshot,
// no formatting or sorting happens while the mutex is held.
func (s *Stats) Sorted() []Counter {
	s.mu.Lock()
	out := make([]Counter, 0, len(s.counters))
	for k, v := range s.counters {
		out = append(out, Counter{Name: k, Value: v.Load()})
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// String renders the nonzero counters sorted by name, for reports.
func (s *Stats) String() string {
	var b strings.Builder
	for _, c := range s.Sorted() {
		if c.Value == 0 {
			continue
		}
		if b.Len() > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%s=%d", c.Name, c.Value)
	}
	return b.String()
}

// WaitTracker records lock-wait durations and derives the adaptive timeout
// interval of Agrawal/Carey/McVoy as used by the paper: mean conflict wait
// plus one standard deviation, inflated by 1.5 (the paper's factor: a
// single server's deadlocks are detected exactly, so timeouts can wait
// generously), clamped to [waitFloor, ceil].
type WaitTracker struct {
	mu    sync.Mutex
	n     int64
	sum   float64 // seconds
	sumSq float64
	ceil  time.Duration
}

// waitInflate is the paper's inflation of mean+stddev.
const waitInflate = 1.5

// waitFloor is the least adaptive timeout. It guards against the
// host's timer granularity, a wall-clock property, so it does not scale
// with simulated time.
const waitFloor = 50 * time.Millisecond

// NewWaitTracker returns a tracker whose derived timeout never exceeds
// ceil, which is also its cold-start value.
func NewWaitTracker(ceil time.Duration) *WaitTracker {
	return &WaitTracker{ceil: ceil}
}

// Observe records one completed lock wait.
func (w *WaitTracker) Observe(d time.Duration) {
	secs := d.Seconds()
	w.mu.Lock()
	defer w.mu.Unlock()
	w.n++
	w.sum += secs
	w.sumSq += secs * secs
}

// Timeout derives the current adaptive timeout value. Before any waits have
// been observed it returns the ceiling, so that cold-start transactions are
// not spuriously aborted.
func (w *WaitTracker) Timeout() time.Duration {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.n == 0 {
		return w.ceil
	}
	mean := w.sum / float64(w.n)
	variance := w.sumSq/float64(w.n) - mean*mean
	if variance < 0 {
		variance = 0
	}
	t := time.Duration((mean + math.Sqrt(variance)) * waitInflate * float64(time.Second))
	if t < waitFloor {
		t = waitFloor
	}
	if w.ceil > 0 && t > w.ceil {
		t = w.ceil
	}
	return t
}

// Count reports the number of waits observed.
func (w *WaitTracker) Count() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.n
}
