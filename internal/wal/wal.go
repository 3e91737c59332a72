// Package wal implements SHORE's redo-at-server update propagation scheme
// (paper §3.3). Clients never ship dirty objects or pages back to the
// owner; they generate log records into a local log cache (a field of
// the transaction, core.Tx) and ship the records at commit time (or
// earlier, when a dirty page is evicted from the client cache). The owner redoes the logged operations to install the
// updates, re-reading any non-resident pages from disk, and undoes shipped
// records using before-images if the transaction later aborts.
package wal

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"adaptivecc/internal/bounded"
	"adaptivecc/internal/lock"
	"adaptivecc/internal/sim"
	"adaptivecc/internal/storage"
)

// Record logs one object update.
type Record struct {
	LSN    uint64 // assigned by the stable log on receipt; zero in the cache
	Tx     lock.TxID
	Object storage.ItemID // object-level item
	Before []byte         // before-image, for undo at the server
	After  []byte         // after-image, for redo
}

// Decision is the coordinator-recorded fate of a distributed transaction.
type Decision int

// The three fates a transaction can have at a coordinator. Unknown means
// no decision record exists — which, under presumed abort, IS an abort the
// moment anyone asks.
const (
	DecisionUnknown Decision = iota
	DecisionCommit
	DecisionAbort
)

// PreparedTx describes one in-doubt transaction at a participant: its
// records are forced but its fate rests with the named coordinator. Since
// timestamps the prepare so resolution can wait out the commonly-fast
// decide message before presuming anything.
type PreparedTx struct {
	Tx    lock.TxID
	Coord string
	Since time.Time
}

// decidedSize bounds the decision tombstone set: a coordinator must
// answer status queries about recently decided transactions, but cannot
// remember every fate forever.
const decidedSize = 8192

// StableLog is the owner-side log: an append-only record sequence on its
// own log disk, plus the per-transaction record lists retained for undo
// until the transaction's fate is decided.
type StableLog struct {
	disk *storage.Disk

	mu       sync.Mutex
	nextLSN  uint64
	active   map[lock.TxID][]Record // shipped but not yet committed/aborted
	size     int
	img      *LogImage // serialized image of the log disk; nil unless enabled
	nextCkpt uint64
	gf       *groupForcer // nil unless EnableGroupCommit was called

	// 2PC state. prepared tracks in-doubt participant transactions (forced
	// records whose fate rests elsewhere); decided is the coordinator-side
	// decision tombstone set.
	prepared map[lock.TxID]PreparedTx
	decided  *bounded.Map[lock.TxID, Decision]
}

// ForceInfo describes how one log force was satisfied: the number of
// committers whose forces were covered by the same disk write (Cohort, at
// least 1) and whether this caller issued the write (Led) or was absorbed
// into another committer's batch.
type ForceInfo struct {
	Cohort int
	Led    bool
}

// groupForcer absorbs concurrent log forces into one disk write. The first
// force to arrive becomes the batch leader: it opens a window, sleeps it
// out, then issues a single disk write on behalf of everyone who joined in
// the meantime. Correctness leans on the StableLog discipline that records
// (and the log image) are appended under l.mu *before* the force is
// requested — so by the time the leader writes, the batch's records are
// all in the log and one write covers them.
type groupForcer struct {
	window   time.Duration
	stats    *sim.Stats
	observer func(cohort int) // nil unless SetForceObserver was called

	mu      sync.Mutex
	pending *forceBatch // batch currently open for joiners; nil when none
}

type forceBatch struct {
	done   chan struct{} // closed by the leader after its disk write
	cohort int           // guarded by groupForcer.mu until done is closed
}

// force satisfies one log force request, either by leading a new batch or
// by waiting out the current leader's write.
func (g *groupForcer) force(disk *storage.Disk) ForceInfo {
	g.mu.Lock()
	if b := g.pending; b != nil {
		b.cohort++
		g.mu.Unlock()
		<-b.done
		if g.stats != nil {
			g.stats.Inc(sim.CtrWALGroupJoins)
		}
		return ForceInfo{Cohort: b.cohort, Led: false}
	}
	b := &forceBatch{done: make(chan struct{}), cohort: 1}
	g.pending = b
	g.mu.Unlock()
	if g.window > 0 {
		time.Sleep(g.window)
	}
	g.mu.Lock()
	g.pending = nil // no more joiners; the write below covers the batch
	cohort := b.cohort
	g.mu.Unlock()
	disk.Write()
	close(b.done)
	if g.stats != nil {
		g.stats.Inc(sim.CtrWALGroupForces)
	}
	if g.observer != nil {
		g.observer(cohort)
	}
	return ForceInfo{Cohort: cohort, Led: true}
}

// EnableGroupCommit turns on group commit: concurrent forces of this log
// are absorbed into one disk write, each leader waiting up to window for
// companions. Call before the log sees concurrent traffic. A nil stats
// disables the force/join counters.
func (l *StableLog) EnableGroupCommit(window time.Duration, stats *sim.Stats) {
	l.mu.Lock()
	l.gf = &groupForcer{window: window, stats: stats}
	l.mu.Unlock()
}

// SetForceObserver registers a callback invoked by each batch leader with
// the cohort its disk write retired — the WAL batch-size histogram feed,
// letting the group-commit window be tuned from metrics. No-op before
// EnableGroupCommit; fn runs on the leader's goroutine after the write,
// so it must be cheap and thread-safe. nil clears it.
func (l *StableLog) SetForceObserver(fn func(cohort int)) {
	l.mu.Lock()
	if l.gf != nil {
		l.gf.observer = fn
	}
	l.mu.Unlock()
}

// force issues one log force outside the mutex, routing through the group
// committer when enabled. Callers pass the gf pointer they loaded while
// still holding l.mu, so enabling group commit mid-run is race-free.
func (l *StableLog) force(gf *groupForcer) ForceInfo {
	if l.disk == nil {
		return ForceInfo{Cohort: 1, Led: true}
	}
	if gf == nil {
		l.disk.Write()
		return ForceInfo{Cohort: 1, Led: true}
	}
	return gf.force(l.disk)
}

// Force flushes the log to its disk unconditionally — the shutdown
// barrier a server runs after draining in-flight work, so everything
// appended before the call is stable regardless of group-commit windows.
func (l *StableLog) Force() ForceInfo {
	l.mu.Lock()
	gf := l.gf
	l.mu.Unlock()
	return l.force(gf)
}

// NewStableLog returns an empty stable log writing to disk.
func NewStableLog(disk *storage.Disk) *StableLog {
	return &StableLog{
		disk:     disk,
		nextLSN:  1,
		active:   make(map[lock.TxID][]Record),
		prepared: make(map[lock.TxID]PreparedTx),
		decided:  bounded.New[lock.TxID, Decision](decidedSize),
	}
}

// Append assigns LSNs to records, retains them for possible undo, and
// charges one log-disk write for the batch (group force).
func (l *StableLog) Append(recs []Record) []Record {
	out, _ := l.AppendForce(recs)
	return out
}

// AppendForce is Append plus a report of how the trailing log force was
// satisfied (the group-commit cohort it shared a disk write with).
func (l *StableLog) AppendForce(recs []Record) ([]Record, ForceInfo) {
	if len(recs) == 0 {
		return nil, ForceInfo{}
	}
	l.mu.Lock()
	out := make([]Record, len(recs))
	for i, r := range recs {
		r.LSN = l.nextLSN
		l.nextLSN++
		out[i] = r
		l.active[r.Tx] = append(l.active[r.Tx], r)
		if l.img != nil {
			l.img.AppendUpdate(r)
		}
	}
	l.size += len(recs)
	gf := l.gf
	l.mu.Unlock()
	return out, l.force(gf)
}

// Commit releases the undo information of tx and charges the commit-record
// force.
func (l *StableLog) Commit(tx lock.TxID) {
	l.CommitForce(tx)
}

// CommitForce is Commit plus a report of how the commit-record force was
// satisfied.
func (l *StableLog) CommitForce(tx lock.TxID) ForceInfo {
	l.mu.Lock()
	delete(l.active, tx)
	delete(l.prepared, tx)
	if l.img != nil {
		l.img.AppendCommit(tx)
	}
	gf := l.gf
	l.mu.Unlock()
	return l.force(gf)
}

// Abort removes and returns tx's shipped records in reverse order, ready
// for undo via their before-images.
func (l *StableLog) Abort(tx lock.TxID) []Record {
	l.mu.Lock()
	recs := l.active[tx]
	delete(l.active, tx)
	delete(l.prepared, tx)
	if l.img != nil && len(recs) > 0 {
		l.img.AppendAbort(tx)
	}
	l.mu.Unlock()
	out := make([]Record, 0, len(recs))
	for i := len(recs) - 1; i >= 0; i-- {
		out = append(out, recs[i])
	}
	return out
}

// Prepare marks tx in-doubt at this participant: its records are already
// appended and forced (AppendForce precedes Prepare in the commit path),
// and this call forces the prepare record naming the coordinator — the
// durable promise that the participant will honor whatever the coordinator
// decided. The entry clears when a decision arrives (CommitForce or
// Abort).
func (l *StableLog) Prepare(tx lock.TxID, coord string) ForceInfo {
	l.mu.Lock()
	if _, ok := l.prepared[tx]; !ok {
		l.prepared[tx] = PreparedTx{Tx: tx, Coord: coord, Since: time.Now()}
		if l.img != nil {
			l.img.AppendPrepare(tx, coord)
		}
	}
	gf := l.gf
	l.mu.Unlock()
	return l.force(gf)
}

// PreparedTxs snapshots the in-doubt transactions, oldest first.
func (l *StableLog) PreparedTxs() []PreparedTx {
	l.mu.Lock()
	out := make([]PreparedTx, 0, len(l.prepared))
	for _, pt := range l.prepared {
		out = append(out, pt)
	}
	l.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Since.Before(out[j].Since) })
	return out
}

// PreparedCount reports how many transactions are in doubt here.
func (l *StableLog) PreparedCount() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.prepared)
}

// IsPrepared reports whether tx is in doubt at this participant.
func (l *StableLog) IsPrepared(tx lock.TxID) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	_, ok := l.prepared[tx]
	return ok
}

// Decide records the coordinator-side fate of a distributed transaction
// and forces the decision record. Once recorded, a fate is immutable: a
// commit request against a recorded abort (or vice versa) returns an error
// so the caller can propagate the recorded fate instead of splitting the
// transaction's outcome across shards.
func (l *StableLog) Decide(tx lock.TxID, commit bool) error {
	want := DecisionAbort
	if commit {
		want = DecisionCommit
	}
	l.mu.Lock()
	if prev, ok := l.decided.Get(tx); ok {
		l.mu.Unlock()
		if prev != want {
			return fmt.Errorf("wal: tx %v already decided %v, cannot decide %v", tx, prev, want)
		}
		return nil
	}
	l.recordDecisionLocked(tx, want)
	gf := l.gf
	l.mu.Unlock()
	l.force(gf)
	return nil
}

// DecisionOf reports tx's recorded fate (DecisionUnknown if none).
func (l *StableLog) DecisionOf(tx lock.TxID) Decision {
	l.mu.Lock()
	defer l.mu.Unlock()
	d, _ := l.decided.Get(tx)
	return d
}

// ResolveStatus answers a participant's status query under presumed abort:
// a recorded fate is returned as-is, and an unknown fate is recorded as
// abort — silence means abort, and writing the abort down makes a late
// commit decision fail loudly instead of splitting the outcome.
func (l *StableLog) ResolveStatus(tx lock.TxID) Decision {
	l.mu.Lock()
	d, ok := l.decided.Get(tx)
	if ok {
		l.mu.Unlock()
		return d
	}
	l.recordDecisionLocked(tx, DecisionAbort)
	gf := l.gf
	l.mu.Unlock()
	l.force(gf)
	return DecisionAbort
}

// recordDecisionLocked writes a decision into the tombstone set and the
// log image. Callers hold l.mu.
func (l *StableLog) recordDecisionLocked(tx lock.TxID, d Decision) {
	l.decided.Put(tx, d)
	if l.img != nil {
		if d == DecisionCommit {
			l.img.AppendCommit(tx)
		} else {
			l.img.AppendAbort(tx)
		}
	}
}

// EnableImage turns on the serialized log image (see replay.go). Off by
// default: the image grows with the log, so only crash-recovery tests and
// scenarios pay for it.
func (l *StableLog) EnableImage() {
	l.mu.Lock()
	if l.img == nil {
		l.img = NewLogImage()
	}
	l.mu.Unlock()
}

// ImageBytes returns a copy of the serialized log image (nil if disabled).
func (l *StableLog) ImageBytes() []byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.img == nil {
		return nil
	}
	return append([]byte(nil), l.img.Bytes()...)
}

// Checkpoint writes a copy-checkpoint of the given committed state into the
// image (no-op if the image is disabled), returning the checkpoint id.
func (l *StableLog) Checkpoint(state map[storage.ItemID][]byte) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.img == nil {
		return 0
	}
	l.nextCkpt++
	l.img.BeginCheckpoint(l.nextCkpt)
	l.img.EndCheckpoint(l.nextCkpt, state)
	return l.nextCkpt
}

// ActiveTxs lists the transactions with shipped-but-undecided records.
// Crash reclamation scans it for transactions homed at a dead peer, whose
// fate is presumed abort.
func (l *StableLog) ActiveTxs() []lock.TxID {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]lock.TxID, 0, len(l.active))
	for tx := range l.active {
		out = append(out, tx)
	}
	return out
}

// ActiveRecords reports how many shipped records of tx await a decision.
func (l *StableLog) ActiveRecords(tx lock.TxID) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.active[tx])
}

// Size reports the total number of records ever appended.
func (l *StableLog) Size() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// NextLSN reports the LSN that the next appended record will receive.
func (l *StableLog) NextLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextLSN
}

// String summarizes the log for diagnostics.
func (l *StableLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return fmt.Sprintf("stablelog{records=%d, activeTxs=%d}", l.size, len(l.active))
}
