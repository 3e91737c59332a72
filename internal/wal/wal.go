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
	"sync/atomic"
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
// until the transaction's fate is decided. Every force of the log disk
// goes through its one group committer.
type StableLog struct {
	disk *storage.Disk
	gf   groupForcer

	mu       sync.Mutex
	nextLSN  uint64
	active   map[lock.TxID][]Record // shipped but not yet committed/aborted
	size     int
	img      *LogImage // serialized image of the log disk; nil unless enabled
	nextCkpt uint64

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

// groupForcer is a windowless group committer. A force that finds no disk
// write in progress writes at once. Forces that arrive during a write form
// the next batch: its first member waits for that write to end, then
// issues one write on behalf of everyone who joined by then. Nothing waits
// on a timer, so a lone force costs exactly one write, and a queued force
// waits only for a write already on the FIFO log disk, which it would have
// queued behind anyway. Correctness leans on the StableLog discipline that
// records (and the log image) are appended under l.mu *before* the force
// is requested — so a write that begins after a force's call covers that
// force's records.
type groupForcer struct {
	forces, joins *atomic.Int64 // the disk's wal_group_* counters

	mu       sync.Mutex
	writing  bool             // a disk write is in progress
	next     *forceBatch      // forces waiting to share the next write; nil when none
	observer func(cohort int) // nil unless SetForceObserver was called
}

// forceBatch is the set of forces that share the write after the one in
// progress.
type forceBatch struct {
	cohort int           // guarded by groupForcer.mu until the batch's write begins
	turn   chan struct{} // closed when the write in progress ends: the batch writes next
	done   chan struct{} // closed after the batch's write
}

// force satisfies one log force request: by writing at once, by leading
// the next batch, or by joining it.
func (g *groupForcer) force(disk *storage.Disk) ForceInfo {
	g.mu.Lock()
	if !g.writing {
		g.writing = true
		g.mu.Unlock()
		return g.write(disk, 1)
	}
	if b := g.next; b != nil {
		b.cohort++
		g.mu.Unlock()
		<-b.done
		g.joins.Add(1)
		return ForceInfo{Cohort: b.cohort}
	}
	b := &forceBatch{cohort: 1, turn: make(chan struct{}), done: make(chan struct{})}
	g.next = b
	g.mu.Unlock()
	<-b.turn
	g.mu.Lock()
	g.next = nil // later forces form a new batch behind this write
	cohort := b.cohort
	g.mu.Unlock()
	fi := g.write(disk, cohort)
	close(b.done)
	return fi
}

// write issues one disk write covering cohort forces, then hands the disk
// to the waiting batch, if there is one.
func (g *groupForcer) write(disk *storage.Disk, cohort int) ForceInfo {
	disk.Write()
	g.forces.Add(1) // before the handoff: the count runs in write order
	g.mu.Lock()
	if g.next != nil {
		close(g.next.turn) // writing stays set: the batch's leader holds it now
	} else {
		g.writing = false
	}
	observer := g.observer
	g.mu.Unlock()
	if observer != nil {
		observer(cohort)
	}
	return ForceInfo{Cohort: cohort, Led: true}
}

// SetForceObserver registers a callback invoked after each log-disk write
// with the cohort of forces it covered — the WAL batch-size histogram
// feed. fn runs on the writing goroutine, so it must be cheap and
// thread-safe. nil clears it.
func (l *StableLog) SetForceObserver(fn func(cohort int)) {
	l.gf.mu.Lock()
	l.gf.observer = fn
	l.gf.mu.Unlock()
}

// Force flushes the log to its disk through the group committer. Every
// log force runs it, outside l.mu; a server also runs it as the shutdown
// barrier after draining in-flight work, so everything appended before
// the call is stable.
func (l *StableLog) Force() ForceInfo {
	if l.disk == nil {
		return ForceInfo{Cohort: 1, Led: true}
	}
	return l.gf.force(l.disk)
}

// NewStableLog returns an empty stable log writing to disk.
func NewStableLog(disk *storage.Disk) *StableLog {
	l := &StableLog{
		disk:     disk,
		nextLSN:  1,
		active:   make(map[lock.TxID][]Record),
		prepared: make(map[lock.TxID]PreparedTx),
		decided:  bounded.New[lock.TxID, Decision](decidedSize),
	}
	if disk != nil {
		l.gf.forces = disk.Stats().Counter(sim.CtrWALGroupForces)
		l.gf.joins = disk.Stats().Counter(sim.CtrWALGroupJoins)
	}
	return l
}

// Append assigns LSNs to records, retains them for possible undo, and
// forces the log once for the batch.
func (l *StableLog) Append(recs []Record) []Record {
	if len(recs) == 0 {
		return nil
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
	l.mu.Unlock()
	l.Force()
	return out
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
	l.mu.Unlock()
	return l.Force()
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
	l.mu.Unlock()
	return l.Force()
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
	l.mu.Unlock()
	l.Force()
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
	l.mu.Unlock()
	l.Force()
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
