package core

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"adaptivecc/internal/buffer"
	"adaptivecc/internal/consistency"
	"adaptivecc/internal/lock"
	"adaptivecc/internal/obs"
	"adaptivecc/internal/sim"
	"adaptivecc/internal/storage"
	"adaptivecc/internal/wal"
)

// ErrTxNotActive is returned by operations on a transaction that has begun
// to commit or has finished.
var ErrTxNotActive = errors.New("core: transaction not active")

// txState is a local transaction's lifecycle state.
type txState uint8

const (
	txActive txState = iota
	txCommitting
	txCommitted
	txAborted
)

// Tx is a transaction executing at its home peer, and the one record of
// its client-side state; other goroutines reach it through Peer.txs. On
// any returned error the caller must Abort the transaction; operations
// after a failure are rejected.
type Tx struct {
	p  *Peer
	id lock.TxID

	// mu guards every field below. It is a leaf lock: never held across a
	// call into the lock manager, the buffer pool, the fabric or another
	// transaction.
	mu    sync.Mutex
	state txState
	// flushes counts the purge flushes in flight that carry this
	// transaction's records. flushed, on mu, is signalled as the count
	// falls; the first such flush allocates it, so a transaction that loses
	// no dirty page carries a nil pointer. flushFailed records a failed
	// flush: its records may never have reached their owner, so the
	// transaction cannot commit.
	flushFailed bool
	flushes     int32
	flushed     *sync.Cond
	spread      []string // owners this transaction has contacted, sorted
	// recs is the log cache (redo-at-server, §3.3): this transaction's
	// update records in append order, until commit or a dirty-page
	// eviction ships them.
	recs []wal.Record
	// replicatedTo lists the owners at which local-only locks of this
	// transaction were replicated (callback-blocked replies, purge
	// notices, deescalations); finish releases them there.
	replicatedTo []string
	writePerm    map[storage.ItemID]bool // objects with standing server EX permission; nil until the first grant
	// chainParent is the parent of the last item under which lockImplicit
	// took a full ancestor chain, and chainIntent the intention mode the
	// chain was taken in (NL before the first one).
	chainParent storage.ItemID
	chainIntent lock.Mode
}

// Begin starts a transaction at this peer.
func (p *Peer) Begin() *Tx {
	p.mu.Lock()
	p.nextTx++
	t := &Tx{p: p, id: lock.TxID{Site: p.name, Seq: p.nextTx}}
	p.txs[t.id] = t
	p.mu.Unlock()
	return t
}

// ID reports the transaction's global identity.
func (t *Tx) ID() lock.TxID { return t.id }

// active reports whether the transaction may still run operations.
func (t *Tx) active() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.state == txActive
}

// spreadTo records that the transaction contacted owner. It fails once the
// transaction is no longer active.
func (t *Tx) spreadTo(owner string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.state != txActive {
		return ErrTxNotActive
	}
	t.spread = addSorted(t.spread, owner)
	return nil
}

// addSorted inserts s into the sorted set set unless already present.
func addSorted(set []string, s string) []string {
	i, found := slices.BinarySearch(set, s)
	if found {
		return set
	}
	return slices.Insert(set, i, s)
}

// logUpdate appends one update record to the log cache.
func (t *Tx) logUpdate(obj storage.ItemID, before, after []byte) {
	rec := wal.Record{Tx: t.id, Object: obj, Before: before, After: append([]byte(nil), after...)}
	t.mu.Lock()
	t.recs = append(t.recs, rec)
	t.mu.Unlock()
	t.p.ctr.logRecords.Add(1)
}

// takeRecordsFor removes and returns the cached records of objects on
// page, in order, keeping the rest. Used when a dirty page is evicted
// before commit: if it takes any, they count as a flush in flight until
// the caller reports it with flushDone.
func (t *Tx) takeRecordsFor(page storage.ItemID) []wal.Record {
	t.mu.Lock()
	defer t.mu.Unlock()
	var taken []wal.Record
	kept := t.recs[:0]
	for _, r := range t.recs {
		if page.Contains(r.Object) {
			taken = append(taken, r)
		} else {
			kept = append(kept, r)
		}
	}
	clear(t.recs[len(kept):])
	t.recs = kept
	if len(taken) > 0 {
		if t.flushed == nil {
			t.flushed = sync.NewCond(&t.mu)
		}
		t.flushes++
	}
	return taken
}

// flushDone ends one flush of this transaction's records.
func (t *Tx) flushDone(failed bool) {
	t.mu.Lock()
	t.flushes--
	t.flushFailed = t.flushFailed || failed
	t.flushed.Broadcast()
	t.mu.Unlock()
}

// lockTarget maps an object to the item actually locked: under PS the
// system-wide granularity is the page.
func (t *Tx) lockTarget(obj storage.ItemID) storage.ItemID {
	return t.p.policy.LockTarget(obj)
}

// lockImplicit takes the local lock Read and Write imply on target. The
// ancestor chain is locked once per run of accesses under one parent: when
// the previous full chain was taken under the same parent in an intention
// mode covering the one this access needs, the ancestors are already held
// and only target itself is locked. The memo states a fact that stays true
// until finish — a transaction's local locks are released only there, and
// nothing weakens its own ancestor locks between its operations — so it is
// recorded after a successful Lock only, and a stronger intention (a write
// after reads on the page, IS→IX) takes the full chain again.
func (t *Tx) lockImplicit(target storage.ItemID, mode lock.Mode, sc obs.SpanContext) error {
	parent, _ := target.Parent()
	intent := lock.IntentionFor(mode)
	t.mu.Lock()
	skip := t.chainParent == parent && lock.Covers(t.chainIntent, intent)
	t.mu.Unlock()
	opt := lock.Options{Timeout: t.p.waitTimeout(), Span: sc, SkipAncestors: skip}
	if err := t.p.locks.Lock(t.id, target, mode, opt); err != nil {
		return err
	}
	if !skip {
		t.mu.Lock()
		t.chainParent, t.chainIntent = parent, intent
		t.mu.Unlock()
	}
	return nil
}

// Read returns the current value of an object. Cached available objects
// are read with no server interaction (callback locking keeps cached
// copies valid); otherwise the owner ships the containing page.
//
// The returned bytes are a read-only view of the value read — on a cache
// hit the cached slot itself, not a copy. They never change afterwards
// (storage.Page slots are immutable: a later write, callback or abort
// replaces or drops the slot, it does not rewrite it); copy before
// modifying.
func (t *Tx) Read(obj storage.ItemID) ([]byte, error) {
	if obj.Level != storage.LevelObject {
		return nil, fmt.Errorf("core: Read of non-object %v", obj)
	}
	if !t.active() {
		return nil, ErrTxNotActive
	}
	p := t.p
	p.ctr.objectReads.Add(1)
	var sc obs.SpanContext
	if p.obs.Active() {
		sc = p.obs.StartSpan(t.id.String(), obs.SpanContext{})
	}
	if p.obs.Active() {
		start := time.Now()
		defer func() {
			p.obs.EmitSpan(obs.EvClientOp, sc, obj.String(), time.Since(start), "", "read")
		}()
	}
	pageID := obj.PageID()
	owner, err := p.sys.ownerOf(obj)
	if err != nil {
		return nil, err
	}
	target := t.lockTarget(obj)

	// Local lock first (§4.1.1), so that a concurrent callback cannot
	// invalidate the object between the cache check and the read.
	if err := t.lockImplicit(target, lock.SH, sc); err != nil {
		return nil, err
	}

	if owner == p.name {
		if err := t.spreadTo(owner); err != nil {
			return nil, err
		}
		if _, err := p.call(owner, sc, readReq{Tx: t.id, Obj: target}); err != nil {
			return nil, err
		}
		return p.srvObjectBytes(obj, sc)
	}

	if data, ok := p.pool.ReadObject(pageID, obj.Slot); ok {
		p.ctr.localHits.Add(1)
		return data, nil
	}
	if err := t.spreadTo(owner); err != nil {
		return nil, err
	}

	if err := t.fetch(owner, target, obj.Slot, sc); err != nil {
		return nil, err
	}
	data, ok := p.pool.ReadObject(pageID, obj.Slot)
	if !ok {
		return nil, fmt.Errorf("core: object %v unavailable after fetch", obj)
	}
	return data, nil
}

// fetch asks owner to ship target — an object, or a whole page — and
// installs the reply in the client cache. slot names the object the
// transaction asked for, which no callback race may veto: it is SH-locked
// at the owner. A whole-page target has no such object.
func (t *Tx) fetch(owner string, target storage.ItemID, slot uint16, sc obs.SpanContext) error {
	if target.Level == storage.LevelPage {
		slot = storage.DummySlot
	}
	_, err := t.access(owner, sc, func() (request, any) {
		return request{page: target.PageID(), slot: slot, read: true}, readReq{Tx: t.id, Obj: target}
	})
	return err
}

// access runs one read or write request to owner: start, in the section of
// cs.mu that registers the request on its page's record, decides the
// record's claim and the request body; the reply is installed by
// applyReply and its evictions noticed. A failed request applies the zero
// reply: it ends the request's read and write, installs nothing.
func (t *Tx) access(owner string, sc obs.SpanContext, start func() (request, any)) (accessResp, error) {
	p := t.p
	p.cs.mu.Lock()
	rq, body := start()
	p.cs.startLocked(rq)
	p.cs.mu.Unlock()
	reply, err := p.call(owner, sc, body)
	ar, ok := reply.(accessResp)
	if err == nil && !ok {
		err = fmt.Errorf("core: bad %s reply %T", reqName(body), reply)
	}
	p.noticeEvictions(t.applyReply(rq, ar))
	return ar, err
}

// applyReply is the reply step of a read or write request, in one section
// of cs.mu. It installs what the reply ships — a page merged per the
// final-availability rules of §4.2.3 under the callback race vetoes, or
// one object into its page's frame (created empty if absent) — records
// the copy's install count and ends the read and the write rq registered.
// A write's adaptive decision is taken in the same section: the mirror is
// installed unless a deescalation overtook the reply. It returns the pages
// the install evicted, for noticeEvictions.
func (t *Tx) applyReply(rq request, wr accessResp) []victim {
	p := t.p
	p.cs.mu.Lock()
	defer p.cs.mu.Unlock()
	e := p.cs.recordLocked(rq.page)
	var evs []buffer.Eviction
	if wr.Page != nil {
		veto := e.veto
		if rq.slot != storage.DummySlot {
			veto = veto.Without(rq.slot)
		}
		evs = p.pool.Merge(rq.page, wr.Page, wr.Avail, veto)
	} else if wr.ObjData != nil {
		if !p.pool.Contains(rq.page) {
			evs = p.pool.Insert(rq.page, storage.NewPage(rq.page, p.cfg.ObjectsPerPage, p.cfg.ObjectSize), 0)
		}
		if avail, _ := p.pool.Avail(rq.page); !avail.Has(rq.slot) {
			_ = p.pool.InstallObject(rq.page, rq.slot, wr.ObjData)
			p.pool.SetAvail(rq.page, rq.slot, true)
		}
	}
	if wr.Install != 0 {
		e.install = wr.Install
	}
	if rq.read {
		if e.reads--; e.reads == 0 {
			e.veto = 0
		}
	}
	if rq.write {
		if wr.Adaptive && !e.deescalated {
			p.locks.SetAdaptive(t.id, rq.page, true)
		}
		if e.writes--; e.writes == 0 {
			e.deescalated = false
		}
	}
	p.cs.tidyLocked(rq.page, e)
	return p.cs.victimsLocked(evs)
}

// noticeEvictions turns buffer-pool evictions into purge notices: the
// owner must drop its copy-table entry, replicate any local locks still
// held on the page, and redo early-shipped log records for dirty objects
// (§3.3, §4.1.1). Each notice carries the install count taken when the page
// was evicted: a later re-fetch's count would make the owner drop the
// newer copy (the purge race).
func (p *Peer) noticeEvictions(evs []victim) {
	for _, ev := range evs {
		owner, err := p.sys.ownerOf(ev.ID)
		if err != nil {
			continue
		}
		var reps []lockReplica
		var recs []wal.Record
		var carriers []*Tx
		for _, info := range p.locks.LocksWithin(ev.ID) {
			if info.Tx.IsCallbackThread() {
				continue
			}
			// EX is capped at SH for the same reason as in callback-blocked
			// replies: a genuine server EX is retained by the supremum at
			// the server, while an in-flight write request must queue.
			reps = append(reps, lockReplica{Tx: info.Tx, Item: info.Item, Mode: capReplicaMode(info.Mode)})
			p.noteReplicated(info.Tx, owner)
			// A transaction's first lock on the page takes all its records
			// there; its further locks find none left.
			if ev.Dirty == 0 {
				continue
			}
			if t := p.liveTx(info.Tx); t != nil {
				if taken := t.takeRecordsFor(ev.ID); len(taken) > 0 {
					recs = append(recs, taken...)
					carriers = append(carriers, t)
				}
			}
		}
		n := purgeNotice{Page: ev.ID, Install: ev.install, Locks: reps, Records: recs}
		if len(recs) == 0 {
			// A record-less purge is ride-only: it waits in purgeQ for the
			// next request to this owner, since nobody blocks on it.
			p.cs.mu.Lock()
			p.cs.purgeQ[owner] = append(p.cs.purgeQ[owner], n)
			p.cs.mu.Unlock()
			continue
		}
		// Early log shipping: the client no longer holds the bytes, so the
		// records go now, in a flush the owner answers without waiting. In
		// purgeQ a lock-waiting request could carry them, and wait for a
		// transaction that is waiting for them (beginCommit, Abort).
		failed := p.flushPurges(owner, n) != nil
		for _, t := range carriers {
			t.flushDone(failed)
		}
	}
}

// Write updates an object. Write permission requires an EX lock at the
// owner and callbacks to all other caching clients — unless this
// transaction already holds the permission (a standing page EX under PS,
// an adaptive page lock under PS-AA, or a previous write of the same
// object).
func (t *Tx) Write(obj storage.ItemID, data []byte) error {
	if obj.Level != storage.LevelObject {
		return fmt.Errorf("core: Write of non-object %v", obj)
	}
	if !t.active() {
		return ErrTxNotActive
	}
	p := t.p
	p.ctr.objectWrites.Add(1)
	var sc obs.SpanContext
	if p.obs.Active() {
		sc = p.obs.StartSpan(t.id.String(), obs.SpanContext{})
	}
	if p.obs.Active() {
		start := time.Now()
		defer func() {
			p.obs.EmitSpan(obs.EvClientOp, sc, obj.String(), time.Since(start), "", "write")
		}()
	}
	pageID := obj.PageID()
	owner, err := p.sys.ownerOf(obj)
	if err != nil {
		return err
	}
	target := t.lockTarget(obj)
	if target.Level == storage.LevelObject && owner != p.name &&
		p.policy.WantsPageGrain(pageID) && t.pageGrainSafe(pageID) {
		// The advisor claims the paper's §7 per-hot-spot grain choice:
		// lock the whole page up front. Advisory only — pageGrainSafe
		// vetoes it whenever a partially available cached copy or another
		// local transaction's locks could make the wider grain unsound,
		// and requestWritePermission re-checks availability at ship time.
		target = pageID
	}

	if err := t.lockImplicit(target, lock.EX, sc); err != nil {
		return err
	}

	if owner == p.name {
		if err := t.spreadTo(owner); err != nil {
			return err
		}
		if _, err := p.call(owner, sc, writeReq{Tx: t.id, Obj: target, HavePage: true, HaveObj: true}); err != nil {
			return err
		}
		before, err := p.srvObjectBytes(obj, sc)
		if err != nil {
			return err
		}
		t.logUpdate(obj, before, data)
		p.installBytes(obj, data, false, sc)
		return nil
	}

	if err := t.spreadTo(owner); err != nil {
		return err
	}
	// The before-image is the slot's old slice itself: the write replaces
	// it, never rewrites it.
	var before []byte
	ok := false
	if t.hasWritePermission(obj, pageID) {
		before, ok = p.writeCached(pageID, obj.Slot, data)
	}
	if ok {
		p.ctr.escalationSaved.Add(1)
	} else {
		if err := t.requestWritePermission(obj, pageID, target, owner, sc); err != nil {
			return err
		}
		if before, ok = p.writeCached(pageID, obj.Slot, data); !ok {
			return fmt.Errorf("core: object %v not cached at write time", obj)
		}
	}
	t.logUpdate(obj, before, data)
	p.policy.Note(consistency.EvLocalWrite, pageID)
	return nil
}

// writeCached overwrites a cached, available object in one section of
// cs.mu and returns its previous bytes; ok is false if it is not cached.
func (p *Peer) writeCached(page storage.ItemID, slot uint16, data []byte) (before []byte, ok bool) {
	p.cs.mu.Lock()
	defer p.cs.mu.Unlock()
	if before, ok = p.pool.ReadObject(page, slot); ok {
		ok = p.pool.WriteObject(page, slot, data) == nil
	}
	return before, ok
}

// cachedAvail reports the availability mask of a cached page.
func (p *Peer) cachedAvail(page storage.ItemID) (storage.AvailMask, bool) {
	p.cs.mu.Lock()
	defer p.cs.mu.Unlock()
	return p.pool.Avail(page)
}

// pageGrainSafe reports whether an advised page-grain write lock is sound
// right now: the cached copy (if any) must be fully available — the
// whole-page permission would otherwise mark never-shipped slots available
// — and no other local transaction may hold locks inside the page, which
// the wider lock would wrongly cover.
func (t *Tx) pageGrainSafe(pageID storage.ItemID) bool {
	p := t.p
	if avail, ok := p.cachedAvail(pageID); ok && !avail.FullFor(p.cfg.ObjectsPerPage) {
		return false
	}
	return !p.locks.OthersHoldWithin(pageID, t.id, lock.TxID.IsCallbackThread)
}

// hasWritePermission reports a standing write permission: an adaptive (or
// page-EX) lock mirror on the page, or a previous grant for this object.
func (t *Tx) hasWritePermission(obj, pageID storage.ItemID) bool {
	if t.p.locks.IsAdaptive(t.id, pageID) {
		return true
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.writePerm[obj]
}

// requestWritePermission performs the server round trip of Fig. 3, started
// by writeStart.
func (t *Tx) requestWritePermission(obj, pageID, target storage.ItemID, owner string, sc obs.SpanContext) error {
	wr, err := t.access(owner, sc, func() (request, any) { return t.writeStart(obj, pageID, target) })
	if err != nil {
		return err
	}
	if !wr.Adaptive && target.Level == storage.LevelObject {
		t.mu.Lock()
		if t.writePerm == nil {
			t.writePerm = make(map[storage.ItemID]bool)
		}
		t.writePerm[obj] = true
		t.mu.Unlock()
	}
	return nil
}

// writeStart is the start step of a write request, run in the section of
// cs.mu that registers it: it decides what the request claims to hold —
// the page and the object. A request that lacks either may be answered
// with bytes, so it registers as a read: a callback reaching the client
// while the page is absent then vetoes instead of acking "invalidated",
// which would drop the copy the owner records when it ships them.
func (t *Tx) writeStart(obj, pageID, target storage.ItemID) (request, any) {
	p := t.p
	avail, havePage := p.pool.Avail(pageID)
	if havePage && target.Level == storage.LevelPage && !avail.FullFor(p.cfg.ObjectsPerPage) {
		// A page-grain permission covers the whole page: claiming a
		// partially available copy would make slots available over bytes
		// that were never shipped (or were undone by an abort). Re-fetch
		// instead.
		havePage = false
	}
	if p.policy.TransferUnit() == consistency.UnitObject {
		havePage = true // OS never ships pages; the object travels instead
	}
	haveObj := avail.Has(obj.Slot)
	// The written object is EX-locked at the owner once the reply comes, so
	// it is the request's slot whatever the grain: no race vetoes it, and
	// under a page-grain permission it is available after the install.
	return request{page: pageID, slot: obj.Slot, read: !havePage || !haveObj, write: true},
		writeReq{Tx: t.id, Obj: target, HavePage: havePage, HaveObj: haveObj}
}

// LockItem acquires an explicit hierarchical lock (paper §4.3): files and
// volumes always propagate to the owner; SH/IS page locks stay local when
// the page is fully cached (hierarchical callbacks optimization); IX/SIX
// page locks trigger dummy-object callbacks at the owner.
func (t *Tx) LockItem(item storage.ItemID, mode lock.Mode) error {
	if !t.active() {
		return ErrTxNotActive
	}
	if item.Level == storage.LevelObject {
		return fmt.Errorf("core: object locks are implicit; use Read/Write")
	}
	p := t.p
	var sc obs.SpanContext
	if p.obs.Active() {
		sc = p.obs.StartSpan(t.id.String(), obs.SpanContext{})
		p.obs.EmitSpan(obs.EvLockRequest, sc.Under(), item.String(), 0, "", mode.String())
		start := time.Now()
		defer func() {
			p.obs.EmitSpan(obs.EvClientOp, sc, item.String(), time.Since(start), "", "lock "+mode.String())
		}()
	}
	if err := p.locks.Lock(t.id, item, mode, lock.Options{Timeout: p.waitTimeout(), Span: sc}); err != nil {
		return err
	}
	owner, err := p.sys.ownerOf(item)
	if err != nil {
		return err
	}
	local := owner == p.name

	if item.Level == storage.LevelPage && !local {
		switch mode {
		case lock.IS, lock.SH:
			if avail, _ := p.cachedAvail(item); avail.FullFor(p.cfg.ObjectsPerPage) && !p.cfg.PropagateSHPage {
				// Local-only (§4.3.2): the owner is not contacted, so the
				// transaction does not spread to it.
				return nil
			}
			if mode == lock.IS {
				break // propagate as a plain lock request below
			}
			if err := t.spreadTo(owner); err != nil {
				return err
			}
			// Propagated SH page lock: served as a whole-page read so the
			// page becomes fully cached here.
			return t.fetch(owner, item, storage.DummySlot, sc)
		}
	}

	if err := t.spreadTo(owner); err != nil {
		return err
	}
	if _, err := p.call(owner, sc, lockReq{Tx: t.id, Item: item, Mode: mode}); err != nil {
		return err
	}
	if !local && item.Level == storage.LevelPage && mode == lock.EX {
		// An explicit EX page lock is a standing write permission for the
		// whole page (the owner has called the page back everywhere);
		// mirror it like an adaptive lock so object writes skip the owner.
		p.locks.SetAdaptive(t.id, item, true)
	}
	return nil
}

// Commit finishes the transaction: log records are shipped to each owner
// holding updates (2PC phase one, redo-at-server), then every owner the
// transaction spread to commits and releases its locks (phase two),
// followed by the local locks.
func (t *Tx) Commit() error {
	p := t.p
	recs, err := t.beginCommit()
	if err != nil {
		return err
	}
	// The commit span is a trace root: the critical-path analyzer treats a
	// trace as a commit iff it contains an EvCommit span, and attributes the
	// root's exclusive time to the commit itself.
	var sc obs.SpanContext
	if p.obs.Active() {
		sc = p.obs.StartSpan(t.id.String(), obs.SpanContext{})
		start := time.Now()
		defer func() {
			d := time.Since(start)
			p.obs.Observe(obs.HistCommit, d)
			p.obs.EmitSpan(obs.EvCommit, sc, t.id.String(), d, "", "")
		}()
	}
	// One pass decides the shape of the commit. The coordinator is the
	// shard owning the first-written item: deterministic from the
	// transaction's own history, so every participant and any recovering
	// survivor names the same shard.
	coord := ""
	multi, unplaced := false, false
	for _, r := range recs {
		owner, err := p.sys.ownerOf(r.Object)
		if err != nil {
			unplaced = true
			continue
		}
		if coord == "" {
			coord = owner
		} else if owner != coord {
			multi = true
		}
	}
	if !multi {
		// Single-owner commit — every single-server fleet, and most
		// transactions even when sharded: the owner's commit record alone
		// decides the transaction, exactly as before sharding. No prepare
		// marker, no second phase, and no per-commit grouping allocation.
		if coord != "" {
			rs := recs
			if unplaced {
				rs = recs[:0:0]
				for _, r := range recs {
					if _, err := p.sys.ownerOf(r.Object); err == nil {
						rs = append(rs, r)
					}
				}
			}
			if _, err := p.call(coord, sc, prepareReq{Tx: t.id, Records: rs}); err != nil {
				t.rollback(recs, sc)
				return fmt.Errorf("core: prepare at %s: %w", coord, err)
			}
		}
		t.finish(true, recs, sc)
		p.stats.Inc(sim.CtrCommits)
		return nil
	}
	byOwner := make(map[string][]wal.Record, 2)
	for _, r := range recs {
		if owner, err := p.sys.ownerOf(r.Object); err == nil {
			byOwner[owner] = append(byOwner[owner], r)
		}
	}
	for owner, rs := range byOwner {
		if _, err := p.call(owner, sc, prepareReq{Tx: t.id, Records: rs, Coord: coord}); err != nil {
			t.rollback(recs, sc)
			return fmt.Errorf("core: prepare at %s: %w", owner, err)
		}
	}
	if gate := p.cfg.TwoPCGate; gate != nil {
		gate(p.name, t.id)
	}
	// The commit point: force the decision at the coordinator. Until it
	// is recorded, every participant's prepare presumes abort; after
	// it, the finish fan-out below is pure bookkeeping — a participant
	// that misses it recovers the fate with a status query.
	if _, err := p.call(coord, sc, decideReq{Tx: t.id, Commit: true}); err != nil {
		t.rollback(recs, sc)
		return fmt.Errorf("core: decide at %s: %w", coord, err)
	}
	t.finish(true, recs, sc)
	p.stats.Inc(sim.CtrCommits)
	return nil
}

// beginCommit moves an active transaction to committing and takes its
// cached log records for shipping, once no flush carries its early ones,
// so that no owner redoes those after the transaction's finish. It fails
// if such a flush failed: the owner may lack those records.
func (t *Tx) beginCommit() ([]wal.Record, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for t.flushes > 0 {
		t.flushed.Wait()
	}
	if t.state != txActive {
		return nil, ErrTxNotActive
	}
	if t.flushFailed {
		return nil, errors.New("core: a purge flush carrying this transaction's records failed")
	}
	t.state = txCommitting
	recs := t.recs
	t.recs = nil
	return recs, nil
}

// Abort rolls the transaction back (§3.3), once no flush carries its early
// records; see rollback.
func (t *Tx) Abort() error {
	t.mu.Lock()
	for t.flushes > 0 {
		t.flushed.Wait()
	}
	if t.state == txCommitted || t.state == txAborted {
		t.mu.Unlock()
		return ErrTxNotActive
	}
	recs := t.recs
	t.recs = nil
	t.mu.Unlock()
	t.rollback(recs, obs.SpanContext{})
	t.p.stats.Inc(sim.CtrAborts)
	return nil
}

// rollback undoes the updates recs hold bytes for here, then has every
// owner abort the transaction: a locally owned record is undone in the
// server buffer, in reverse order so that an object written twice ends at
// its first before-image, and a remotely owned one is marked unavailable
// in the client cache — its owner undoes any shipped copy, and the stale
// local bytes must not be served to a later transaction. Both happen
// before the locks go.
func (t *Tx) rollback(recs []wal.Record, sc obs.SpanContext) {
	p := t.p
	for i := len(recs) - 1; i >= 0; i-- {
		r := recs[i]
		owner, err := p.sys.ownerOf(r.Object)
		if err != nil {
			continue
		}
		if owner == p.name {
			p.undoOne(r)
			continue
		}
		pageID := r.Object.PageID()
		p.cs.mu.Lock()
		p.pool.SetAvail(pageID, r.Object.Slot, false)
		p.pool.SetDirtySlot(pageID, r.Object.Slot, false)
		p.cs.mu.Unlock()
	}
	t.finish(false, nil, sc)
}

// finish runs 2PC phase two (or abort) at every owner and releases local
// state.
func (t *Tx) finish(commit bool, recs []wal.Record, sc obs.SpanContext) {
	p := t.p
	t.mu.Lock()
	spread := t.spread
	t.mu.Unlock()
	for _, owner := range spread {
		// An unreachable owner either crashed (its whole lock table died
		// with it, and crash reclamation presumes this transaction aborted)
		// or exhausted the retries against a lossy link, in which case its
		// locks clear when it eventually processes a retried finish or
		// reclaims our crash.
		_, _ = p.call(owner, sc, finishReq{Tx: t.id, Commit: commit})
	}
	if commit {
		p.cs.mu.Lock()
		for _, r := range recs {
			if owner, err := p.sys.ownerOf(r.Object); err == nil && owner != p.name {
				p.pool.SetDirtySlot(r.Object.PageID(), r.Object.Slot, false)
			}
		}
		p.cs.mu.Unlock()
	}
	p.locks.ReleaseAll(t.id)

	// No replication of this transaction's locks can start after the
	// ReleaseAll above, but one that read the lock table earlier may still
	// be noting itself. Finishing and draining replicatedTo in one critical
	// section splits those cleanly: a replication noted before is released
	// below, one noted after sends its own release (noteReplicated), and no
	// entry outlives the transaction. Late replicas meet the tombstone.
	final := txAborted
	if commit {
		final = txCommitted
	}
	t.mu.Lock()
	t.state = final
	replicated := t.replicatedTo
	t.replicatedTo = nil
	t.mu.Unlock()
	p.mu.Lock()
	delete(p.txs, t.id)
	p.mu.Unlock()
	// The finish round above already released the owners spread to; the
	// rest are released as best effort, like that round.
	for _, owner := range replicated {
		if _, done := slices.BinarySearch(spread, owner); !done {
			_, _ = p.call(owner, sc, releaseReq{Tx: t.id})
		}
	}
}

// clientDeescalate handles a deescalation request from an owner (§4.1.2):
// every local adaptive lock on the page is torn down and the EX object
// locks of local transactions on the page's objects are reported for
// replication at the server. The teardown and the pre-deescalation mark
// share one section of cs.mu with a write reply's adaptive decision, so
// either the reply installs the mirror first and it is torn down here, or
// this request overtakes the reply and the mark stops the install.
func (p *Peer) clientDeescalate(from string, rq deescReq) (any, error) {
	page := rq.Page
	p.policy.Note(consistency.EvDeescalated, page)
	// Clear the adaptive bits first: object EX locks acquired after this
	// point route their writes through the server again, and EX locks
	// acquired before it are included in the collection below.
	p.cs.mu.Lock()
	if e := p.cs.pages[page]; e != nil && e.writes > 0 {
		e.deescalated = true
	}
	for _, t := range p.locks.AdaptiveHolders(page) {
		p.locks.SetAdaptive(t, page, false)
	}
	p.cs.mu.Unlock()
	var reps []lockReplica
	for _, info := range p.locks.LocksWithin(page) {
		if info.Tx.IsCallbackThread() || info.Item.Level != storage.LevelObject {
			continue
		}
		if info.Mode == lock.EX || info.Mode == lock.SIX {
			reps = append(reps, lockReplica{Tx: info.Tx, Item: info.Item, Mode: info.Mode})
			p.noteReplicated(info.Tx, from)
		}
	}
	return deescResp{Locks: reps}, nil
}
