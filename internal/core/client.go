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
	mu     sync.Mutex
	state  txState
	spread []string // owners this transaction has contacted, sorted
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
// before commit.
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
	return taken
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
	p := t.p
	pageID := target.PageID()
	whole := target.Level == storage.LevelPage
	p.cs.beginRead(pageID)
	body, err := p.call(owner, sc, readReq{Tx: t.id, Obj: target, WholePage: whole})
	rr, ok := body.(readResp)
	if err == nil && !ok {
		err = fmt.Errorf("core: bad read reply %T", body)
	}
	if err != nil {
		p.cs.abandonRead(pageID)
		return err
	}
	if rr.ObjData != nil {
		t.applyObjectReply(pageID, slot, rr.ObjData, rr.Install)
		return nil
	}
	if whole {
		slot = storage.DummySlot
	}
	t.applyPageReply(pageID, rr.Page, rr.Avail, rr.Install, slot)
	return nil
}

// applyObjectReply installs a single shipped object (OS protocol) into the
// client cache, creating an empty frame for its page if needed. The
// requested object cannot be vetoed by a callback race (it is SH-locked at
// the server), but race entries for it are consumed.
func (t *Tx) applyObjectReply(pageID storage.ItemID, slot uint16, data []byte, install uint64) {
	p := t.p
	p.cs.mu.Lock()
	veto := p.cs.takeRacesLocked(pageID)
	veto = veto.Without(slot)
	// Re-register the other vetoes: only this slot's fate is decided here.
	for s := 0; s < p.cfg.ObjectsPerPage; s++ {
		if veto.Has(uint16(s)) {
			p.cs.registerRaceLocked(pageID, uint16(s))
		}
	}
	if veto.Has(storage.DummySlot) {
		p.cs.registerRaceLocked(pageID, storage.DummySlot)
	}
	var evs []buffer.Eviction
	if !p.pool.Contains(pageID) {
		empty := storage.NewPage(pageID, p.cfg.ObjectsPerPage, p.cfg.ObjectSize)
		evs = p.pool.Insert(pageID, empty, 0)
	}
	_ = p.pool.InstallObject(pageID, slot, data)
	p.pool.SetAvail(pageID, slot, true)
	p.cs.setInstallLocked(pageID, install)
	p.cs.endReadLocked(pageID)
	p.cs.mu.Unlock()
	p.noticeEvictions(evs)
}

// applyPageReply merges an incoming page copy into the client cache per
// the final-availability rules of §4.2.3, consuming callback race entries
// and generating purge notices for any evicted pages.
func (t *Tx) applyPageReply(pageID storage.ItemID, page *storage.Page, avail storage.AvailMask, install uint64, reqSlot uint16) {
	p := t.p
	p.cs.mu.Lock()
	veto := p.cs.takeRacesLocked(pageID)
	if reqSlot != storage.DummySlot {
		// The requested object is SH-locked at the server by this
		// transaction before the rule is applied, so it is always valid.
		veto = veto.Without(reqSlot)
	}
	var evs []buffer.Eviction
	if page != nil {
		evs = p.pool.Merge(pageID, page, avail, veto)
		p.cs.setInstallLocked(pageID, install)
	}
	p.cs.endReadLocked(pageID)
	p.cs.mu.Unlock()
	p.noticeEvictions(evs)
}

// noticeEvictions turns buffer-pool evictions into purge notices: the
// owner must drop its copy-table entry, replicate any local locks still
// held on the page, and redo early-shipped log records for dirty objects
// (§3.3, §4.1.1).
func (p *Peer) noticeEvictions(evs []buffer.Eviction) {
	for _, ev := range evs {
		owner, err := p.sys.ownerOf(ev.ID)
		if err != nil {
			continue
		}
		p.cs.mu.Lock()
		install := p.cs.takeInstallLocked(ev.ID)
		p.cs.mu.Unlock()

		var reps []lockReplica
		var recs []wal.Record
		for _, info := range p.locks.LocksWithin(ev.ID) {
			if isCallbackThread(info.Tx) {
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
				recs = append(recs, t.takeRecordsFor(ev.ID)...)
			}
		}
		p.cs.queuePurge(owner, purgeNotice{Page: ev.ID, Install: install, Locks: reps, Records: recs})
		if len(recs) > 0 {
			// Early log shipping: the owner should redo promptly since the
			// client no longer holds the bytes.
			p.flushPurges(owner)
		}
		// A record-less purge is ride-only: it waits in purgeQ for the next
		// message to this owner, since nobody blocks on it.
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
	objCached := false
	if avail, ok := p.pool.Avail(pageID); ok {
		objCached = avail.Has(obj.Slot)
	}
	if t.hasWritePermission(obj, pageID) && objCached {
		p.ctr.escalationSaved.Add(1)
	} else if err := t.requestWritePermission(obj, pageID, target, owner, sc); err != nil {
		return err
	}

	// Perform the update in the local cache and log it. The before-image
	// is the slot's old slice itself: WriteObject replaces it, never
	// rewrites it.
	before, ok := p.pool.ReadObject(pageID, obj.Slot)
	if !ok {
		return fmt.Errorf("core: object %v not cached at write time", obj)
	}
	if err := p.pool.WriteObject(pageID, obj.Slot, data); err != nil {
		return err
	}
	t.logUpdate(obj, before, data)
	p.policy.Note(consistency.EvLocalWrite, pageID)
	return nil
}

// pageGrainSafe reports whether an advised page-grain write lock is sound
// right now: the cached copy (if any) must be fully available — the
// whole-page permission would otherwise mark never-shipped slots available
// — and no other local transaction may hold locks inside the page, which
// the wider lock would wrongly cover.
func (t *Tx) pageGrainSafe(pageID storage.ItemID) bool {
	p := t.p
	if avail, ok := p.pool.Avail(pageID); ok && !avail.FullFor(p.cfg.ObjectsPerPage) {
		return false
	}
	return !p.locks.OthersHoldWithin(pageID, t.id, isCallbackThread)
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

// requestWritePermission performs the server round trip of Fig. 3.
func (t *Tx) requestWritePermission(obj, pageID, target storage.ItemID, owner string, sc obs.SpanContext) error {
	p := t.p
	havePage := p.pool.Contains(pageID)
	if havePage && target.Level == storage.LevelPage {
		// A page-grain permission covers the whole page, and the fix-up
		// below marks the written slot available: claiming a partially
		// available copy would set that bit over bytes that were never
		// shipped (or were undone by an abort). Re-fetch instead.
		if avail, ok := p.pool.Avail(pageID); !ok || !avail.FullFor(p.cfg.ObjectsPerPage) {
			havePage = false
		}
	}
	if p.policy.TransferUnit() == consistency.UnitObject {
		havePage = true // OS never ships pages; the object travels instead
	}
	haveObj := false
	if avail, ok := p.pool.Avail(pageID); ok {
		haveObj = avail.Has(obj.Slot)
	}

	p.cs.beginWrite(pageID)
	if !havePage {
		p.cs.beginRead(pageID) // the reply will carry the page
	}
	body, err := p.call(owner, sc, writeReq{Tx: t.id, Obj: target, HavePage: havePage, HaveObj: haveObj})
	p.cs.endWrite(pageID)
	wr, ok := body.(writeResp)
	if err == nil && !ok {
		err = fmt.Errorf("core: bad write reply %T", body)
	}
	if err != nil {
		if !havePage {
			p.cs.abandonRead(pageID)
		}
		return err
	}

	if wr.Page != nil {
		reqSlot := obj.Slot
		if target.Level == storage.LevelPage {
			reqSlot = storage.DummySlot
		}
		t.applyPageReply(pageID, wr.Page, wr.Avail, wr.Install, reqSlot)
	} else if !havePage {
		p.cs.abandonRead(pageID)
	}
	if wr.ObjData != nil {
		p.cs.mu.Lock()
		if !p.pool.Contains(pageID) {
			empty := storage.NewPage(pageID, p.cfg.ObjectsPerPage, p.cfg.ObjectSize)
			evs := p.pool.Insert(pageID, empty, 0)
			p.cs.mu.Unlock()
			p.noticeEvictions(evs)
			p.cs.mu.Lock()
		}
		if avail, ok := p.pool.Avail(pageID); ok && !avail.Has(obj.Slot) {
			_ = p.pool.InstallObject(pageID, obj.Slot, wr.ObjData)
			p.pool.SetAvail(pageID, obj.Slot, true)
		}
		if wr.Install != 0 {
			p.cs.setInstallLocked(pageID, wr.Install)
		}
		p.cs.mu.Unlock()
	}

	if wr.Adaptive {
		if !p.cs.consumePreDeescalated(pageID) {
			p.locks.SetAdaptive(t.id, pageID, true)
		}
	} else if target.Level == storage.LevelObject {
		t.mu.Lock()
		if t.writePerm == nil {
			t.writePerm = make(map[storage.ItemID]bool)
		}
		t.writePerm[obj] = true
		t.mu.Unlock()
	}

	// Under PS the write permission covers the whole page; make sure the
	// requested object is addressable even if the page copy predates it.
	if target.Level == storage.LevelPage {
		if avail, ok := p.pool.Avail(pageID); ok && !avail.Has(obj.Slot) {
			p.pool.SetAvail(pageID, obj.Slot, true)
		}
	}
	return nil
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
			fully := false
			if avail, ok := p.pool.Avail(item); ok {
				fully = avail.FullFor(p.cfg.ObjectsPerPage)
			}
			if fully && !p.cfg.PropagateSHPage {
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
// cached log records for shipping.
func (t *Tx) beginCommit() ([]wal.Record, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.state != txActive {
		return nil, ErrTxNotActive
	}
	t.state = txCommitting
	recs := t.recs
	t.recs = nil
	return recs, nil
}

// Abort rolls the transaction back (§3.3); see rollback.
func (t *Tx) Abort() error {
	t.mu.Lock()
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
		for _, r := range recs {
			if owner, err := p.sys.ownerOf(r.Object); err == nil && owner != p.name {
				p.pool.SetDirtySlot(r.Object.PageID(), r.Object.Slot, false)
			}
		}
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
	// The finish round above already released the owners spread to.
	for _, owner := range replicated {
		if _, done := slices.BinarySearch(spread, owner); !done {
			p.sendRelease(t.id, owner, sc)
		}
	}
}

// clientDeescalate handles a deescalation request from an owner (§4.1.2):
// every local adaptive lock on the page is torn down and the EX object
// locks of local transactions on the page's objects are reported for
// replication at the server. The pre-deescalation flag handles the race
// where this request overtakes the write reply that would have installed
// the adaptive lock.
func (p *Peer) clientDeescalate(from string, rq deescReq) (any, error) {
	page := rq.Page
	p.policy.Note(consistency.EvDeescalated, page)
	if p.cs.hasPendingWrite(page) {
		p.cs.markPreDeescalated(page)
	}
	// Clear the adaptive bits first: object EX locks acquired after this
	// point route their writes through the server again, and EX locks
	// acquired before it are included in the collection below.
	holders := p.locks.AdaptiveHolders(page)
	for _, t := range holders {
		p.locks.SetAdaptive(t, page, false)
	}
	var reps []lockReplica
	for _, info := range p.locks.LocksWithin(page) {
		if isCallbackThread(info.Tx) || info.Item.Level != storage.LevelObject {
			continue
		}
		if info.Mode == lock.EX || info.Mode == lock.SIX {
			reps = append(reps, lockReplica{Tx: info.Tx, Item: info.Item, Mode: info.Mode})
			p.noteReplicated(info.Tx, from)
		}
	}
	return deescResp{Locks: reps}, nil
}
