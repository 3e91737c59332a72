package core

import (
	"fmt"
	"time"

	"adaptivecc/internal/buffer"
	"adaptivecc/internal/consistency"
	"adaptivecc/internal/lock"
	"adaptivecc/internal/obs"
	"adaptivecc/internal/placement"
	"adaptivecc/internal/sim"
	"adaptivecc/internal/storage"
	"adaptivecc/internal/wal"
)

// serveRequest dispatches one incoming request. It runs in the receiving
// thread's goroutine, or in the caller's when call is asked to reach this
// peer itself (from == p.name). sc is the serve span for remote requests,
// or the caller's span for local ones; server-side work (lock waits,
// callback rounds, disk reads, WAL forces) is traced under it.
func (p *Peer) serveRequest(from string, sc obs.SpanContext, body any) (any, error) {
	switch rq := body.(type) {
	case readReq:
		return p.srvRead(from, sc, rq)
	case writeReq:
		return p.srvWrite(from, sc, rq)
	case lockReq:
		return p.srvLock(from, sc, rq)
	case prepareReq:
		return p.srvPrepare(sc, rq)
	case decideReq:
		return p.srvDecide(rq)
	case statusReq:
		return p.srvStatus(rq)
	case finishReq:
		return p.srvFinish(rq)
	case releaseReq:
		return p.srvRelease(rq)
	case deescReq:
		return p.clientDeescalate(from, rq)
	case nil:
		return nil, nil // a purge flush: handle applied its notices
	default:
		return nil, fmt.Errorf("core: unknown request %T", body)
	}
}

// checkOwns rejects a request for an item this peer does not own with the
// typed misdirection error: a client routing on a stale or corrupt
// placement map must learn its map is wrong, not be silently served from
// the wrong authority.
func (p *Peer) checkOwns(item storage.ItemID) error {
	if p.owns(item) {
		return nil
	}
	return fmt.Errorf("%w: peer %s does not own %v", placement.ErrMisdirected, p.name, item)
}

// srvRead serves a read request: deescalate foreign adaptive locks, lock
// the item on behalf of the requesting transaction, and ship the page — or,
// under OS, the object.
func (p *Peer) srvRead(from string, sc obs.SpanContext, rq readReq) (any, error) {
	remote := from != p.name
	if remote {
		p.stats.Inc(sim.CtrReadRequests)
	}
	obj := rq.Obj
	if err := p.checkOwns(obj); err != nil {
		return nil, err
	}
	if err := p.srvDeescalate(obj.PageID(), from, sc); err != nil {
		return nil, err
	}
	if err := p.lockGuarded(rq.Tx, obj, lock.SH, lock.Options{Timeout: p.waitTimeout(), Span: sc}); err != nil {
		return nil, err
	}
	if !remote {
		// The owner's own transactions read the server buffer directly; no
		// page is shipped and no copy-table entry is made.
		return accessResp{}, nil
	}
	objOnly := p.policy.TransferUnit() == consistency.UnitObject && obj.Level == storage.LevelObject
	return p.ship(obj, from, objOnly, sc)
}

// ship sends client the bytes of item as one step under the page latch
// (DESIGN.md §3, "One latch per page"): the object alone when objOnly,
// else the page with the availability mask the client may trust (§4.2.3)
// — the whole page when item is the page itself, else the mask of
// availMaskLocked, taken before the clone so that a writer that commits in
// between is already in the bytes. Either way the copy is recorded before
// the latch is released, and the reply carries its install count: callback
// rounds must reach every client that holds bytes of the page, whatever
// the client's cache did with the page while the request was outstanding.
func (p *Peer) ship(item storage.ItemID, client string, objOnly bool, sc obs.SpanContext) (accessResp, error) {
	pageID := item.PageID()
	e := p.ct.entry(pageID)
	e.latch.Lock()
	defer e.latch.Unlock()
	var r accessResp
	if objOnly {
		data, err := p.srvObjectBytes(item, sc)
		if err != nil {
			return r, err
		}
		r.ObjData = data
	} else {
		avail := ^storage.AvailMask(0)
		if item.Level == storage.LevelObject {
			avail = p.availMaskLocked(e, pageID, item, client)
		}
		page, err := p.srvFetchPage(pageID, sc)
		if err != nil {
			return r, err
		}
		if p.obs.Active() {
			p.obs.EmitSpan(obs.EvPageShip, sc.Under(), pageID.String(), 0, client, "")
		}
		r.Page, r.Avail = page, avail&storage.AllAvailable(page.NumObjects())
	}
	r.Install = e.addCopyLocked(client)
	return r, nil
}

// srvWrite serves a write-permission request: deescalate, lock EX, run the
// callback operation, decide adaptivity, and ship what the client's copy
// lacks.
func (p *Peer) srvWrite(from string, sc obs.SpanContext, rq writeReq) (any, error) {
	remote := from != p.name
	if remote {
		p.stats.Inc(sim.CtrWriteRequests)
	}
	obj := rq.Obj
	pageID := obj.PageID()

	if err := p.checkOwns(obj); err != nil {
		return nil, err
	}
	if err := p.srvDeescalate(pageID, from, sc); err != nil {
		return nil, err
	}
	if err := p.lockGuarded(rq.Tx, obj, lock.EX, lock.Options{Timeout: p.waitTimeout(), Span: sc}); err != nil {
		return nil, err
	}

	if err := p.runCallbackOp(rq.Tx, obj, pageID, from, sc); err != nil {
		return nil, err
	}

	adaptive := false
	switch {
	case obj.Level == storage.LevelPage:
		// PS or explicit EX page lock: the page-level EX lock itself is the
		// standing write permission for the whole page.
		adaptive = true
	case p.policy.EscalateOnWrite(pageID):
		if p.grantAdaptive(rq.Tx, pageID, from) {
			p.stats.Inc(sim.CtrAdaptiveGrants)
			if p.obs.Active() {
				p.obs.EmitSpan(obs.EvEscalation, sc.Under(), pageID.String(), 0, from, "adaptive page lock granted")
			}
			adaptive = true
		}
	}

	var resp accessResp
	var err error
	switch {
	case !remote:
	case !rq.HavePage:
		resp, err = p.ship(obj, from, false, sc)
	case !rq.HaveObj && obj.Level == storage.LevelObject:
		resp, err = p.ship(obj, from, true, sc)
	}
	if err != nil {
		return nil, err
	}
	resp.Adaptive = adaptive
	return resp, nil
}

// srvLock serves an explicit hierarchical lock request for files, volumes,
// and page IS/IX/SIX/EX modes (explicit SH page locks travel as whole-page
// reads).
func (p *Peer) srvLock(from string, sc obs.SpanContext, rq lockReq) (any, error) {
	if err := p.checkOwns(rq.Item); err != nil {
		return nil, err
	}
	if err := p.lockGuarded(rq.Tx, rq.Item, rq.Mode, lock.Options{Timeout: p.waitTimeout(), Span: sc}); err != nil {
		return nil, err
	}
	switch rq.Item.Level {
	case storage.LevelFile, storage.LevelVolume:
		if rq.Mode == lock.EX {
			if err := p.runFileCallbackOp(rq.Tx, rq.Item, from, sc); err != nil {
				return nil, err
			}
		}
	case storage.LevelPage:
		switch rq.Mode {
		case lock.EX:
			if err := p.runCallbackOp(rq.Tx, rq.Item, rq.Item, from, sc); err != nil {
				return nil, err
			}
		case lock.IX, lock.SIX:
			// Clients may hold local-only SH page locks; call back the
			// page's dummy object so they surface and are invalidated
			// (§4.3.2).
			dummy := storage.ObjectItem(rq.Item.Vol, rq.Item.File, rq.Item.Page, storage.DummySlot)
			if err := p.lockGuarded(rq.Tx, dummy, lock.EX, lock.Options{SkipAncestors: true, Timeout: p.waitTimeout(), Span: sc}); err != nil {
				return nil, err
			}
			if err := p.runCallbackOp(rq.Tx, dummy, rq.Item, from, sc); err != nil {
				return nil, err
			}
		}
	}
	return nil, nil
}

// srvPrepare is 2PC phase one at an owner: force the records to the log
// and redo them into the server buffer. For a cross-shard transaction
// (rq.Coord != "") a prepare record is also forced, binding this shard to
// the coordinator's decision until a decide or status answer arrives.
func (p *Peer) srvPrepare(sc obs.SpanContext, rq prepareReq) (any, error) {
	if p.slog == nil {
		return nil, fmt.Errorf("core: peer %s owns no volumes", p.name)
	}
	for _, rec := range rq.Records {
		if err := p.checkOwns(rec.Object); err != nil {
			return nil, err
		}
	}
	p.appendAndRedo(rq.Records, sc)
	if rq.Coord != "" {
		p.slog.Prepare(rq.Tx, rq.Coord)
		p.stats.Inc(sim.Ctr2PCPrepares)
	}
	return nil, nil
}

// srvDecide records a cross-shard transaction's fate at this peer, acting
// as coordinator. The decision is immutable once forced: a commit arriving
// after a presumed abort was recorded (or vice versa) is an error reported
// back to the home site.
func (p *Peer) srvDecide(rq decideReq) (any, error) {
	if p.slog == nil {
		return nil, fmt.Errorf("core: peer %s owns no volumes", p.name)
	}
	if err := p.slog.Decide(rq.Tx, rq.Commit); err != nil {
		return nil, err
	}
	return nil, nil
}

// srvStatus answers a participant's recovery query about a prepared
// transaction coordinated here. Under presumed abort, no recorded decision
// means abort — and that answer is made durable before it is given out.
func (p *Peer) srvStatus(rq statusReq) (any, error) {
	if p.slog == nil {
		return nil, fmt.Errorf("core: peer %s owns no volumes", p.name)
	}
	return statusResp{Commit: p.slog.ResolveStatus(rq.Tx) == wal.DecisionCommit}, nil
}

// srvFinish is 2PC phase two (commit) or an abort at an owner.
func (p *Peer) srvFinish(rq finishReq) (any, error) {
	p.settle(rq.Tx, rq.Commit)
	return nil, nil
}

// settle ends a transaction at this owner, the one place its shipped
// records are committed or undone (redo-at-server, §3.3): it is tombstoned,
// then a commit forces its commit record and an abort undoes its records
// from their before-images, and last its locks are released. A commit this
// peer recorded as coordinator wins over an abort — a survivor may guess
// abort for a transaction whose home died after the decide round. settle
// reports whether the transaction committed.
func (p *Peer) settle(txid lock.TxID, commit bool) bool {
	if !commit && p.slog != nil && p.slog.DecisionOf(txid) == wal.DecisionCommit {
		commit = true
	}
	p.markFinished(txid)
	if p.slog != nil {
		if commit {
			p.slog.Commit(txid)
		} else {
			for _, rec := range p.slog.Abort(txid) {
				p.undoOne(rec)
			}
		}
	}
	p.locks.ReleaseAll(txid)
	return commit
}

// srvRelease drops the replicated locks of a transaction that finished at
// its home without ever spreading here.
func (p *Peer) srvRelease(rq releaseReq) (any, error) {
	p.markFinished(rq.Tx)
	p.locks.ReleaseAll(rq.Tx)
	return nil, nil
}

// srvDeescalate tears down adaptive page locks held by transactions from
// clients other than requester (paper §4.1.2): the holding client reports
// the EX object locks of its local transactions, which are replicated here
// before the requester's operation proceeds.
func (p *Peer) srvDeescalate(pageID storage.ItemID, requester string, sc obs.SpanContext) error {
	holders := p.locks.AdaptiveHolders(pageID)
	client := ""
	for _, t := range holders {
		if t.Site != requester {
			client = t.Site
			break
		}
	}
	if client == "" {
		return nil
	}
	p.stats.Inc(sim.CtrDeescalations)
	p.policy.Note(consistency.EvDeescalated, pageID)
	if p.obs.Active() {
		p.obs.EmitSpan(obs.EvDeescalation, sc.Under(), pageID.String(), 0, client, "adaptive lock torn down")
	}
	body, err := p.call(client, sc, deescReq{Page: pageID})
	if err != nil {
		return err
	}
	resp, ok := body.(deescResp)
	if !ok {
		return fmt.Errorf("core: bad deescalation reply %T", body)
	}
	for _, r := range resp.Locks {
		p.forceGrantReplica(r)
	}
	for _, t := range holders {
		if t.Site != requester {
			p.locks.SetAdaptive(t, pageID, false)
		}
	}
	return nil
}

// grantAdaptive grants tx, homed at client, an adaptive page lock on
// pageID (§4.1.2) when no other client caches the page and no transaction
// homed elsewhere holds an object lock under it. The check and the grant
// are one step under the page latch, so no ship lands between them.
func (p *Peer) grantAdaptive(tx lock.TxID, pageID storage.ItemID, client string) bool {
	e := p.ct.entry(pageID)
	e.latch.Lock()
	defer e.latch.Unlock()
	for c := range e.copies {
		if c != client {
			return false
		}
	}
	if p.foreignObjectLocks(pageID, client, tx) {
		return false
	}
	p.locks.SetAdaptive(tx, pageID, true)
	return true
}

// foreignObjectLocks reports whether any transaction homed at a client
// other than `client` holds an object-level lock under pageID. An adaptive
// page lock must not be granted in that case.
func (p *Peer) foreignObjectLocks(pageID storage.ItemID, client string, self lock.TxID) bool {
	foreign := false
	p.locks.ForEachLockWithin(pageID, func(info lock.Info) bool {
		if info.Item.Level != storage.LevelObject {
			return true
		}
		if info.Tx != self && info.Tx.Site != client {
			foreign = true
			return false
		}
		return true
	})
	return foreign
}

// availMaskLocked computes the unavailable-object mask of §4.2.3: before
// shipping page P to a client, an object X in P is marked unavailable if
// (1) X is not the requested object, and either (2) X is EX-locked by a
// transaction homed at another client, or (3) a callback operation on X by
// such a transaction is pending. The caller holds e's latch. Bits beyond
// the page's objects stay set; ship clips them.
func (p *Peer) availMaskLocked(e *pageEntry, pageID, reqObj storage.ItemID, client string) storage.AvailMask {
	mask := ^storage.AvailMask(0)
	p.locks.ForEachLockWithin(pageID, func(info lock.Info) bool {
		if info.Item.Level != storage.LevelObject || info.Item == reqObj {
			return true
		}
		if info.Mode == lock.EX && info.Tx.Site != client {
			mask = mask.Without(info.Item.Slot)
		}
		return true
	})
	for slot, t := range e.pending {
		if slot != reqObj.Slot && t.Site != client {
			mask = mask.Without(slot)
		}
	}
	return mask
}

// srvFetchPage returns a deep copy of a page from the server buffer,
// reading it from disk on a miss (traced as a disk-io leaf under sc).
func (p *Peer) srvFetchPage(pageID storage.ItemID, sc obs.SpanContext) (*storage.Page, error) {
	if pg, _, ok := p.srvPool.ClonePage(pageID); ok {
		return pg, nil
	}
	vol, ok := p.volumes[pageID.Vol]
	if !ok {
		return nil, fmt.Errorf("core: peer %s does not own %v", p.name, pageID)
	}
	var ioStart time.Time
	if p.obs.Active() {
		ioStart = time.Now()
	}
	pg, err := vol.ReadPage(pageID)
	if p.obs.Active() {
		d := time.Since(ioStart)
		p.obs.Observe(obs.HistDiskIO, d)
		p.obs.EmitSpan(obs.EvDiskIO, sc.Under(), pageID.String(), d, "", "page read")
	}
	if err != nil {
		return nil, err
	}
	evs := p.srvPool.Insert(pageID, pg, storage.AllAvailable(pg.NumObjects()))
	p.writeBackEvictions(evs)
	// Once inserted, pg is shared with concurrent redo installs: copy it
	// under the pool's lock.
	if cp, _, ok := p.srvPool.ClonePage(pageID); ok {
		return cp, nil
	}
	return pg.Clone(), nil
}

// srvObjectBytes returns the current bytes of an owned object: a read-only
// view of the server pool's slot (see buffer.Pool.ReadObject), safe to keep
// as a before-image or to ship in a reply.
func (p *Peer) srvObjectBytes(obj storage.ItemID, sc obs.SpanContext) ([]byte, error) {
	pageID := obj.PageID()
	if data, ok := p.srvPool.ReadObject(pageID, obj.Slot); ok {
		return data, nil
	}
	if _, err := p.srvFetchPage(pageID, sc); err != nil {
		return nil, err
	}
	data, ok := p.srvPool.ReadObject(pageID, obj.Slot)
	if !ok {
		return nil, fmt.Errorf("core: object %v unreadable after fetch", obj)
	}
	return data, nil
}

// writeBackEvictions flushes dirty pages evicted from the server buffer to
// their volumes. Failures are counted and retained for the harness's
// end-of-run health check rather than silently dropped.
func (p *Peer) writeBackEvictions(evs []buffer.Eviction) {
	for _, ev := range evs {
		if ev.Dirty == 0 {
			continue
		}
		vol, ok := p.volumes[ev.ID.Vol]
		if !ok {
			p.stats.Inc(sim.CtrWriteBackErrors)
			p.noteError(fmt.Errorf("core: %s evicted dirty page %v of unowned volume", p.name, ev.ID))
			continue
		}
		var ioStart time.Time
		if p.obs.Active() {
			ioStart = time.Now()
		}
		err := vol.WritePage(ev.Page)
		if p.obs.Active() {
			p.obs.Observe(obs.HistDiskIO, time.Since(ioStart))
		}
		if err != nil {
			p.stats.Inc(sim.CtrWriteBackErrors)
			p.noteError(fmt.Errorf("core: %s write-back of %v: %w", p.name, ev.ID, err))
		}
	}
}

// appendAndRedo forces records to the stable log and redoes them into the
// server buffer (redo-at-server, §3.3). The WAL force is traced as a leaf
// under sc, falling back to the records' transaction when the caller has
// no span (background purge-notice redo).
func (p *Peer) appendAndRedo(recs []wal.Record, sc obs.SpanContext) {
	if p.slog == nil || len(recs) == 0 {
		return
	}
	var ioStart time.Time
	if p.obs.Active() {
		ioStart = time.Now()
	}
	p.slog.Append(recs)
	if p.obs.Active() {
		d := time.Since(ioStart)
		p.obs.Observe(obs.HistDiskIO, d)
		wsc := sc.Under()
		if wsc.Trace == "" {
			wsc.Trace = recs[0].Tx.String()
		}
		p.obs.EmitSpan(obs.EvWALAppend, wsc, recs[0].Object.String(), d, "",
			fmt.Sprintf("%d records forced", len(recs)))
	}
	for _, r := range recs {
		p.installBytes(r.Object, r.After, true, sc)
	}
}

// undoOne applies a record's before-image during abort processing.
func (p *Peer) undoOne(rec wal.Record) {
	p.installBytes(rec.Object, rec.Before, false, obs.SpanContext{})
}

// installBytes writes object bytes into the server buffer, fetching the
// page from disk if non-resident. Redo-time fetches are the extra reads
// the paper attributes to the redo-at-server scheme.
func (p *Peer) installBytes(obj storage.ItemID, data []byte, redo bool, sc obs.SpanContext) {
	pageID := obj.PageID()
	if !p.srvPool.Contains(pageID) {
		if redo {
			p.stats.Inc(sim.CtrRedoPageReads)
		}
		if _, err := p.srvFetchPage(pageID, sc); err != nil {
			return
		}
	}
	_ = p.srvPool.InstallObject(pageID, obj.Slot, data)
	p.srvPool.SetDirtySlot(pageID, obj.Slot, true)
}
