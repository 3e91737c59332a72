package core

import (
	"fmt"
	"sync"
	"time"

	"adaptivecc/internal/consistency"
	"adaptivecc/internal/lock"
	"adaptivecc/internal/obs"
	"adaptivecc/internal/sim"
	"adaptivecc/internal/storage"
	"adaptivecc/internal/transport"
)

// cbEvent is one message routed to a running callback operation, with the
// client that sent it.
type cbEvent struct {
	from    string
	ack     *callbackAck
	blocked *callbackBlocked
}

// cbOp is the server-side state of one callback round.
type cbOp struct {
	id     uint64
	tx     lock.TxID
	item   storage.ItemID
	sc     obs.SpanContext // the round's span
	events chan cbEvent

	mu      sync.Mutex
	waiting map[string]bool // clients whose ack is still outstanding
}

// clearWaiting removes client from the outstanding-ack set, reporting
// whether it was still there. It doubles as the ack dedup: duplicate ack
// deliveries, and real acks racing the synthetic ack injected when their
// sender crashes, find the set already cleared and are ignored.
func (op *cbOp) clearWaiting(client string) bool {
	op.mu.Lock()
	defer op.mu.Unlock()
	if !op.waiting[client] {
		return false
	}
	delete(op.waiting, client)
	return true
}

// pending reports how many clients have yet to ack.
func (op *cbOp) pending() int {
	op.mu.Lock()
	defer op.mu.Unlock()
	return len(op.waiting)
}

// waitingClients snapshots the clients whose ack is still outstanding —
// on a zero-progress stall, the suspects for dead-client detection; on a
// crash, whether the round needs the dead client's synthetic ack.
func (op *cbOp) waitingClients() []string {
	op.mu.Lock()
	defer op.mu.Unlock()
	out := make([]string, 0, len(op.waiting))
	for c := range op.waiting {
		out = append(out, c)
	}
	return out
}

// blockedKey dedups callback-blocked replies: a client reports each item
// it blocks on at most once per operation, so a second (client, item)
// event is a duplicate delivery and must not re-run the downgrade dance.
type blockedKey struct {
	client string
	item   storage.ItemID
}

// errStaleTx reports a lock granted to a transaction that had already
// finished when the grant completed (its requester abandoned the call on
// an RPC timeout, or its site crashed); the grant has been undone.
var errStaleTx = fmt.Errorf("core: transaction finished during lock wait: %w", lock.ErrCanceled)

// lockGuarded acquires item for txid and neutralizes the grant if the
// transaction finished meanwhile. A requester can abandon an in-flight
// request (RPC timeout) or die (crash): its finish/reclaim releases the
// transaction's locks, and a still-queued waiter granted afterwards would
// be a zombie lock nobody ever releases. markFinished happens before the
// release, so checking the tombstone after the grant closes the race.
func (p *Peer) lockGuarded(txid lock.TxID, item storage.ItemID, mode lock.Mode, opt lock.Options) error {
	err := p.locks.Lock(txid, item, mode, opt)
	if err == nil && !txid.IsCallbackThread() && p.isFinished(txid) {
		p.locks.ReleaseAll(txid)
		return errStaleTx
	}
	return err
}

// runCallbackOp executes the callback side of a write-permission grant for
// item (an object — possibly a dummy object — or a whole page) on behalf
// of txid, excluding the requesting client.
//
// The operation loops: if the calling-back transaction had to downgrade
// its locks to replicate client conflicts, other transactions may have
// "sneaked in" and been shipped the page, violating the serializability
// objective of §4.2.2; the ship epoch, read in the same latched snapshot
// as the copies, detects this and the callbacks are repeated (§4.3.2).
func (p *Peer) runCallbackOp(txid lock.TxID, item, pageID storage.ItemID, requester string, sc obs.SpanContext) error {
	if item.Level == storage.LevelObject {
		p.ct.setPending(item, txid)
		defer p.ct.clearPending(item)
	}
	var shipsBefore uint64
	for round := 0; ; round++ {
		clients, ships := p.ct.copiesOf(pageID, requester)
		if len(clients) == 0 || round > 0 && ships == shipsBefore {
			return nil
		}
		if round > 0 {
			p.stats.Inc(sim.CtrCallbackRounds)
			p.policy.Note(consistency.EvExtraRound, pageID)
		}
		shipsBefore = ships
		downgraded, err := p.callbackRound(txid, item, pageID, pageID, clients, sc)
		if err != nil || !downgraded {
			return err
		}
	}
}

// runFileCallbackOp purges a whole file from every caching client before
// an explicit EX file (or volume) lock is granted.
func (p *Peer) runFileCallbackOp(txid lock.TxID, file storage.ItemID, requester string, sc obs.SpanContext) error {
	for {
		// File removals are unguarded: the EX file lock already blocks
		// re-ships of the file's pages at the server.
		clients := p.ct.fileClientsOf(file, requester)
		if len(clients) == 0 {
			return nil
		}
		if _, err := p.callbackRound(txid, file, file, file, clients, sc); err != nil {
			return err
		}
		// File callbacks ack only after purging every page of the file; a
		// client re-appearing here means it fetched pages after this round
		// started, which the EX file lock now prevents — loop to be safe.
	}
}

// callbackTimeoutFactor is how long, in units of Config.RPCTimeout, a
// callback round may go without an ack, a blocked report or a finished
// conversion before the blocking write request aborts with a timeout
// instead of hanging.
const callbackTimeoutFactor = 4

// callbackRound sends one round of callbacks for item to clients and
// collects their acknowledgments, running the lock-replication dance for
// every "callback-blocked" reply. scope is the copy-table key invalidated
// acks refer to (the page, or the file for file callbacks). The round is
// one span under sc: every callback sent, ack received, and conflict
// report is a leaf under it, and the closing round event carries "ok" or
// the error — the invariant auditor matches the ack set against the send
// set only for rounds that claim success.
func (p *Peer) callbackRound(txid lock.TxID, item, pageID, scope storage.ItemID, clients map[string]uint64, sc obs.SpanContext) (downgraded bool, err error) {
	var rsc obs.SpanContext
	if p.obs.Active() {
		rsc = p.obs.StartSpan(txid.String(), sc)
	}
	// The round's ID comes from the space requests draw theirs from, so a
	// client's dedup table suppresses a duplicated callback by (sender, ID).
	p.mu.Lock()
	p.nextReq++
	id := p.nextReq
	p.mu.Unlock()
	op := &cbOp{
		id: id, tx: txid, item: item, sc: rsc,
		events:  make(chan cbEvent, len(clients)*4),
		waiting: make(map[string]bool, len(clients)),
	}
	for c := range clients {
		op.waiting[c] = true
	}
	p.registerOp(op)
	defer p.unregisterOp(op)

	if p.obs.Active() {
		roundStart := time.Now()
		defer func() {
			d := time.Since(roundStart)
			p.obs.Observe(obs.HistCallbackRound, d)
			note := "ok"
			if err != nil {
				note = err.Error()
			}
			p.obs.EmitSpan(obs.EvCallbackRound, rsc, item.String(), d, "", note)
		}()
	}
	// The policy may demote this operation to object grain (PS-AH on a
	// conflict-heavy page): the decision is made once here, server side,
	// and travels in the request so every client acts on the same answer.
	objGrain := item.Level == storage.LevelObject && p.policy.CallbackObjectGrain(pageID)
	for c := range clients {
		p.stats.Inc(sim.CtrCallbacks)
		if p.obs.Active() {
			p.obs.EmitSpan(obs.EvCallbackSent, rsc.Under(), item.String(), 0, c, "")
		}
		_ = p.sendFF(transport.Message{
			From: p.name, To: c, Kind: kindCallback,
			Payload: &callbackReq{OpID: op.id, Tx: txid, Item: item, Page: pageID, ObjectGrain: objGrain, Span: rsc},
		})
	}

	var (
		convCh      = make(chan error, len(clients)*2+2)
		convOut     = 0
		firstErr    error
		blockedSeen = make(map[blockedKey]bool)
	)
	// The round must not hang forever on a client that will never answer
	// (lost callback, lost ack, silent death): a timer that resets on every
	// event aborts the blocking request when the round stops making
	// progress for callbackTimeoutFactor×RPCTimeout.
	stall := callbackTimeoutFactor * p.cfg.RPCTimeout
	timer := time.NewTimer(stall)
	defer timer.Stop()
	progress := func() {
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(stall)
	}
	// The round ends when every client has acked and no conversion is
	// outstanding.
	for op.pending() > 0 || convOut > 0 {
		select {
		case ev := <-op.events:
			progress()
			switch {
			case ev.ack != nil:
				if p.cfg.DeadClientStalls > 0 {
					p.noteCbAlive(ev.from)
				}
				if !op.clearWaiting(ev.from) {
					break // duplicate delivery (or raced a crash's synthetic ack)
				}
				if p.obs.Active() {
					note := ""
					if ev.ack.Invalidated {
						note = "invalidated"
					}
					p.obs.EmitSpan(obs.EvCallbackAcked, rsc.Under(), item.String(), 0, ev.from, note)
				}
				if ev.ack.Invalidated {
					// The removal is guarded by the install count recorded
					// when this round's callback was sent: if the page was
					// re-shipped to the client meanwhile (our locks were
					// downgraded), the fresh copy stays and the next round
					// calls the client back again.
					p.dropCopies(scope, ev.from, clients[ev.from])
				}
			case ev.blocked != nil:
				if p.cfg.DeadClientStalls > 0 {
					p.noteCbAlive(ev.from)
				}
				k := blockedKey{ev.from, ev.blocked.Item}
				if blockedSeen[k] {
					break // duplicate delivery: the dance already ran
				}
				blockedSeen[k] = true
				downgraded = true
				if pageID.Level == storage.LevelPage {
					p.policy.Note(consistency.EvCallbackBlocked, pageID)
				}
				if p.obs.Active() {
					p.obs.EmitSpan(obs.EvCallbackBlocked, rsc.Under(), ev.blocked.Item.String(), 0, ev.from, "")
				}
				p.handleBlocked(op, ev.blocked, convCh, &convOut)
			}
		case cerr := <-convCh:
			progress()
			convOut--
			if cerr != nil && firstErr == nil {
				firstErr = cerr
			}
		case <-timer.C:
			p.stats.Inc(sim.CtrTimeoutsFired)
			// Dead-client detection: every client still silent at a
			// zero-progress stall extends its streak; one that crosses the
			// threshold is fenced and reclaimed, so the NEXT round against
			// this item finds its copies gone and succeeds.
			if p.cfg.DeadClientStalls > 0 {
				for _, c := range op.waitingClients() {
					if p.noteCbStall(c) {
						p.sys.fenceDead(c)
					}
				}
			}
			return downgraded, fmt.Errorf("core: callback op %d on %v stalled: %w", op.id, item, lock.ErrTimeout)
		}
		if firstErr != nil {
			// The calling-back transaction lost a deadlock (or timed out)
			// while re-upgrading. Waiting for the remaining acks would hang:
			// the blocking clients' transactions are themselves waiting on
			// this server. Fail the operation now — the requester aborts,
			// its locks clear, and late acks are dropped with the op.
			return downgraded, firstErr
		}
	}
	if downgraded {
		// Make sure the full target modes are held again before returning
		// write permission (the last conversion may have been downgraded by
		// a later blocked reply).
		if item != pageID && item.Level == storage.LevelObject {
			if err := p.lockGuarded(op.tx, pageID, lock.IX, lock.Options{SkipAncestors: true, Timeout: p.waitTimeout(), Span: rsc}); err != nil {
				return downgraded, err
			}
		}
		if err := p.lockGuarded(op.tx, item, lock.EX, lock.Options{SkipAncestors: true, Timeout: p.waitTimeout(), Span: rsc}); err != nil {
			return downgraded, err
		}
	}
	return downgraded, nil
}

// dropCopies removes a client's copy-table entries under scope (one page,
// or every page of a file), guarded by the install count captured at
// callback-send time for pages.
func (p *Peer) dropCopies(scope storage.ItemID, client string, install uint64) {
	if scope.Level == storage.LevelPage {
		p.ct.removeCopy(scope, client, install)
		return
	}
	p.ct.removeCopies(client, scope.Contains)
}

// handleBlocked processes a callback-blocked reply: project the client's
// conflict into this server's lock table (downgrade our lock, force-grant
// the holders', then become an upgrader), so that the deadlock detector
// sees the conflict (§4.2.1, Fig. 4) and so that the lock state matches
// what a centralized execution could have produced.
func (p *Peer) handleBlocked(op *cbOp, bl *callbackBlocked, convCh chan error, convOut *int) {
	p.cpu.Use(p.cfg.Costs.LockCPU)

	conflictModes := make([]lock.Mode, 0, len(bl.Conflicts))
	for _, r := range bl.Conflicts {
		conflictModes = append(conflictModes, r.Mode)
	}

	twoLevel := bl.Item != op.item // blocked at the page level during an object callback
	if twoLevel {
		// §4.3.2: downgrade the object lock to SH and the page lock to IS,
		// then upgrade the page lock first (one wait at a time).
		if cur := p.locks.HeldMode(op.tx, op.item); cur == lock.EX {
			_ = p.locks.Downgrade(op.tx, op.item, lock.SH)
		}
		if cur := p.locks.HeldMode(op.tx, bl.Item); cur != lock.NL && cur != lock.IS {
			if to := downgradeFor(cur, conflictModes); to != cur {
				_ = p.locks.Downgrade(op.tx, bl.Item, to)
			}
		}
	} else {
		if cur := p.locks.HeldMode(op.tx, op.item); cur != lock.NL {
			if to := downgradeFor(cur, conflictModes); to != cur {
				_ = p.locks.Downgrade(op.tx, op.item, to)
			}
		}
	}

	for _, r := range bl.Conflicts {
		p.forceGrantReplica(r)
	}

	timeout := p.waitTimeout()
	txid, item, blockedItem, rsc := op.tx, op.item, bl.Item, op.sc
	*convOut++
	go func() {
		if twoLevel {
			if err := p.lockGuarded(txid, blockedItem, lock.IX, lock.Options{SkipAncestors: true, Timeout: timeout, Span: rsc}); err != nil {
				convCh <- err
				return
			}
		}
		convCh <- p.lockGuarded(txid, item, lock.EX, lock.Options{SkipAncestors: true, Timeout: timeout, Span: rsc})
	}()
}

// forceGrantReplica installs a client-reported lock at the server,
// together with the intention locks its ancestors require. Replications
// that lost a race with the transaction's finish are dropped (or undone)
// via the tombstone set, so no zombie locks survive.
func (p *Peer) forceGrantReplica(r lockReplica) {
	if p.isFinished(r.Tx) {
		return
	}
	intent := lock.IntentionFor(r.Mode)
	chain, n := r.Item.AncestorChain()
	for _, anc := range chain[:n] {
		p.locks.ForceGrant(r.Tx, anc, intent)
	}
	p.locks.ForceGrant(r.Tx, r.Item, r.Mode)
	if p.isFinished(r.Tx) {
		p.locks.ReleaseAll(r.Tx)
	}
}

// capReplicaMode bounds the mode a conflict is replicated at. A client
// holds a local-only EX only while its own write request is in flight (a
// granted EX always exists at the server first, and adaptive-lock EX locks
// are surfaced by deescalation before the caller's EX is granted). In the
// centralized projection the two exclusive requests queue against each
// other, so the in-flight request is replicated as SH: it creates the
// waits-for edge, and the deadlock detector picks a victim exactly as the
// paper's Fig. 4 machinery intends. Force-granting EX beside the
// calling-back transaction's lock would instead let both writers proceed.
func capReplicaMode(m lock.Mode) lock.Mode {
	if m == lock.EX {
		return lock.SH
	}
	return m
}

// downgradeFor picks the strongest mode covered by cur that is compatible
// with every conflicting mode: EX blocked by IS holders downgrades to SIX
// (file callbacks), EX blocked by SH holders downgrades to SH (Fig. 4),
// IX blocked by SH page holders downgrades to IS (§4.3.2).
func downgradeFor(cur lock.Mode, conflicts []lock.Mode) lock.Mode {
	for _, cand := range []lock.Mode{lock.SIX, lock.SH, lock.IX, lock.IS} {
		if !lock.Covers(cur, cand) || cand == cur {
			continue
		}
		ok := true
		for _, c := range conflicts {
			if !lock.Compatible(c, cand) {
				ok = false
				break
			}
		}
		if ok {
			return cand
		}
	}
	return lock.IS
}

// handleCallback is the client-side callback thread (§4.1.1 footnote 2):
// it runs in its own goroutine, may block on local locks (reporting the
// conflict to the server first), invalidates the page or object, and acks
// to server, the peer that sent rq.
func (p *Peer) handleCallback(server string, rq callbackReq) {
	var hsc obs.SpanContext
	if p.obs.Active() {
		hsc = p.obs.StartSpan(rq.Tx.String(), rq.Span)
	}
	if p.obs.Active() {
		start := time.Now()
		defer func() {
			p.obs.EmitSpan(obs.EvCallbackHandled, hsc, rq.Item.String(), time.Since(start), server, "")
		}()
	}
	if rq.Item.Level == storage.LevelFile || rq.Item.Level == storage.LevelVolume {
		p.handleFileCallback(server, rq, hsc)
		return
	}
	cbid := lock.CallbackThread(server, rq.OpID)
	defer p.locks.ReleaseAll(cbid)

	page := rq.Page
	slot := rq.Item.Slot // DummySlot for dummy-object callbacks
	pageLevel := rq.Item.Level == storage.LevelPage
	p.policy.Note(consistency.EvCallbackReceived, page)

	// Fast path: the page is not cached here (e.g. it was purged and the
	// notice is still in flight). If a read for the page is pending, its
	// reply will resurrect the page: keep the copy-table entry and veto
	// the called-back item instead of acking a full invalidation.
	p.cs.mu.Lock()
	if !p.pool.Contains(page) {
		invalidated := !p.vetoLocked(page, rq.Item, pageLevel)
		p.cs.mu.Unlock()
		p.sendAck(server, rq, invalidated)
		return
	}
	p.cs.mu.Unlock()

	// Page-first ("adaptive", §4.2) callbacks: try to take the whole page,
	// unless the server demoted this operation to object grain.
	if (p.policy.PageFirstCallbacks(page) && !rq.ObjectGrain) || pageLevel {
		if pageLevel || !p.policy.ObjectFallback() {
			// An explicit EX page lock — or a protocol with no object grain
			// to fall back to (PS) — must take the whole page.
			if p.cbLock(server, rq, cbid, page, lock.EX, hsc) {
				p.purgePage(server, rq, page, pageLevel)
			}
			return
		}
		if p.locks.Lock(cbid, page, lock.EX, lock.Options{NoWait: true, SkipAncestors: true}) == nil {
			p.purgePage(server, rq, page, pageLevel)
			return
		}
	}

	// Object-level invalidation: IX on the page (may block on a local-only
	// SH page lock — hierarchical callbacks), then EX on the object.
	if !p.cbLock(server, rq, cbid, page, lock.IX, hsc) || !p.cbLock(server, rq, cbid, rq.Item, lock.EX, hsc) {
		return
	}

	p.cs.mu.Lock()
	stillCached := p.pool.SetAvail(page, slot, false)
	p.vetoLocked(page, rq.Item, false)
	p.cs.mu.Unlock()
	p.sendAck(server, rq, !stillCached)
}

// purgePage drops the page from the client cache under an EX page
// lock, handling the pending-read race.
func (p *Peer) purgePage(server string, rq callbackReq, page storage.ItemID, pageLevel bool) {
	p.cs.mu.Lock()
	invalidated := !p.vetoLocked(page, rq.Item, pageLevel)
	p.pool.Remove(page)
	p.cs.dropLocked(page)
	p.cs.mu.Unlock()
	p.sendAck(server, rq, invalidated)
}

// vetoLocked records a callback race (§4.2.4) on page's record when a read
// reply for the page is in flight: no outstanding reply may make the
// called-back item available — every slot, for a page-level callback. It
// reports whether it did. Callers hold cs.mu.
func (p *Peer) vetoLocked(page, item storage.ItemID, pageLevel bool) bool {
	e := p.cs.pages[page]
	if e == nil || e.reads == 0 {
		return false
	}
	p.stats.Inc(sim.CtrCallbackRaces)
	if pageLevel {
		e.veto |= storage.AllAvailable(p.cfg.ObjectsPerPage)
	} else {
		e.veto = e.veto.With(item.Slot)
	}
	return true
}

// handleFileCallback purges every cached page of a file (§4.3.1).
func (p *Peer) handleFileCallback(server string, rq callbackReq, hsc obs.SpanContext) {
	cbid := lock.CallbackThread(server, rq.OpID)
	defer p.locks.ReleaseAll(cbid)

	if !p.cbLock(server, rq, cbid, rq.Item, lock.EX, hsc) {
		return
	}
	p.cs.mu.Lock()
	for _, id := range p.pool.PagesOf(rq.Item) {
		p.pool.Remove(id)
		p.cs.dropLocked(id)
	}
	p.cs.mu.Unlock()
	p.sendAck(server, rq, true)
}

// cbLock takes the callback thread cbid's lock on item. When a local
// transaction holds a conflicting lock, the conflict is reported to the
// calling-back server first ("callback-blocked", §4.1–4.2) and only then
// does the thread wait; a failed wait acks "not invalidated" and reports
// false.
func (p *Peer) cbLock(server string, rq callbackReq, cbid lock.TxID, item storage.ItemID, mode lock.Mode, hsc obs.SpanContext) bool {
	if p.locks.Lock(cbid, item, mode, lock.Options{NoWait: true, SkipAncestors: true}) == nil {
		return true
	}
	p.sendBlocked(server, rq, item, mode)
	if err := p.locks.Lock(cbid, item, mode, lock.Options{SkipAncestors: true, Span: hsc}); err != nil {
		p.sendAck(server, rq, false)
		return false
	}
	return true
}

// sendBlocked reports a local lock conflict to the calling-back server so
// the conflict can be replicated there before this thread blocks.
func (p *Peer) sendBlocked(server string, rq callbackReq, item storage.ItemID, mode lock.Mode) {
	var reps []lockReplica
	for _, h := range p.locks.Holders(item) {
		if h.Tx.IsCallbackThread() { // this thread, or another round's: never replicated
			continue
		}
		if !lock.Compatible(h.Mode, mode) {
			reps = append(reps, lockReplica{Tx: h.Tx, Item: item, Mode: capReplicaMode(h.Mode)})
			p.noteReplicated(h.Tx, server)
		}
	}
	_ = p.sendFF(transport.Message{
		From: p.name, To: server, Kind: kindCallbackBlocked,
		Payload: callbackBlocked{OpID: rq.OpID, Item: item, Conflicts: reps},
	})
}

// sendAck completes this client's part of a callback operation. The ack is
// sent at once: the writer's EX request is held at the server until every
// caching client has acknowledged (§4).
func (p *Peer) sendAck(server string, rq callbackReq, invalidated bool) {
	_ = p.sendFF(transport.Message{
		From: p.name, To: server, Kind: kindCallbackAck,
		Payload: callbackAck{OpID: rq.OpID, Invalidated: invalidated},
	})
}
