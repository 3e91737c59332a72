package core

import (
	"maps"
	"sync"

	"adaptivecc/internal/lock"
	"adaptivecc/internal/storage"
)

// copyTable is the owner's index of its per-page records (paper §4.1);
// the records are its only account of which client caches what. Its mutex
// guards only the index: it is never held while a page latch is taken,
// nor taken under one.
type copyTable struct {
	mu    sync.Mutex
	pages map[storage.ItemID]*pageEntry
}

// pageEntry is the owner's consistency state for one page. Every per-page
// decision of §4.2.3 — ship of the page or of one object, callback
// snapshot, adaptive grant, purge — reads and changes it under latch in
// one critical section, together with the lock-table scan the decision
// needs (DESIGN.md §3, "One latch per page"). The latch is never held
// across an RPC, a lock wait or a callback round. Lock order: latch, then
// a lock-table shard or srvPool.mu.
type pageEntry struct {
	latch   sync.Mutex
	copies  map[string]uint64    // client -> install count of its newest copy
	ships   uint64               // ship epoch: ships of the page or of its objects
	pending map[uint16]lock.TxID // object slot -> transaction calling it back
}

func newCopyTable() *copyTable {
	return &copyTable{pages: make(map[storage.ItemID]*pageEntry)}
}

// entry returns page's record, creating it on first use. Records are never
// deleted: the ship epoch is compared across callback rounds.
func (ct *copyTable) entry(page storage.ItemID) *pageEntry {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	e, ok := ct.pages[page]
	if !ok {
		e = &pageEntry{copies: make(map[string]uint64)}
		ct.pages[page] = e
	}
	return e
}

// addCopyLocked records a ship of page, or of one of its objects, to
// client and returns the install count the client must remember for purge
// notices. Peer.ship is its one caller, holding e's latch.
func (e *pageEntry) addCopyLocked(client string) uint64 {
	e.ships++
	e.copies[client] = e.ships
	return e.ships
}

// removeCopy deletes client's copy of page. A nonzero install must match
// the recorded install count: a purge notice older than the client's
// newest copy lost the purge race (§4.2.4), keeps that copy, and is
// reported by a true result. install zero forces removal.
func (ct *copyTable) removeCopy(page storage.ItemID, client string, install uint64) (raced bool) {
	e := ct.entry(page)
	e.latch.Lock()
	defer e.latch.Unlock()
	got, had := e.copies[client]
	if !had {
		return false
	}
	if install != 0 && got != install {
		return true // stale: the client re-fetched the page meanwhile
	}
	delete(e.copies, client)
	return false
}

// copiesOf snapshots, in one latched read, the clients caching page
// (excluding except) with the install counts of their copies, and the
// page's ship epoch. A callback round guards each "invalidated" ack with
// the captured count, so the ack cannot erase a copy re-shipped while it
// was in flight; the epoch tells the round whether any ship landed while
// the calling-back transaction's locks were downgraded (§4.3.2).
func (ct *copyTable) copiesOf(page storage.ItemID, except string) (map[string]uint64, uint64) {
	e := ct.entry(page)
	e.latch.Lock()
	defer e.latch.Unlock()
	out := make(map[string]uint64, len(e.copies))
	for c, inst := range e.copies {
		if c != except {
			out[c] = inst
		}
	}
	return out, e.ships
}

// hasCopy reports whether client is recorded as caching page.
func (ct *copyTable) hasCopy(page storage.ItemID, client string) bool {
	e := ct.entry(page)
	e.latch.Lock()
	defer e.latch.Unlock()
	_, had := e.copies[client]
	return had
}

// setPending marks a callback operation by t on obj as in progress, for
// the unavailable-object rule (§4.2.3 condition 3); clearPending ends it.
func (ct *copyTable) setPending(obj storage.ItemID, t lock.TxID) {
	e := ct.entry(obj.PageID())
	e.latch.Lock()
	defer e.latch.Unlock()
	if e.pending == nil {
		e.pending = make(map[uint16]lock.TxID)
	}
	e.pending[obj.Slot] = t
}

func (ct *copyTable) clearPending(obj storage.ItemID) {
	e := ct.entry(obj.PageID())
	e.latch.Lock()
	defer e.latch.Unlock()
	delete(e.pending, obj.Slot)
}

// fileClientsOf finds the clients caching at least one page under scope
// (a file, or a volume covering several files), excluding except, by
// reading each page record under its latch. It maps each to a zero
// install count: a file callback's removals are unguarded.
func (ct *copyTable) fileClientsOf(scope storage.ItemID, except string) map[string]uint64 {
	out := make(map[string]uint64)
	for page, e := range ct.entries() {
		if !scope.Contains(page) {
			continue
		}
		e.latch.Lock()
		for c := range e.copies {
			if c != except {
				out[c] = 0
			}
		}
		e.latch.Unlock()
	}
	return out
}

// removeCopies drops client's copy of every page for which in holds: the
// pages of a file or volume after a file callback, or every page when the
// client has crashed. It reports how many copies were dropped.
func (ct *copyTable) removeCopies(client string, in func(page storage.ItemID) bool) int {
	n := 0
	for page, e := range ct.entries() {
		if !in(page) {
			continue
		}
		e.latch.Lock()
		if _, had := e.copies[client]; had {
			delete(e.copies, client)
			n++
		}
		e.latch.Unlock()
	}
	return n
}

// entries snapshots the index, so that the caller can take each record's
// latch without holding the index mutex.
func (ct *copyTable) entries() map[storage.ItemID]*pageEntry {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	return maps.Clone(ct.pages)
}
