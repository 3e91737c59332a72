package core

import (
	"maps"
	"sync"

	"adaptivecc/internal/lock"
	"adaptivecc/internal/storage"
)

// copyTable is the owner's index of its per-page records (paper §4.1),
// plus, per file, how many pages of the file each client caches, so that
// file-level callbacks know whom to contact. Its mutex guards only the two
// maps and is never held while a page latch is taken.
type copyTable struct {
	mu    sync.Mutex
	pages map[storage.ItemID]*pageEntry
	files map[storage.ItemID]map[string]int
}

// pageEntry is the owner's consistency state for one page. Every per-page
// decision of §4.2.3 — ship of the page or of one object, callback
// snapshot, adaptive grant, purge — reads and changes it under latch in
// one critical section, together with the lock-table scan the decision
// needs (DESIGN.md §3, "One latch per page"). The latch is never held
// across an RPC, a lock wait or a callback round. Lock order: latch, then
// a lock-table shard, srvPool.mu or copyTable.mu.
type pageEntry struct {
	latch   sync.Mutex
	copies  map[string]uint64    // client -> install count of its newest copy
	ships   uint64               // ship epoch: ships of the page or of its objects
	pending map[uint16]lock.TxID // object slot -> transaction calling it back
}

func newCopyTable() *copyTable {
	return &copyTable{
		pages: make(map[storage.ItemID]*pageEntry),
		files: make(map[storage.ItemID]map[string]int),
	}
}

func fileOf(page storage.ItemID) storage.ItemID {
	return storage.FileItem(page.Vol, page.File)
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
func (ct *copyTable) addCopyLocked(e *pageEntry, page storage.ItemID, client string) uint64 {
	e.ships++
	if _, had := e.copies[client]; !had {
		ct.mu.Lock()
		f := fileOf(page)
		fc, ok := ct.files[f]
		if !ok {
			fc = make(map[string]int)
			ct.files[f] = fc
		}
		fc[client]++
		ct.mu.Unlock()
	}
	e.copies[client] = e.ships
	return e.ships
}

// dropLocked deletes client's copy of page. The caller holds e's latch.
func (ct *copyTable) dropLocked(e *pageEntry, page storage.ItemID, client string) {
	delete(e.copies, client)
	ct.mu.Lock()
	defer ct.mu.Unlock()
	f := fileOf(page)
	if fc, ok := ct.files[f]; ok {
		fc[client]--
		if fc[client] <= 0 {
			delete(fc, client)
		}
		if len(fc) == 0 {
			delete(ct.files, f)
		}
	}
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
	ct.dropLocked(e, page, client)
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

// fileClientsOf lists the clients caching at least one page under scope
// (a file, or a volume covering several files), excluding except.
func (ct *copyTable) fileClientsOf(scope storage.ItemID, except string) []string {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	seen := make(map[string]bool)
	for f, fc := range ct.files {
		if !scope.Contains(f) {
			continue
		}
		for c := range fc {
			if c != except {
				seen[c] = true
			}
		}
	}
	out := make([]string, 0, len(seen))
	for c := range seen {
		out = append(out, c)
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
			ct.dropLocked(e, page, client)
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
