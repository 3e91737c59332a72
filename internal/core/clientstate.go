package core

import (
	"sync"

	"adaptivecc/internal/buffer"
	"adaptivecc/internal/storage"
)

// clientState is the client role's bookkeeping: one record per page
// (DESIGN.md §3, "One record per page at the client") and the queue of
// purge notices waiting to be piggybacked to owners.
//
// mu guards the records and every change to the client pool's frames:
// residency, availability and dirty bits. Each client protocol step —
// request start, reply install, the adaptive decision on either side,
// eviction and callback invalidation — reads and changes its page's record
// and frame in one section of mu. Only the cached-read hit reads the pool
// without it. Lock order: mu, then pool.mu or a lock-table shard.
type clientState struct {
	mu     sync.Mutex
	pages  map[storage.ItemID]*clientPage
	purgeQ map[string][]purgeNotice // owner -> queued notices
}

// clientPage is the client's record of one page, deleted once idle.
type clientPage struct {
	reads  int // outstanding requests whose reply may carry the page
	writes int // outstanding write-permission requests
	// veto is the callback race table (§4.2.4): slots called back while a
	// read was outstanding, which no reply may make available. It clears
	// when the last outstanding read is answered.
	veto    storage.AvailMask
	install uint64 // install count of the cached copy, for purge notices
	// deescalated records a deescalation that arrived while a write
	// request was outstanding: no reply may install the adaptive mirror
	// until the last outstanding write is answered.
	deescalated bool
}

// request is a client request's claim on its page's record: the object the
// transaction asked for (DummySlot for a whole page), which it holds locked
// at the owner so that no callback race vetoes it, and whether the request
// counts as a read (its reply may carry the page) and as a write.
type request struct {
	page        storage.ItemID
	slot        uint16
	read, write bool
}

// victim is a page evicted from the client cache with the install count
// of its copy, both taken in the section that evicted it.
type victim struct {
	buffer.Eviction
	install uint64
}

func newClientState() *clientState {
	return &clientState{
		pages:  make(map[storage.ItemID]*clientPage),
		purgeQ: make(map[string][]purgeNotice),
	}
}

// recordLocked returns page's record, creating it; callers hold mu and
// call tidyLocked when done.
func (cs *clientState) recordLocked(page storage.ItemID) *clientPage {
	e := cs.pages[page]
	if e == nil {
		e = &clientPage{}
		cs.pages[page] = e
	}
	return e
}

// tidyLocked deletes page's record once it is idle; callers hold mu.
func (cs *clientState) tidyLocked(page storage.ItemID, e *clientPage) {
	if *e == (clientPage{}) {
		delete(cs.pages, page)
	}
}

// startLocked registers rq on its page's record; callers hold mu.
func (cs *clientState) startLocked(rq request) {
	e := cs.recordLocked(rq.page)
	if rq.read {
		e.reads++
	}
	if rq.write {
		e.writes++
	}
}

// dropLocked forgets the cached copy of page and returns its install
// count; callers hold mu.
func (cs *clientState) dropLocked(page storage.ItemID) uint64 {
	e := cs.pages[page]
	if e == nil {
		return 0
	}
	install := e.install
	e.install = 0
	cs.tidyLocked(page, e)
	return install
}

// victimsLocked pairs the evictions of the caller's section with the
// install counts of the evicted copies; callers hold mu.
func (cs *clientState) victimsLocked(evs []buffer.Eviction) []victim {
	var out []victim
	for _, ev := range evs {
		out = append(out, victim{ev, cs.dropLocked(ev.ID)})
	}
	return out
}

// takePurges drains the queued notices for owner (to piggyback on an
// outgoing message).
func (cs *clientState) takePurges(owner string) []purgeNotice {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	out := cs.purgeQ[owner]
	delete(cs.purgeQ, owner)
	return out
}
