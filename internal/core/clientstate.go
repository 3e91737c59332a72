package core

import (
	"sync"

	"adaptivecc/internal/storage"
)

// clientState holds the client-role bookkeeping of a peer: outstanding
// remote read requests (used to detect callback races), the callback race
// table itself (§4.2.4), install counts of cached page copies (for purge
// notices), outstanding write requests (for deescalation races), and the
// queue of purge notices waiting to be piggybacked to owners.
//
// Its mutex also serializes compound updates of the client page cache:
// callback invalidations and read-reply merges both run under mu so that
// their interleavings are well defined.
type clientState struct {
	mu sync.Mutex

	pendingReads  map[storage.ItemID]int               // page -> outstanding read requests
	races         map[storage.ItemID]storage.AvailMask // page -> vetoed slots
	installs      map[storage.ItemID]uint64            // page -> install count of cached copy
	pendingWrites map[storage.ItemID]int               // page -> outstanding write requests
	preDeesc      map[storage.ItemID]bool              // deescalation raced ahead of write reply
	purgeQ        map[string][]purgeNotice             // owner -> queued notices
}

func newClientState() *clientState {
	return &clientState{
		pendingReads:  make(map[storage.ItemID]int),
		races:         make(map[storage.ItemID]storage.AvailMask),
		installs:      make(map[storage.ItemID]uint64),
		pendingWrites: make(map[storage.ItemID]int),
		preDeesc:      make(map[storage.ItemID]bool),
		purgeQ:        make(map[string][]purgeNotice),
	}
}

// beginRead registers an outstanding read request for page.
func (cs *clientState) beginRead(page storage.ItemID) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	cs.pendingReads[page]++
}

// endReadLocked deregisters an outstanding read; callers hold cs.mu.
func (cs *clientState) endReadLocked(page storage.ItemID) {
	if n := cs.pendingReads[page]; n <= 1 {
		delete(cs.pendingReads, page)
	} else {
		cs.pendingReads[page] = n - 1
	}
}

// hasPendingReadLocked reports an outstanding read for page; callers hold
// cs.mu.
func (cs *clientState) hasPendingReadLocked(page storage.ItemID) bool {
	return cs.pendingReads[page] > 0
}

// abandonRead ends a read whose reply will not be installed and drops the
// race entries registered against it.
func (cs *clientState) abandonRead(page storage.ItemID) {
	cs.mu.Lock()
	cs.endReadLocked(page)
	cs.takeRacesLocked(page)
	cs.mu.Unlock()
}

// registerRaceLocked records a callback race for slot of page.
func (cs *clientState) registerRaceLocked(page storage.ItemID, slot uint16) {
	cs.races[page] = cs.races[page].With(slot)
}

// takeRacesLocked consumes the race entries of page.
func (cs *clientState) takeRacesLocked(page storage.ItemID) storage.AvailMask {
	v := cs.races[page]
	delete(cs.races, page)
	return v
}

// beginWrite / endWrite track outstanding write-permission requests.
func (cs *clientState) beginWrite(page storage.ItemID) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	cs.pendingWrites[page]++
}

func (cs *clientState) endWrite(page storage.ItemID) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if n := cs.pendingWrites[page]; n <= 1 {
		delete(cs.pendingWrites, page)
	} else {
		cs.pendingWrites[page] = n - 1
	}
}

// hasPendingWrite reports an outstanding write request for page.
func (cs *clientState) hasPendingWrite(page storage.ItemID) bool {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return cs.pendingWrites[page] > 0
}

// markPreDeescalated records that a deescalation request arrived before
// the write reply that would have installed the adaptive lock.
func (cs *clientState) markPreDeescalated(page storage.ItemID) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	cs.preDeesc[page] = true
}

// consumePreDeescalated reports and clears the pre-deescalation flag.
func (cs *clientState) consumePreDeescalated(page storage.ItemID) bool {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	v := cs.preDeesc[page]
	delete(cs.preDeesc, page)
	return v
}

// setInstallLocked records the install count of the cached copy of page.
func (cs *clientState) setInstallLocked(page storage.ItemID, install uint64) {
	cs.installs[page] = install
}

// takeInstallLocked removes and returns the install count of page.
func (cs *clientState) takeInstallLocked(page storage.ItemID) uint64 {
	v := cs.installs[page]
	delete(cs.installs, page)
	return v
}

// queuePurge enqueues a purge notice for owner.
func (cs *clientState) queuePurge(owner string, n purgeNotice) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	cs.purgeQ[owner] = append(cs.purgeQ[owner], n)
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
