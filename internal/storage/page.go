package storage

import (
	"fmt"
)

// DefaultObjectsPerPage matches the paper's Table 1 (20 objects per page).
const DefaultObjectsPerPage = 20

// DefaultPageSize matches the paper's Table 1 (4096 bytes).
const DefaultPageSize = 4096

// Page is the unit of transfer, caching, and disk I/O. A page holds a fixed
// number of object slots. The final slot-like "dummy object" used by
// hierarchical callbacks is not stored here; it exists only in the lock and
// availability spaces (see internal/core).
//
// Slot immutability: the byte slice installed in a slot is never written in
// place. SetObject is the only writer of a slot and it replaces the slice
// with a fresh copy, so a reader that took the slice from Object keeps
// exactly the bytes it read, whatever later happens to the page —
// overwrite, merge, redo, undo, invalidation or eviction. Code outside this
// file must neither assign a slot nor store through a slot's slice.
type Page struct {
	ID      ItemID   // page-level ItemID
	Objects [][]byte // one immutable slice per slot; see above
	// LSN is the log sequence number of the last update installed into this
	// copy of the page; it is advanced by the server during redo.
	LSN uint64
}

// NewPage allocates a page with objectsPerPage zeroed slots of slotSize
// bytes each.
func NewPage(id ItemID, objectsPerPage, slotSize int) *Page {
	if id.Level != LevelPage {
		panic(fmt.Sprintf("storage: NewPage with non-page id %v", id))
	}
	objs := make([][]byte, objectsPerPage)
	for i := range objs {
		objs[i] = make([]byte, slotSize)
	}
	return &Page{ID: id, Objects: objs}
}

// Clone deep-copies the page.
func (p *Page) Clone() *Page {
	objs := make([][]byte, len(p.Objects))
	for i, o := range p.Objects {
		objs[i] = append([]byte(nil), o...)
	}
	return &Page{ID: p.ID, Objects: objs, LSN: p.LSN}
}

// NumObjects reports the number of object slots on the page.
func (p *Page) NumObjects() int { return len(p.Objects) }

// Object returns the stored bytes of slot, not a copy: a read-only view
// that stays valid and unchanged (SetObject replaces the slot's slice, it
// never writes into it). Callers must not modify the bytes or append to the
// slice without clipping its capacity first.
func (p *Page) Object(slot uint16) ([]byte, error) {
	if int(slot) >= len(p.Objects) {
		return nil, fmt.Errorf("storage: slot %d out of range on %v", slot, p.ID)
	}
	return p.Objects[slot], nil
}

// SetObject replaces the slice of slot with a fresh copy of data. It is the
// only writer of a slot, and it never touches the slice it replaces: views
// handed out by Object keep the old bytes.
func (p *Page) SetObject(slot uint16, data []byte) error {
	if int(slot) >= len(p.Objects) {
		return fmt.Errorf("storage: slot %d out of range on %v", slot, p.ID)
	}
	p.Objects[slot] = append([]byte(nil), data...)
	return nil
}

// AvailMask is a bitmask of object availability for one cached page copy:
// bit i set means slot i is "available" (cached) at the holding client. Bit
// DummyBit tracks the reserved dummy object used by hierarchical callbacks.
type AvailMask uint64

// DummyBit is the bit index reserved for the per-page dummy object.
const DummyBit = 63

// DummySlot is a pseudo slot number identifying the dummy object in lock
// requests. It is never a valid storage slot.
const DummySlot uint16 = 0xFFFF

// AllAvailable returns a mask with the first n object bits plus the dummy
// bit set.
func AllAvailable(n int) AvailMask {
	var m AvailMask
	for i := 0; i < n && i < DummyBit; i++ {
		m |= 1 << uint(i)
	}
	m |= 1 << DummyBit
	return m
}

func bitFor(slot uint16) uint {
	if slot == DummySlot {
		return DummyBit
	}
	return uint(slot)
}

// Has reports whether slot is available in the mask.
func (m AvailMask) Has(slot uint16) bool { return m&(1<<bitFor(slot)) != 0 }

// With returns the mask with slot marked available.
func (m AvailMask) With(slot uint16) AvailMask { return m | 1<<bitFor(slot) }

// Without returns the mask with slot marked unavailable.
func (m AvailMask) Without(slot uint16) AvailMask { return m &^ (1 << bitFor(slot)) }

// FullFor reports whether every real object slot of an n-object page plus
// the dummy object is available — the paper's "fully cached" predicate.
func (m AvailMask) FullFor(n int) bool { return m == AllAvailable(n) }

// Count reports how many real object slots are available (excludes dummy).
func (m AvailMask) Count() int {
	c := 0
	for i := 0; i < DummyBit; i++ {
		if m&(1<<uint(i)) != 0 {
			c++
		}
	}
	return c
}
