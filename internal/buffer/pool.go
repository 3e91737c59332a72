// Package buffer implements the page-grain buffer pool used on both sides
// of a peer server. The client side extends the classic pool with the
// paper's per-object availability bits (§4.1): an object is locally cached
// iff its page is resident AND its availability bit is set. The pool also
// tracks which objects have been dirtied by active local transactions so
// that incoming page copies can be merged without clobbering local updates.
package buffer

import (
	"container/list"
	"fmt"
	"sync"

	"adaptivecc/internal/storage"
)

// Frame describes one resident page. Frames are owned by the pool; all
// access goes through Pool methods under the pool lock.
type frame struct {
	page  *storage.Page
	avail storage.AvailMask
	dirty storage.AvailMask
	pins  int
	elem  *list.Element // position in LRU list; nil while pinned out
}

// Eviction reports a page pushed out of the pool to make room.
type Eviction struct {
	ID    storage.ItemID
	Page  *storage.Page
	Dirty storage.AvailMask // nonzero if locally dirty objects were evicted
	Avail storage.AvailMask
}

// Pool is a fixed-capacity page cache with LRU replacement.
type Pool struct {
	mu       sync.Mutex
	capacity int
	frames   map[storage.ItemID]*frame
	lru      *list.List // front = least recently used; holds storage.ItemID
}

// NewPool returns a pool holding at most capacity pages.
func NewPool(capacity int) *Pool {
	if capacity < 1 {
		capacity = 1
	}
	return &Pool{
		capacity: capacity,
		frames:   make(map[storage.ItemID]*frame, capacity),
		lru:      list.New(),
	}
}

// Len reports the number of resident pages.
func (p *Pool) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.frames)
}

// Contains reports whether a page is resident.
func (p *Pool) Contains(id storage.ItemID) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	_, ok := p.frames[id]
	return ok
}

func (p *Pool) touchLocked(id storage.ItemID, f *frame) {
	if f.elem != nil {
		p.lru.MoveToBack(f.elem)
	}
}

// Insert places a page into the pool with the given availability mask,
// evicting LRU unpinned pages as needed. If the page is already resident
// the existing frame is replaced wholesale (callers wanting a merge use
// the object-level methods instead). It returns any evictions performed.
func (p *Pool) Insert(id storage.ItemID, page *storage.Page, avail storage.AvailMask) []Eviction {
	p.mu.Lock()
	defer p.mu.Unlock()
	if f, ok := p.frames[id]; ok {
		f.page = page
		f.avail = avail
		p.touchLocked(id, f)
		return nil
	}
	ev := p.makeRoomLocked()
	f := &frame{page: page, avail: avail}
	f.elem = p.lru.PushBack(id)
	p.frames[id] = f
	return ev
}

func (p *Pool) makeRoomLocked() []Eviction {
	var out []Eviction
	for len(p.frames) >= p.capacity {
		evicted := false
		for e := p.lru.Front(); e != nil; e = e.Next() {
			id, ok := e.Value.(storage.ItemID)
			if !ok {
				continue
			}
			f := p.frames[id]
			if f.pins > 0 {
				continue
			}
			p.lru.Remove(e)
			delete(p.frames, id)
			out = append(out, Eviction{ID: id, Page: f.page, Dirty: f.dirty, Avail: f.avail})
			evicted = true
			break
		}
		if !evicted {
			// Everything is pinned: allow temporary overflow rather than
			// deadlock; the next insert will retry eviction.
			break
		}
	}
	return out
}

// EvictAll drains the pool, returning every resident page as an eviction,
// pinned pages included — the client-detach path, where no transaction is
// active to hold a pin legitimately. The pool is empty afterwards.
func (p *Pool) EvictAll() []Eviction {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]Eviction, 0, len(p.frames))
	for id, f := range p.frames {
		out = append(out, Eviction{ID: id, Page: f.page, Dirty: f.dirty, Avail: f.avail})
	}
	p.frames = make(map[storage.ItemID]*frame, p.capacity)
	p.lru.Init()
	return out
}

// Remove purges a page (e.g. on callback invalidation), regardless of LRU
// position. It reports whether the page was resident and its dirty mask.
func (p *Pool) Remove(id storage.ItemID) (storage.AvailMask, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	f, ok := p.frames[id]
	if !ok {
		return 0, false
	}
	if f.elem != nil {
		p.lru.Remove(f.elem)
	}
	delete(p.frames, id)
	return f.dirty, true
}

// Pin prevents eviction of a resident page; it reports false if absent.
func (p *Pool) Pin(id storage.ItemID) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	f, ok := p.frames[id]
	if !ok {
		return false
	}
	f.pins++
	p.touchLocked(id, f)
	return true
}

// Unpin releases one pin.
func (p *Pool) Unpin(id storage.ItemID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if f, ok := p.frames[id]; ok && f.pins > 0 {
		f.pins--
	}
}

// Page returns the resident page (shared, not a copy) and its availability.
func (p *Pool) Page(id storage.ItemID) (*storage.Page, storage.AvailMask, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	f, ok := p.frames[id]
	if !ok {
		return nil, 0, false
	}
	p.touchLocked(id, f)
	return f.page, f.avail, true
}

// ClonePage returns a deep copy of the resident page.
func (p *Pool) ClonePage(id storage.ItemID) (*storage.Page, storage.AvailMask, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	f, ok := p.frames[id]
	if !ok {
		return nil, 0, false
	}
	p.touchLocked(id, f)
	return f.page.Clone(), f.avail, true
}

// ReadObject returns an object's bytes if the page is resident and the
// object is available. The result is the cached slot slice itself, clipped
// to its length (cap == len): a read-only view of the value read. Slots are
// immutable (see storage.Page) — WriteObject, InstallObject and Merge
// replace a slot's slice, SetAvail and Remove only drop the reference — so
// the view never changes afterwards. Callers copy before modifying; an
// append reallocates instead of writing into the slot's slack.
func (p *Pool) ReadObject(id storage.ItemID, slot uint16) ([]byte, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	f, ok := p.frames[id]
	if !ok || !f.avail.Has(slot) {
		return nil, false
	}
	p.touchLocked(id, f)
	data, err := f.page.Object(slot)
	if err != nil {
		return nil, false
	}
	return data[:len(data):len(data)], true
}

// WriteObject stores data into an available object slot and marks it dirty.
func (p *Pool) WriteObject(id storage.ItemID, slot uint16, data []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	f, ok := p.frames[id]
	if !ok {
		return fmt.Errorf("buffer: page %v not resident", id)
	}
	if !f.avail.Has(slot) {
		return fmt.Errorf("buffer: object %v.%d unavailable", id, slot)
	}
	if err := f.page.SetObject(slot, data); err != nil {
		return err
	}
	f.dirty = f.dirty.With(slot)
	p.touchLocked(id, f)
	return nil
}

// InstallObject overwrites a slot's bytes without touching availability or
// dirty bits. The server uses it during redo.
func (p *Pool) InstallObject(id storage.ItemID, slot uint16, data []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	f, ok := p.frames[id]
	if !ok {
		return fmt.Errorf("buffer: page %v not resident", id)
	}
	p.touchLocked(id, f)
	return f.page.SetObject(slot, data)
}

// Avail reports the availability mask of a resident page.
func (p *Pool) Avail(id storage.ItemID) (storage.AvailMask, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	f, ok := p.frames[id]
	if !ok {
		return 0, false
	}
	return f.avail, true
}

// SetAvail sets or clears one availability bit. It reports false if the
// page is not resident.
func (p *Pool) SetAvail(id storage.ItemID, slot uint16, available bool) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	f, ok := p.frames[id]
	if !ok {
		return false
	}
	if available {
		f.avail = f.avail.With(slot)
	} else {
		f.avail = f.avail.Without(slot)
	}
	return true
}

// Dirty reports the dirty-object mask of a resident page.
func (p *Pool) Dirty(id storage.ItemID) (storage.AvailMask, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	f, ok := p.frames[id]
	if !ok {
		return 0, false
	}
	return f.dirty, true
}

// SetDirtySlot sets or clears one dirty bit.
func (p *Pool) SetDirtySlot(id storage.ItemID, slot uint16, dirty bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	f, ok := p.frames[id]
	if !ok {
		return
	}
	if dirty {
		f.dirty = f.dirty.With(slot)
	} else {
		f.dirty = f.dirty.Without(slot)
	}
}

// Merge incorporates an incoming page copy into a resident frame per the
// paper's §4.2.3 rules, object by object:
//   - objects dirty locally keep their local bytes;
//   - objects already available stay available (a pending callback will
//     invalidate them if needed), keeping local bytes;
//   - other objects take the incoming bytes, and their availability is the
//     incoming proposal unless vetoed (the caller passes the veto set from
//     the callback race table).
//
// If the page is not resident it is inserted with the proposed availability
// minus vetoes. Returns evictions from a fresh insert.
func (p *Pool) Merge(id storage.ItemID, incoming *storage.Page, proposed storage.AvailMask, veto storage.AvailMask) []Eviction {
	p.mu.Lock()
	f, ok := p.frames[id]
	if !ok {
		p.mu.Unlock()
		return p.Insert(id, incoming, proposed&^veto)
	}
	defer p.mu.Unlock()
	for s := 0; s < incoming.NumObjects(); s++ {
		slot := uint16(s)
		if f.dirty.Has(slot) || f.avail.Has(slot) {
			continue // keep the local copy and state
		}
		data, err := incoming.Object(slot)
		if err != nil {
			continue
		}
		if err := f.page.SetObject(slot, data); err != nil {
			continue
		}
		if proposed.Has(slot) && !veto.Has(slot) {
			f.avail = f.avail.With(slot)
		}
	}
	// The dummy object follows the same rule at the bit level.
	if !f.avail.Has(storage.DummySlot) && proposed.Has(storage.DummySlot) && !veto.Has(storage.DummySlot) {
		f.avail = f.avail.With(storage.DummySlot)
	}
	p.touchLocked(id, f)
	return nil
}

// PagesOf lists resident pages contained in item (a file or volume), used
// by coarse-grain callbacks to purge whole files.
func (p *Pool) PagesOf(item storage.ItemID) []storage.ItemID {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []storage.ItemID
	for id := range p.frames {
		if item.Contains(id) {
			out = append(out, id)
		}
	}
	return out
}

// AllPages lists every resident page ID.
func (p *Pool) AllPages() []storage.ItemID {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]storage.ItemID, 0, len(p.frames))
	for id := range p.frames {
		out = append(out, id)
	}
	return out
}
