// Package largeobj implements SHORE-style large objects (paper §4.4):
// objects whose contents span multiple pages, stored as a small header
// plus a tree of private pages. The header lives among ordinary small
// objects and is locked through the regular PS-AA path, so callbacks and
// adaptive locks protect it like any object; the data pages are private to
// one large object, and access to them is serialized by the header lock —
// page-grain transfers with no per-page logical locks, exactly as the
// paper prescribes.
//
// Layout: a header records the byte size, up to HeaderDirect direct data
// page numbers, and one optional index page whose slots hold further data
// page numbers (a two-level tree; the header is the root, as the paper's
// footnote 5 allows).
package largeobj

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"adaptivecc/internal/core"
	"adaptivecc/internal/lock"
	"adaptivecc/internal/storage"
)

// HeaderDirect is the number of direct page pointers in a header.
const HeaderDirect = 8

// Errors returned by the manager.
var (
	// ErrOutOfSpace is returned when the area has no free pages left.
	ErrOutOfSpace = errors.New("largeobj: data area exhausted")
	// ErrTooLarge is returned when an object exceeds the two-level tree.
	ErrTooLarge = errors.New("largeobj: object exceeds index capacity")
	// ErrBounds is returned for reads/writes outside the object.
	ErrBounds = errors.New("largeobj: offset/length out of bounds")
)

// Area is the region of a file dedicated to large-object pages.
type Area struct {
	Vol       storage.VolumeID
	File      uint32
	FirstPage uint32
	NumPages  uint32
}

// Handle identifies a large object by the location of its header.
type Handle struct {
	HeaderPage uint32 // page number within the area's file
	HeaderSlot uint16
}

// Manager allocates large objects within one area. Page allocation is
// out-of-band (not transactional): pages allocated by an aborted creation
// are leaked back only via Free.
type Manager struct {
	area           Area
	objectsPerPage int
	objectSize     int

	mu   sync.Mutex
	free []uint32 // free page numbers (within the file)
	next uint32   // next never-allocated page
	hdrs struct {
		page uint32
		slot uint16
	}
}

// NewManager manages the given area. The first page of the area is
// reserved for headers; the rest are data/index pages.
func NewManager(area Area, objectsPerPage, objectSize int) (*Manager, error) {
	if area.NumPages < 2 {
		return nil, fmt.Errorf("largeobj: area needs at least 2 pages")
	}
	if objectSize < 8 {
		return nil, fmt.Errorf("largeobj: object size %d too small for page pointers", objectSize)
	}
	m := &Manager{area: area, objectsPerPage: objectsPerPage, objectSize: objectSize}
	m.next = area.FirstPage + 1 // page 0 of the area holds headers
	m.hdrs.page = area.FirstPage
	return m, nil
}

// pageBytes is the usable payload of one data page.
func (m *Manager) pageBytes() int { return m.objectsPerPage * m.objectSize }

// maxSize is the largest object the header tree can address.
func (m *Manager) maxSize() int {
	entriesPerIndex := m.pageBytes() / 4
	return (HeaderDirect + entriesPerIndex) * m.pageBytes()
}

func (m *Manager) allocPage() (uint32, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if n := len(m.free); n > 0 {
		p := m.free[n-1]
		m.free = m.free[:n-1]
		return p, nil
	}
	if m.next >= m.area.FirstPage+m.area.NumPages {
		return 0, ErrOutOfSpace
	}
	p := m.next
	m.next++
	return p, nil
}

func (m *Manager) allocHeader() (Handle, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	h := Handle{HeaderPage: m.hdrs.page, HeaderSlot: m.hdrs.slot}
	m.hdrs.slot++
	if int(m.hdrs.slot) >= m.objectsPerPage {
		return Handle{}, fmt.Errorf("largeobj: header page full (one header page supported)")
	}
	return h, nil
}

// header is the decoded form of a large-object header.
type header struct {
	Size   uint32
	Direct [HeaderDirect]uint32 // page numbers; 0 = unset (page 0 is the header page, never data)
	Index  uint32               // index page number, 0 if none
}

func encodeHeader(h header) []byte {
	buf := make([]byte, 4*(2+HeaderDirect))
	binary.BigEndian.PutUint32(buf[0:], h.Size)
	binary.BigEndian.PutUint32(buf[4:], h.Index)
	for i, p := range h.Direct {
		binary.BigEndian.PutUint32(buf[8+4*i:], p)
	}
	return buf
}

func decodeHeader(data []byte) (header, error) {
	var h header
	if len(data) < 4*(2+HeaderDirect) {
		return h, fmt.Errorf("largeobj: short header (%d bytes)", len(data))
	}
	h.Size = binary.BigEndian.Uint32(data)
	h.Index = binary.BigEndian.Uint32(data[4:])
	for i := range h.Direct {
		h.Direct[i] = binary.BigEndian.Uint32(data[8+4*i:])
	}
	return h, nil
}

func (m *Manager) headerObj(h Handle) storage.ItemID {
	return storage.ObjectItem(m.area.Vol, m.area.File, h.HeaderPage, h.HeaderSlot)
}

func (m *Manager) pageItem(page uint32) storage.ItemID {
	return storage.PageItem(m.area.Vol, m.area.File, page)
}

// dataPages resolves the ordered data page list of an object, reading the
// index page if present.
func (m *Manager) dataPages(tx *core.Tx, h header) ([]uint32, error) {
	n := (int(h.Size) + m.pageBytes() - 1) / m.pageBytes()
	pages := make([]uint32, 0, n)
	for i := 0; i < n && i < HeaderDirect; i++ {
		pages = append(pages, h.Direct[i])
	}
	if n <= HeaderDirect {
		return pages, nil
	}
	if h.Index == 0 {
		return nil, fmt.Errorf("largeobj: header missing index page for size %d", h.Size)
	}
	idx, err := m.readPagePayload(tx, h.Index)
	if err != nil {
		return nil, err
	}
	for i := HeaderDirect; i < n; i++ {
		off := 4 * (i - HeaderDirect)
		pages = append(pages, binary.BigEndian.Uint32(idx[off:]))
	}
	return pages, nil
}

// readPagePayload takes an SH page lock (shipping the whole page) and
// concatenates its slots. Per §4.4, no object-level locks are taken on
// large-object pages: the header lock is the guard, and the page lock is
// the transfer vehicle.
func (m *Manager) readPagePayload(tx *core.Tx, page uint32) ([]byte, error) {
	item := m.pageItem(page)
	if err := tx.LockItem(item, lock.SH); err != nil {
		return nil, err
	}
	buf := make([]byte, 0, m.pageBytes())
	for s := 0; s < m.objectsPerPage; s++ {
		chunk, err := tx.Read(storage.ObjectItem(m.area.Vol, m.area.File, page, uint16(s)))
		if err != nil {
			return nil, err
		}
		if len(chunk) < m.objectSize {
			// chunk is a read-only view with cap == len (core.Tx.Read):
			// the append reallocates, it cannot write into the cached slot.
			chunk = append(chunk, make([]byte, m.objectSize-len(chunk))...)
		}
		buf = append(buf, chunk[:m.objectSize]...)
	}
	return buf, nil
}

// writePagePayload takes an EX page lock (the owner calls the page back
// from every other cache) and writes the payload across the slots.
func (m *Manager) writePagePayload(tx *core.Tx, page uint32, payload []byte) error {
	if len(payload) != m.pageBytes() {
		return fmt.Errorf("largeobj: payload %d bytes, want %d", len(payload), m.pageBytes())
	}
	item := m.pageItem(page)
	if err := tx.LockItem(item, lock.EX); err != nil {
		return err
	}
	for s := 0; s < m.objectsPerPage; s++ {
		obj := storage.ObjectItem(m.area.Vol, m.area.File, page, uint16(s))
		if err := tx.Write(obj, payload[s*m.objectSize:(s+1)*m.objectSize]); err != nil {
			return err
		}
	}
	return nil
}

// Create allocates a large object holding data and returns its handle.
// The header is written under the transaction; the caller commits.
func (m *Manager) Create(tx *core.Tx, data []byte) (Handle, error) {
	if len(data) > m.maxSize() {
		return Handle{}, ErrTooLarge
	}
	hd, err := m.allocHeader()
	if err != nil {
		return Handle{}, err
	}
	pb := m.pageBytes()
	n := (len(data) + pb - 1) / pb

	var h header
	h.Size = uint32(len(data))
	pages := make([]uint32, n)
	for i := 0; i < n; i++ {
		p, err := m.allocPage()
		if err != nil {
			return Handle{}, err
		}
		pages[i] = p
		if i < HeaderDirect {
			h.Direct[i] = p
		}
	}
	if n > HeaderDirect {
		idxPage, err := m.allocPage()
		if err != nil {
			return Handle{}, err
		}
		h.Index = idxPage
		idx := make([]byte, pb)
		for i := HeaderDirect; i < n; i++ {
			binary.BigEndian.PutUint32(idx[4*(i-HeaderDirect):], pages[i])
		}
		if err := m.writePagePayload(tx, idxPage, idx); err != nil {
			return Handle{}, err
		}
	}

	// Write the data pages.
	for i, p := range pages {
		chunk := make([]byte, pb)
		lo := i * pb
		hi := lo + pb
		if hi > len(data) {
			hi = len(data)
		}
		copy(chunk, data[lo:hi])
		if err := m.writePagePayload(tx, p, chunk); err != nil {
			return Handle{}, err
		}
	}

	// Write the header last: EX on the header is the object's logical lock.
	if err := tx.Write(m.headerObj(hd), encodeHeader(h)); err != nil {
		return Handle{}, err
	}
	return hd, nil
}

// Size reads the object's byte size (SH on the header).
func (m *Manager) Size(tx *core.Tx, hd Handle) (int, error) {
	raw, err := tx.Read(m.headerObj(hd))
	if err != nil {
		return 0, err
	}
	h, err := decodeHeader(raw)
	if err != nil {
		return 0, err
	}
	return int(h.Size), nil
}

// Read returns length bytes starting at offset. The header is read in SH
// mode via PS-AA; only the data pages covering the range are fetched, and
// pages already cached are read without owner interaction.
func (m *Manager) Read(tx *core.Tx, hd Handle, offset, length int) ([]byte, error) {
	raw, err := tx.Read(m.headerObj(hd))
	if err != nil {
		return nil, err
	}
	h, err := decodeHeader(raw)
	if err != nil {
		return nil, err
	}
	if offset < 0 || length < 0 || offset+length > int(h.Size) {
		return nil, ErrBounds
	}
	pages, err := m.dataPages(tx, h)
	if err != nil {
		return nil, err
	}
	pb := m.pageBytes()
	out := make([]byte, 0, length)
	for pos := offset; pos < offset+length; {
		pi := pos / pb
		payload, err := m.readPagePayload(tx, pages[pi])
		if err != nil {
			return nil, err
		}
		lo := pos % pb
		hi := pb
		if remaining := offset + length - pi*pb; remaining < hi {
			hi = remaining
		}
		out = append(out, payload[lo:hi]...)
		pos = (pi + 1) * pb
	}
	return out, nil
}

// Write overwrites length bytes at offset (no size change). The header is
// locked EX first — the paper's rule: updating a large object first locks
// its header in EX mode via PS-AA, which calls the header back from other
// clients; then each affected data page is called back and updated.
func (m *Manager) Write(tx *core.Tx, hd Handle, offset int, data []byte) error {
	hdrObj := m.headerObj(hd)
	raw, err := tx.Read(hdrObj)
	if err != nil {
		return err
	}
	h, err := decodeHeader(raw)
	if err != nil {
		return err
	}
	if offset < 0 || offset+len(data) > int(h.Size) {
		return ErrBounds
	}
	// EX on the header = the object's write lock.
	if err := tx.Write(hdrObj, raw); err != nil {
		return err
	}
	pages, err := m.dataPages(tx, h)
	if err != nil {
		return err
	}
	pb := m.pageBytes()
	for pos := offset; pos < offset+len(data); {
		pi := pos / pb
		lo := pos % pb
		hi := pb
		if remaining := offset + len(data) - pi*pb; remaining < hi {
			hi = remaining
		}
		var payload []byte
		if lo == 0 && hi == pb {
			payload = make([]byte, pb) // full-page overwrite: no read-back
		} else {
			payload, err = m.readPagePayload(tx, pages[pi])
			if err != nil {
				return err
			}
		}
		copy(payload[lo:hi], data[pos-offset:])
		if err := m.writePagePayload(tx, pages[pi], payload); err != nil {
			return err
		}
		pos = pi*pb + hi
	}
	return nil
}

// Free returns the object's pages to the allocator. The caller must hold
// the object exclusively (e.g. have just read the header in a transaction
// that then commits a tombstone); page reuse is out-of-band like
// allocation.
func (m *Manager) Free(tx *core.Tx, hd Handle) error {
	raw, err := tx.Read(m.headerObj(hd))
	if err != nil {
		return err
	}
	h, err := decodeHeader(raw)
	if err != nil {
		return err
	}
	if err := tx.Write(m.headerObj(hd), encodeHeader(header{})); err != nil {
		return err
	}
	pages, err := m.dataPages(tx, h)
	if err != nil {
		return err
	}
	m.mu.Lock()
	m.free = append(m.free, pages...)
	if h.Index != 0 {
		m.free = append(m.free, h.Index)
	}
	m.mu.Unlock()
	return nil
}
