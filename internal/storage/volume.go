package storage

import (
	"fmt"
	"sync"

	"adaptivecc/internal/sim"
)

// Disk models a volume's disk: a FIFO resource charged one DiskIO per page
// read or write.
type Disk struct {
	res   *sim.Resource
	costs sim.CostTable
	stats *sim.Stats
}

// NewDisk returns a disk backed by its own FIFO resource.
func NewDisk(name string, costs sim.CostTable, stats *sim.Stats) *Disk {
	return &Disk{res: sim.NewResource(name, costs), costs: costs, stats: stats}
}

// Read charges one page read.
func (d *Disk) Read() {
	d.stats.Inc(sim.CtrDiskReads)
	d.res.Use(d.costs.DiskIO)
}

// Write charges one page write.
func (d *Disk) Write() {
	d.stats.Inc(sim.CtrDiskWrites)
	d.res.Use(d.costs.DiskIO)
}

// Resource exposes the underlying resource for utilization reporting.
func (d *Disk) Resource() *sim.Resource { return d.res }

// Stats exposes the counter set the disk charges its I/O to.
func (d *Disk) Stats() *sim.Stats { return d.stats }

// Volume is the stable storage of one disk volume: the authoritative copy
// of every page it holds, behind a simulated disk. A volume is owned by
// exactly one peer server, which is the only site that reads or writes it.
type Volume struct {
	ID   VolumeID
	disk *Disk

	mu    sync.Mutex
	pages map[ItemID]*Page
	files map[uint32]*FileInfo
}

// FileInfo describes one file on a volume: a contiguous range of page
// numbers.
type FileInfo struct {
	ID        ItemID
	FirstPage uint32
	NumPages  uint32
}

// NewVolume creates an empty volume with its own disk.
func NewVolume(id VolumeID, costs sim.CostTable, stats *sim.Stats) *Volume {
	return &Volume{
		ID:    id,
		disk:  NewDisk(fmt.Sprintf("disk-v%d", id), costs, stats),
		pages: make(map[ItemID]*Page),
		files: make(map[uint32]*FileInfo),
	}
}

// Disk exposes the volume's disk.
func (v *Volume) Disk() *Disk { return v.disk }

// CreateFile allocates a file of numPages pages, each with objectsPerPage
// slots of slotSize bytes, and returns its info. Page numbers within the
// file start at firstPage.
func (v *Volume) CreateFile(file uint32, firstPage, numPages uint32, objectsPerPage, slotSize int) (*FileInfo, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if _, ok := v.files[file]; ok {
		return nil, fmt.Errorf("storage: file %d already exists on volume %d", file, v.ID)
	}
	info := &FileInfo{ID: FileItem(v.ID, file), FirstPage: firstPage, NumPages: numPages}
	v.files[file] = info
	for p := firstPage; p < firstPage+numPages; p++ {
		id := PageItem(v.ID, file, p)
		v.pages[id] = NewPage(id, objectsPerPage, slotSize)
	}
	return info, nil
}

// File returns the info of a file on this volume.
func (v *Volume) File(file uint32) (*FileInfo, bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	info, ok := v.files[file]
	return info, ok
}

// ReadPage fetches a deep copy of a page from stable storage, charging one
// disk read.
func (v *Volume) ReadPage(id ItemID) (*Page, error) {
	v.mu.Lock()
	p, ok := v.pages[id]
	var cp *Page
	if ok {
		cp = p.Clone()
	}
	v.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("storage: page %v not on volume %d", id, v.ID)
	}
	v.disk.Read()
	return cp, nil
}

// WritePage installs a deep copy of a page into stable storage, charging
// one disk write.
func (v *Volume) WritePage(p *Page) error {
	v.mu.Lock()
	_, ok := v.pages[p.ID]
	if ok {
		v.pages[p.ID] = p.Clone()
	}
	v.mu.Unlock()
	if !ok {
		return fmt.Errorf("storage: page %v not on volume %d", p.ID, v.ID)
	}
	v.disk.Write()
	return nil
}

// PeekPage returns the stable copy without charging disk time. It is used
// by tests and by database bootstrap.
func (v *Volume) PeekPage(id ItemID) (*Page, bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	p, ok := v.pages[id]
	if !ok {
		return nil, false
	}
	return p.Clone(), true
}

// NumPages reports the number of pages on the volume.
func (v *Volume) NumPages() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.pages)
}
