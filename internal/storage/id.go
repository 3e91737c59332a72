// Package storage defines the physical data model of the page server: the
// volume / file / page / object hierarchy, page and object representations,
// stable storage, and the simulated disk.
package storage

import (
	"fmt"
)

// VolumeID names a disk volume. Each volume is owned and managed by exactly
// one peer server.
type VolumeID uint16

// Level identifies a node's depth in the locking hierarchy. It is 32 bits
// wide so that ItemID packs without padding.
type Level int32

// The four levels of the SHORE locking hierarchy, coarsest first.
const (
	LevelVolume Level = iota + 1
	LevelFile
	LevelPage
	LevelObject
)

// String renders the level name.
func (l Level) String() string {
	switch l {
	case LevelVolume:
		return "volume"
	case LevelFile:
		return "file"
	case LevelPage:
		return "page"
	case LevelObject:
		return "object"
	default:
		return fmt.Sprintf("level(%d)", int(l))
	}
}

// ItemID identifies a lockable item at any level of the hierarchy. Fields
// below the item's level are zero and ignored. An ItemID is a comparable
// value type and is used as the lock table key: the fields are ordered so
// that the struct is 16 bytes with no padding, which lets the runtime hash
// and compare it as plain memory instead of field by field (every lock
// table access pays for one such hash). Build values with the constructors
// below or keyed literals, never positionally.
type ItemID struct {
	File  uint32
	Page  uint32
	Level Level
	Vol   VolumeID
	Slot  uint16
}

// VolumeItem returns the ItemID of a volume.
func VolumeItem(v VolumeID) ItemID { return ItemID{Level: LevelVolume, Vol: v} }

// FileItem returns the ItemID of a file.
func FileItem(v VolumeID, file uint32) ItemID {
	return ItemID{Level: LevelFile, Vol: v, File: file}
}

// PageItem returns the ItemID of a page within a file.
func PageItem(v VolumeID, file, page uint32) ItemID {
	return ItemID{Level: LevelPage, Vol: v, File: file, Page: page}
}

// ObjectItem returns the ItemID of an object slot within a page.
func ObjectItem(v VolumeID, file, page uint32, slot uint16) ItemID {
	return ItemID{Level: LevelObject, Vol: v, File: file, Page: page, Slot: slot}
}

// Parent returns the item one level up the hierarchy, and false at the root.
func (id ItemID) Parent() (ItemID, bool) {
	switch id.Level {
	case LevelObject:
		return PageItem(id.Vol, id.File, id.Page), true
	case LevelPage:
		return FileItem(id.Vol, id.File), true
	case LevelFile:
		return VolumeItem(id.Vol), true
	default:
		return ItemID{}, false
	}
}

// AncestorChain returns the chain of ancestors from the volume down to
// (but not including) the item itself, as a fixed array plus length, so
// hot callers (every Lock call walks it) pay no allocation.
func (id ItemID) AncestorChain() ([3]ItemID, int) {
	var rev [3]ItemID
	n := 0
	cur := id
	for {
		p, ok := cur.Parent()
		if !ok {
			break
		}
		rev[n] = p
		n++
		cur = p
	}
	// rev is child-to-root; flip to root-to-child.
	var out [3]ItemID
	for i := 0; i < n; i++ {
		out[i] = rev[n-1-i]
	}
	return out, n
}

// Ancestors returns the chain of ancestors from the volume down to (but not
// including) the item itself.
func (id ItemID) Ancestors() []ItemID {
	chain, n := id.AncestorChain()
	out := make([]ItemID, n)
	copy(out, chain[:n])
	return out
}

// Contains reports whether id is an ancestor of (or equal to) other.
func (id ItemID) Contains(other ItemID) bool {
	if id.Level > other.Level || id.Vol != other.Vol {
		return false
	}
	if id.Level >= LevelFile && id.File != other.File {
		return false
	}
	if id.Level >= LevelPage && id.Page != other.Page {
		return false
	}
	if id.Level >= LevelObject && id.Slot != other.Slot {
		return false
	}
	return true
}

// PageID returns the ItemID of the page containing this item. It panics if
// the item is above page level.
func (id ItemID) PageID() ItemID {
	switch id.Level {
	case LevelObject:
		return PageItem(id.Vol, id.File, id.Page)
	case LevelPage:
		return id
	default:
		panic(fmt.Sprintf("storage: PageID of %v", id))
	}
}

// String renders the ID as vol.file.page.slot prefixes per level.
func (id ItemID) String() string {
	switch id.Level {
	case LevelVolume:
		return fmt.Sprintf("v%d", id.Vol)
	case LevelFile:
		return fmt.Sprintf("v%d.f%d", id.Vol, id.File)
	case LevelPage:
		return fmt.Sprintf("v%d.f%d.p%d", id.Vol, id.File, id.Page)
	case LevelObject:
		return fmt.Sprintf("v%d.f%d.p%d.o%d", id.Vol, id.File, id.Page, id.Slot)
	default:
		return fmt.Sprintf("item(%d)", int(id.Level))
	}
}
