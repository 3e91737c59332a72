package storage

import (
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"

	"adaptivecc/internal/sim"
)

func TestItemIDHierarchy(t *testing.T) {
	o := ObjectItem(2, 3, 40, 5)
	p, ok := o.Parent()
	if !ok || p != PageItem(2, 3, 40) {
		t.Fatalf("object parent = %v", p)
	}
	f, ok := p.Parent()
	if !ok || f != FileItem(2, 3) {
		t.Fatalf("page parent = %v", f)
	}
	v, ok := f.Parent()
	if !ok || v != VolumeItem(2) {
		t.Fatalf("file parent = %v", v)
	}
	if _, ok := v.Parent(); ok {
		t.Fatal("volume has a parent")
	}
}

func TestAncestorsOrderedRootFirst(t *testing.T) {
	o := ObjectItem(2, 3, 40, 5)
	anc := o.Ancestors()
	want := []ItemID{VolumeItem(2), FileItem(2, 3), PageItem(2, 3, 40)}
	if len(anc) != len(want) {
		t.Fatalf("ancestors = %v", anc)
	}
	for i := range want {
		if anc[i] != want[i] {
			t.Errorf("ancestors[%d] = %v, want %v", i, anc[i], want[i])
		}
	}
}

func TestContains(t *testing.T) {
	tests := []struct {
		a, b ItemID
		want bool
	}{
		{VolumeItem(1), ObjectItem(1, 2, 3, 4), true},
		{FileItem(1, 2), PageItem(1, 2, 9), true},
		{FileItem(1, 2), PageItem(1, 3, 9), false},
		{PageItem(1, 2, 3), ObjectItem(1, 2, 3, 0), true},
		{PageItem(1, 2, 3), ObjectItem(1, 2, 4, 0), false},
		{ObjectItem(1, 2, 3, 4), ObjectItem(1, 2, 3, 4), true},
		{ObjectItem(1, 2, 3, 4), PageItem(1, 2, 3), false},
		{VolumeItem(1), VolumeItem(2), false},
	}
	for _, tt := range tests {
		if got := tt.a.Contains(tt.b); got != tt.want {
			t.Errorf("%v.Contains(%v) = %v, want %v", tt.a, tt.b, got, tt.want)
		}
	}
}

// TestItemIDPacksWithoutPadding pins the layout the lock table's speed
// rests on: a 16-byte key whose fields fill it exactly is hashed and
// compared as plain memory, while a padded one is hashed field by field.
// A new or widened field must come with a layout that keeps this true.
func TestItemIDPacksWithoutPadding(t *testing.T) {
	if got := unsafe.Sizeof(ItemID{}); got != 16 {
		t.Errorf("unsafe.Sizeof(ItemID{}) = %d, want 16", got)
	}
	rt := reflect.TypeOf(ItemID{})
	var fields uintptr
	for i := 0; i < rt.NumField(); i++ {
		fields += rt.Field(i).Type.Size()
	}
	if fields != rt.Size() {
		t.Errorf("ItemID fields take %d bytes of %d: the rest is padding", fields, rt.Size())
	}
}

func TestContainsQuick(t *testing.T) {
	// Property: an item always contains itself and every ancestor contains it.
	f := func(vol uint16, file, pg uint32, slot uint16) bool {
		o := ObjectItem(VolumeID(vol), file, pg, slot%DefaultObjectsPerPage)
		if !o.Contains(o) {
			return false
		}
		for _, a := range o.Ancestors() {
			if !a.Contains(o) || o.Contains(a) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAvailMask(t *testing.T) {
	m := AllAvailable(20)
	if !m.FullFor(20) {
		t.Fatal("AllAvailable not full")
	}
	if m.Count() != 20 {
		t.Fatalf("Count = %d, want 20", m.Count())
	}
	m = m.Without(5)
	if m.Has(5) {
		t.Error("slot 5 still available")
	}
	if m.FullFor(20) {
		t.Error("mask full after removal")
	}
	m = m.With(5)
	if !m.FullFor(20) {
		t.Error("mask not full after restore")
	}
	// Dummy bit behaves like a slot.
	m = m.Without(DummySlot)
	if m.Has(DummySlot) || m.FullFor(20) {
		t.Error("dummy removal not reflected")
	}
	if m.Count() != 20 {
		t.Error("dummy bit counted as real object")
	}
}

func TestAvailMaskRoundTripQuick(t *testing.T) {
	f := func(bits uint64, slot uint16) bool {
		s := slot % DefaultObjectsPerPage
		m := AvailMask(bits)
		return m.With(s).Has(s) && !m.Without(s).Has(s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPageObjects(t *testing.T) {
	p := NewPage(PageItem(1, 1, 0), 20, 200)
	if p.NumObjects() != 20 {
		t.Fatalf("NumObjects = %d", p.NumObjects())
	}
	if err := p.SetObject(3, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	got, err := p.Object(3)
	if err != nil || string(got) != "hello" {
		t.Fatalf("Object = %q, %v", got, err)
	}
	if _, err := p.Object(20); err == nil {
		t.Error("out-of-range read succeeded")
	}
	if err := p.SetObject(20, nil); err == nil {
		t.Error("out-of-range write succeeded")
	}
}

func TestPageCloneIsDeep(t *testing.T) {
	p := NewPage(PageItem(1, 1, 0), 4, 8)
	if err := p.SetObject(0, []byte("aaaa")); err != nil {
		t.Fatal(err)
	}
	c := p.Clone()
	if err := c.SetObject(0, []byte("bbbb")); err != nil {
		t.Fatal(err)
	}
	got, _ := p.Object(0)
	if string(got) != "aaaa" {
		t.Errorf("original mutated through clone: %q", got)
	}
}

func TestVolumeFileAndIO(t *testing.T) {
	stats := sim.NewStats()
	v := NewVolume(7, sim.DefaultCosts(0), stats)
	info, err := v.CreateFile(1, 0, 100, 20, 64)
	if err != nil {
		t.Fatal(err)
	}
	if info.NumPages != 100 || v.NumPages() != 100 {
		t.Fatalf("pages = %d", v.NumPages())
	}
	if _, err := v.CreateFile(1, 0, 1, 1, 1); err == nil {
		t.Error("duplicate file created")
	}

	id := PageItem(7, 1, 42)
	p, err := v.ReadPage(id)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Get(sim.CtrDiskReads) != 1 {
		t.Errorf("disk reads = %d, want 1", stats.Get(sim.CtrDiskReads))
	}
	if err := p.SetObject(0, []byte("xyz")); err != nil {
		t.Fatal(err)
	}
	if err := v.WritePage(p); err != nil {
		t.Fatal(err)
	}
	if stats.Get(sim.CtrDiskWrites) != 1 {
		t.Errorf("disk writes = %d, want 1", stats.Get(sim.CtrDiskWrites))
	}
	back, err := v.ReadPage(id)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := back.Object(0)
	if string(got) != "xyz" {
		t.Errorf("read back %q", got)
	}
	// Writes install copies: further mutation of p must not leak.
	if err := p.SetObject(0, []byte("mut")); err != nil {
		t.Fatal(err)
	}
	back2, _ := v.PeekPage(id)
	got2, _ := back2.Object(0)
	if string(got2) != "xyz" {
		t.Errorf("stable copy aliased caller page: %q", got2)
	}
}

func TestVolumeUnknownPage(t *testing.T) {
	v := NewVolume(1, sim.DefaultCosts(0), sim.NewStats())
	if _, err := v.ReadPage(PageItem(1, 1, 0)); err == nil {
		t.Error("read of unknown page succeeded")
	}
	if err := v.WritePage(NewPage(PageItem(1, 1, 0), 1, 1)); err == nil {
		t.Error("write of unknown page succeeded")
	}
}

func TestDirectoryMapping(t *testing.T) {
	d := NewDirectory()
	first := d.AddExtent(1, 1, 0, 100)
	if first != 0 {
		t.Fatalf("first extent starts at %d", first)
	}
	second := d.AddExtent(2, 1, 50, 25)
	if second != 100 {
		t.Fatalf("second extent starts at %d", second)
	}
	if d.Total() != 125 {
		t.Fatalf("Total = %d", d.Total())
	}

	id, err := d.Lookup(0)
	if err != nil || id != PageItem(1, 1, 0) {
		t.Errorf("Lookup(0) = %v, %v", id, err)
	}
	id, err = d.Lookup(99)
	if err != nil || id != PageItem(1, 1, 99) {
		t.Errorf("Lookup(99) = %v, %v", id, err)
	}
	id, err = d.Lookup(100)
	if err != nil || id != PageItem(2, 1, 50) {
		t.Errorf("Lookup(100) = %v, %v", id, err)
	}
	id, err = d.Lookup(124)
	if err != nil || id != PageItem(2, 1, 74) {
		t.Errorf("Lookup(124) = %v, %v", id, err)
	}
	if _, err := d.Lookup(125); err == nil {
		t.Error("out-of-range lookup succeeded")
	}

	oid, err := d.LookupObject(100, 3)
	if err != nil || oid != ObjectItem(2, 1, 50, 3) {
		t.Errorf("LookupObject = %v, %v", oid, err)
	}

	vols := d.OwnerVolumes()
	if len(vols) != 2 {
		t.Errorf("OwnerVolumes = %v", vols)
	}
}

func TestLevelStrings(t *testing.T) {
	if LevelVolume.String() != "volume" || LevelObject.String() != "object" {
		t.Error("level names wrong")
	}
	o := ObjectItem(1, 2, 3, 4)
	if o.String() != "v1.f2.p3.o4" {
		t.Errorf("String = %q", o.String())
	}
	if o.PageID() != PageItem(1, 2, 3) {
		t.Errorf("PageID = %v", o.PageID())
	}
}

// TestSetObjectReplacesSlot pins slot immutability: SetObject swaps the
// slot's slice, so a view taken from Object keeps the bytes it read.
func TestSetObjectReplacesSlot(t *testing.T) {
	p := NewPage(PageItem(1, 1, 0), 4, 8)
	if err := p.SetObject(0, []byte("aaaa")); err != nil {
		t.Fatal(err)
	}
	view, _ := p.Object(0)
	if err := p.SetObject(0, []byte("bbbb")); err != nil {
		t.Fatal(err)
	}
	if got, _ := p.Object(0); string(view) != "aaaa" || string(got) != "bbbb" {
		t.Errorf("view = %q, slot = %q; want aaaa, bbbb", view, got)
	}
}
