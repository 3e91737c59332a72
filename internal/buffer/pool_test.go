package buffer

import (
	"testing"

	"adaptivecc/internal/storage"
)

func pid(p uint32) storage.ItemID { return storage.PageItem(1, 1, p) }

func newPage(p uint32) *storage.Page {
	return storage.NewPage(pid(p), 4, 16)
}

func full() storage.AvailMask { return storage.AllAvailable(4) }

func TestInsertAndGet(t *testing.T) {
	pool := NewPool(10)
	pool.Insert(pid(1), newPage(1), full())
	if !pool.Contains(pid(1)) {
		t.Fatal("page not resident")
	}
	pg, avail, ok := pool.Page(pid(1))
	if !ok || pg == nil || !avail.FullFor(4) {
		t.Fatalf("Page = %v %v %v", pg, avail, ok)
	}
}

func TestLRUEviction(t *testing.T) {
	pool := NewPool(3)
	for i := uint32(1); i <= 3; i++ {
		pool.Insert(pid(i), newPage(i), full())
	}
	// Touch page 1 so page 2 becomes LRU.
	pool.Page(pid(1))
	ev := pool.Insert(pid(4), newPage(4), full())
	if len(ev) != 1 || ev[0].ID != pid(2) {
		t.Fatalf("evicted %v, want page 2", ev)
	}
	if pool.Contains(pid(2)) {
		t.Error("page 2 still resident")
	}
	if pool.Len() != 3 {
		t.Errorf("Len = %d", pool.Len())
	}
}

func TestPinPreventsEviction(t *testing.T) {
	pool := NewPool(2)
	pool.Insert(pid(1), newPage(1), full())
	pool.Insert(pid(2), newPage(2), full())
	if !pool.Pin(pid(1)) {
		t.Fatal("pin failed")
	}
	ev := pool.Insert(pid(3), newPage(3), full())
	if len(ev) != 1 || ev[0].ID != pid(2) {
		t.Fatalf("evicted %v, want page 2 (1 pinned)", ev)
	}
	pool.Unpin(pid(1))
	ev = pool.Insert(pid(4), newPage(4), full())
	found := false
	for _, e := range ev {
		if e.ID == pid(1) {
			found = true
		}
	}
	if !found {
		t.Errorf("page 1 not evicted after unpin: %v", ev)
	}
	if pool.Pin(pid(99)) {
		t.Error("pin of absent page succeeded")
	}
}

func TestAllPinnedOverflows(t *testing.T) {
	pool := NewPool(1)
	pool.Insert(pid(1), newPage(1), full())
	pool.Pin(pid(1))
	ev := pool.Insert(pid(2), newPage(2), full())
	if len(ev) != 0 {
		t.Fatalf("evicted %v with everything pinned", ev)
	}
	if pool.Len() != 2 {
		t.Errorf("Len = %d, want temporary overflow to 2", pool.Len())
	}
}

func TestEvictionReportsDirty(t *testing.T) {
	pool := NewPool(1)
	pool.Insert(pid(1), newPage(1), full())
	if err := pool.WriteObject(pid(1), 2, []byte("x")); err != nil {
		t.Fatal(err)
	}
	ev := pool.Insert(pid(2), newPage(2), full())
	if len(ev) != 1 || !ev[0].Dirty.Has(2) {
		t.Fatalf("eviction = %+v, want dirty slot 2", ev)
	}
}

func TestReadWriteObjectAvailability(t *testing.T) {
	pool := NewPool(4)
	avail := full().Without(1)
	pool.Insert(pid(1), newPage(1), avail)

	if _, ok := pool.ReadObject(pid(1), 1); ok {
		t.Error("read of unavailable object succeeded")
	}
	if err := pool.WriteObject(pid(1), 1, []byte("x")); err == nil {
		t.Error("write of unavailable object succeeded")
	}
	if err := pool.WriteObject(pid(1), 0, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	got, ok := pool.ReadObject(pid(1), 0)
	if !ok || string(got) != "hello" {
		t.Fatalf("read = %q %v", got, ok)
	}
	d, _ := pool.Dirty(pid(1))
	if !d.Has(0) {
		t.Error("dirty bit not set")
	}
	pool.SetDirtySlot(pid(1), 0, false)
	d, _ = pool.Dirty(pid(1))
	if d != 0 {
		t.Error("dirty mask not cleared")
	}
	if _, ok := pool.ReadObject(pid(9), 0); ok {
		t.Error("read from absent page succeeded")
	}
}

func TestSetAvail(t *testing.T) {
	pool := NewPool(4)
	pool.Insert(pid(1), newPage(1), full())
	if !pool.SetAvail(pid(1), 2, false) {
		t.Fatal("SetAvail failed")
	}
	a, _ := pool.Avail(pid(1))
	if a.Has(2) {
		t.Error("slot still available")
	}
	pool.SetAvail(pid(1), 2, true)
	a, _ = pool.Avail(pid(1))
	if !a.Has(2) {
		t.Error("slot not restored")
	}
	if pool.SetAvail(pid(9), 0, true) {
		t.Error("SetAvail on absent page succeeded")
	}
}

func TestRemove(t *testing.T) {
	pool := NewPool(4)
	pool.Insert(pid(1), newPage(1), full())
	pool.WriteObject(pid(1), 3, []byte("d"))
	dirty, ok := pool.Remove(pid(1))
	if !ok || !dirty.Has(3) {
		t.Fatalf("Remove = %v %v", dirty, ok)
	}
	if pool.Contains(pid(1)) {
		t.Error("page still resident")
	}
	if _, ok := pool.Remove(pid(1)); ok {
		t.Error("second remove succeeded")
	}
}

func TestMergeKeepsDirtyAndCachedObjects(t *testing.T) {
	pool := NewPool(4)
	local := newPage(1)
	local.SetObject(0, []byte("localdirty"))
	local.SetObject(1, []byte("localclean"))
	// Slot 2 unavailable locally; slot 3 unavailable locally.
	avail := full().Without(2).Without(3)
	pool.Insert(pid(1), local, avail)
	pool.SetDirtySlot(pid(1), 0, true)

	incoming := newPage(1)
	incoming.SetObject(0, []byte("SERVER0"))
	incoming.SetObject(1, []byte("SERVER1"))
	incoming.SetObject(2, []byte("SERVER2"))
	incoming.SetObject(3, []byte("SERVER3"))
	proposed := full().Without(3) // server says slot 3 unavailable

	pool.Merge(pid(1), incoming, proposed, 0)

	got, _ := pool.ReadObject(pid(1), 0)
	if string(got) != "localdirty" {
		t.Errorf("dirty object overwritten: %q", got)
	}
	got, _ = pool.ReadObject(pid(1), 1)
	if string(got) != "localclean" {
		t.Errorf("cached object overwritten: %q", got)
	}
	got, ok := pool.ReadObject(pid(1), 2)
	if !ok || string(got) != "SERVER2" {
		t.Errorf("incoming object not installed: %q %v", got, ok)
	}
	if _, ok := pool.ReadObject(pid(1), 3); ok {
		t.Error("server-unavailable object became available")
	}
}

func TestMergeVetoBlocksAvailability(t *testing.T) {
	pool := NewPool(4)
	avail := full().Without(2)
	pool.Insert(pid(1), newPage(1), avail)

	incoming := newPage(1)
	incoming.SetObject(2, []byte("RACED"))
	var veto storage.AvailMask
	veto = veto.With(2)
	pool.Merge(pid(1), incoming, full(), veto)
	if _, ok := pool.ReadObject(pid(1), 2); ok {
		t.Error("vetoed object became available (callback race lost)")
	}
}

func TestMergeInsertsWhenAbsent(t *testing.T) {
	pool := NewPool(4)
	incoming := newPage(1)
	incoming.SetObject(0, []byte("NEW"))
	pool.Merge(pid(1), incoming, full().Without(1), 0)
	got, ok := pool.ReadObject(pid(1), 0)
	if !ok || string(got) != "NEW" {
		t.Fatalf("read = %q %v", got, ok)
	}
	if _, ok := pool.ReadObject(pid(1), 1); ok {
		t.Error("proposed-unavailable slot available after insert")
	}
}

func TestMergeRestoresDummyBit(t *testing.T) {
	pool := NewPool(4)
	pool.Insert(pid(1), newPage(1), full().Without(storage.DummySlot))
	pool.Merge(pid(1), newPage(1), full(), 0)
	a, _ := pool.Avail(pid(1))
	if !a.Has(storage.DummySlot) {
		t.Error("dummy bit not restored by merge")
	}
}

func TestPagesOf(t *testing.T) {
	pool := NewPool(10)
	pool.Insert(storage.PageItem(1, 1, 1), storage.NewPage(storage.PageItem(1, 1, 1), 4, 8), full())
	pool.Insert(storage.PageItem(1, 1, 2), storage.NewPage(storage.PageItem(1, 1, 2), 4, 8), full())
	pool.Insert(storage.PageItem(1, 2, 3), storage.NewPage(storage.PageItem(1, 2, 3), 4, 8), full())
	got := pool.PagesOf(storage.FileItem(1, 1))
	if len(got) != 2 {
		t.Errorf("PagesOf(file 1) = %v", got)
	}
	got = pool.PagesOf(storage.VolumeItem(1))
	if len(got) != 3 {
		t.Errorf("PagesOf(vol) = %v", got)
	}
	if got := pool.AllPages(); len(got) != 3 {
		t.Errorf("AllPages = %v", got)
	}
}

func TestInsertReplacesResident(t *testing.T) {
	pool := NewPool(4)
	pool.Insert(pid(1), newPage(1), full())
	p2 := newPage(1)
	p2.SetObject(0, []byte("v2"))
	ev := pool.Insert(pid(1), p2, full().Without(3))
	if len(ev) != 0 {
		t.Errorf("evictions on replace: %v", ev)
	}
	got, _ := pool.ReadObject(pid(1), 0)
	if string(got) != "v2" {
		t.Errorf("read = %q", got)
	}
	a, _ := pool.Avail(pid(1))
	if a.Has(3) {
		t.Error("avail not replaced")
	}
	if pool.Len() != 1 {
		t.Errorf("Len = %d", pool.Len())
	}
}

// TestReadObjectViewIsStable pins the contract ReadObject's copy-free hit
// rests on: the view is the slot's immutable slice, so nothing that later
// happens to the frame changes it, and its capacity is clipped so that a
// caller's append cannot write into the slot's slack.
func TestReadObjectViewIsStable(t *testing.T) {
	const slot = 1
	pool := NewPool(2)
	pool.Insert(pid(1), newPage(1), full())
	if err := pool.WriteObject(pid(1), slot, []byte("v0")); err != nil {
		t.Fatal(err)
	}

	// step takes a view, changes the frame through mutate, and checks that
	// the old view kept its bytes while a fresh read sees the new ones.
	step := func(name, old, want string, mutate func()) {
		t.Helper()
		view, ok := pool.ReadObject(pid(1), slot)
		if !ok || string(view) != old {
			t.Fatalf("%s: view before = %q %v, want %q", name, view, ok, old)
		}
		if cap(view) != len(view) {
			t.Fatalf("%s: view cap %d != len %d", name, cap(view), len(view))
		}
		mutate()
		if string(view) != old {
			t.Errorf("%s: kept view changed to %q, want %q", name, view, old)
		}
		if got, ok := pool.ReadObject(pid(1), slot); !ok || string(got) != want {
			t.Errorf("%s: fresh read = %q %v, want %q", name, got, ok, want)
		}
	}
	incoming := func(val string) *storage.Page {
		pg := newPage(1)
		if err := pg.SetObject(slot, []byte(val)); err != nil {
			t.Fatal(err)
		}
		return pg
	}

	step("WriteObject", "v0", "v1", func() {
		if err := pool.WriteObject(pid(1), slot, []byte("v1")); err != nil {
			t.Fatal(err)
		}
		pool.SetDirtySlot(pid(1), slot, false)
	})
	step("InstallObject", "v1", "v2", func() {
		if err := pool.InstallObject(pid(1), slot, []byte("v2")); err != nil {
			t.Fatal(err)
		}
	})
	step("Merge after invalidation", "v2", "v3", func() {
		pool.SetAvail(pid(1), slot, false)
		pool.Merge(pid(1), incoming("v3"), full(), 0)
	})
	step("Remove + Insert", "v3", "v4", func() {
		pool.Remove(pid(1))
		pool.Insert(pid(1), incoming("v4"), full())
	})
	step("eviction", "v4", "v5", func() {
		pool.Insert(pid(2), newPage(2), full())
		pool.Insert(pid(3), newPage(3), full()) // capacity 2: page 1 goes
		if pool.Contains(pid(1)) {
			t.Fatal("page 1 not evicted")
		}
		pool.Insert(pid(1), incoming("v5"), full())
	})

	view, _ := pool.ReadObject(pid(1), slot)
	_ = append(view, 'x')
	if got, _ := pool.ReadObject(pid(1), slot); string(got) != "v5" {
		t.Errorf("append to a view leaked into the slot: %q", got)
	}

	if n := testing.AllocsPerRun(100, func() {
		sinkBytes, _ = pool.ReadObject(pid(1), slot)
	}); n != 0 {
		t.Errorf("a hit allocates %v times, want 0", n)
	}
}

var sinkBytes []byte

// BenchmarkReadObjectHit is the buffer layer's own micro: a hit on a
// resident, available object.
func BenchmarkReadObjectHit(b *testing.B) {
	const pages, objects = 64, 20
	pool := NewPool(pages)
	for i := uint32(0); i < pages; i++ {
		pool.Insert(pid(i), storage.NewPage(pid(i), objects, 200), storage.AllAvailable(objects))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkBytes, _ = pool.ReadObject(pid(uint32(i%pages)), uint16(i%objects))
	}
}
