package core

import (
	"bytes"
	"testing"
)

// The tests below pin Tx.Read's contract: the returned bytes are a
// read-only view of the value read — on a hit the cached slot itself — and
// nothing that later happens to the cached copy changes them.

// TestReadViewSurvivesCallback: a slice kept across the transaction's end
// still holds the old value after another client's write has called the
// cached copy back, and a new read sees the new value.
func TestReadViewSurvivesCallback(t *testing.T) {
	tc := newCluster(t, PSAA, 2, 4)
	a, b := tc.clients[0], tc.clients[1]
	obj := objID(1, 2)

	w := b.Begin()
	writeVal(t, w, obj, "old")
	mustCommit(t, w)

	x := a.Begin()
	if got := readVal(t, x, obj); got != "old" { // fetch
		t.Fatalf("a reads %q, want old", got)
	}
	mustCommit(t, x)
	x = a.Begin()
	kept, err := x.Read(obj) // cache hit: the view under test
	if err != nil {
		t.Fatal(err)
	}
	mustCommit(t, x)

	w = b.Begin()
	writeVal(t, w, obj, "new")
	mustCommit(t, w)

	x = a.Begin()
	if got := readVal(t, x, obj); got != "new" {
		t.Errorf("a re-reads %q, want new", got)
	}
	mustCommit(t, x)
	if string(kept) != "old" {
		t.Errorf("kept view changed to %q, want old", kept)
	}
}

// TestReadViewSurvivesOwnWriteAndAbort: a transaction's own write replaces
// the slot, so the slice it read first is untouched, is what the log keeps
// as the before-image, and is the value a later read finds after the abort.
func TestReadViewSurvivesOwnWriteAndAbort(t *testing.T) {
	tc := newCluster(t, PSAA, 1, 4)
	a := tc.clients[0]
	obj := objID(0, 1)

	x := a.Begin()
	writeVal(t, x, obj, "committed")
	mustCommit(t, x)

	x = a.Begin()
	kept, err := x.Read(obj)
	if err != nil {
		t.Fatal(err)
	}
	writeVal(t, x, obj, "doomed")
	if got := readVal(t, x, obj); got != "doomed" {
		t.Errorf("read own write: %q, want doomed", got)
	}
	recs := x.takeRecordsFor(obj.PageID())
	if len(recs) != 1 || !bytes.Equal(recs[0].Before, kept) {
		t.Fatalf("log records %+v, want one with before-image %q", recs, kept)
	}
	x.recs = append(x.recs, recs...)
	x.flushDone(false) // the records were put back, not flushed
	if err := x.Abort(); err != nil {
		t.Fatal(err)
	}
	if string(kept) != "committed" {
		t.Errorf("kept view changed to %q, want committed", kept)
	}

	x = a.Begin()
	if got := readVal(t, x, obj); got != "committed" {
		t.Errorf("read after abort: %q, want committed", got)
	}
	mustCommit(t, x)
}

// TestCachedReadZeroAlloc is the cached-read input of the zero-alloc guard:
// a read-only transaction over cached objects sends no message, so every
// malloc AllocsPerRun sees is this goroutine's, and the count must not grow
// with the number of hits.
func TestCachedReadZeroAlloc(t *testing.T) {
	const pages, perPage = 16, 4
	tc := newCluster(t, PSAA, 1, pages)
	a := tc.clients[0]
	readTx := func(objects int) func() {
		return func() {
			x := a.Begin()
			for i := 0; i < objects; i++ {
				if _, err := x.Read(objID(uint32(i/perPage), uint16(i%perPage))); err != nil {
					t.Fatal(err)
				}
			}
			mustCommit(t, x)
		}
	}
	readTx(pages * perPage)() // fetch every page
	before := tc.sys.Stats().Get("messages")
	few := testing.AllocsPerRun(100, readTx(16))
	many := testing.AllocsPerRun(100, readTx(64))
	if sent := tc.sys.Stats().Get("messages") - before; sent != 0 {
		t.Fatalf("cached reads sent %d messages", sent)
	}
	if few != many {
		t.Errorf("Begin + 16 hits + Commit = %v allocs, + 64 hits = %v: a hit allocates", few, many)
	}
}
