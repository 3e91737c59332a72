// Direct coverage for the OS baseline's object-transfer write paths: the
// forced HavePage in requestWritePermission (the object travels instead of
// the page), the server's object ship on a write miss, and the copy-table
// registration that ship performs (server.go's Peer.ship on ObjData replies)
// — exercised end to end via the callback it must later trigger.
package core

import (
	"testing"

	"adaptivecc/internal/sim"
)

// TestObjectServerWriteMissShipsObjectOnly: a write to an uncached object
// under OS must ship the single object, never the page, and leave the
// object cached and writable at the client.
func TestObjectServerWriteMissShipsObjectOnly(t *testing.T) {
	tc := newCluster(t, OS, 2, 4)
	a, b := tc.clients[0], tc.clients[1]

	// Seed the object from the other client so the server holds a
	// committed before-image.
	seed := b.Begin()
	writeVal(t, seed, objID(1, 2), "seed")
	mustCommit(t, seed)

	before := tc.sys.Stats().Snapshot()
	x := a.Begin()
	writeVal(t, x, objID(1, 2), "mine") // a caches nothing: a write miss
	mustCommit(t, x)
	after := tc.sys.Stats().Snapshot()

	if d := after[sim.CtrPageTransfers] - before[sim.CtrPageTransfers]; d != 0 {
		t.Errorf("OS write miss shipped %d pages; objects must travel instead", d)
	}
	if d := after[sim.CtrWriteRequests] - before[sim.CtrWriteRequests]; d != 1 {
		t.Errorf("write miss made %d write requests, want 1", d)
	}

	// The shipped object is now cached: re-reading it must be free.
	before = tc.sys.Stats().Snapshot()
	y := a.Begin()
	if got := readVal(t, y, objID(1, 2)); got != "mine" {
		t.Fatalf("read back %q, want mine", got)
	}
	mustCommit(t, y)
	after = tc.sys.Stats().Snapshot()
	if d := after[sim.CtrReadRequests] - before[sim.CtrReadRequests]; d != 0 {
		t.Errorf("re-read of the written object made %d server reads, want 0", d)
	}
	if d := after[sim.CtrLocalHits] - before[sim.CtrLocalHits]; d != 1 {
		t.Errorf("re-read scored %d cache hits, want 1", d)
	}
}

// TestObjectServerWriteShipRegistersCopy: shipping an object on a write
// miss must register the writer in the copy table — a later write by
// another client has to call it back and invalidate its cached object.
func TestObjectServerWriteShipRegistersCopy(t *testing.T) {
	tc := newCluster(t, OS, 2, 4)
	a, b := tc.clients[0], tc.clients[1]

	seed := b.Begin()
	writeVal(t, seed, objID(1, 2), "seed")
	mustCommit(t, seed)

	x := a.Begin()
	writeVal(t, x, objID(1, 2), "mine") // ObjData ship registers a's copy
	mustCommit(t, x)

	before := tc.sys.Stats().Snapshot()
	z := b.Begin()
	writeVal(t, z, objID(1, 2), "theirs")
	mustCommit(t, z)
	after := tc.sys.Stats().Snapshot()
	if d := after[sim.CtrCallbacks] - before[sim.CtrCallbacks]; d < 1 {
		t.Errorf("write after an object ship sent %d callbacks; the ship did not register the copy", d)
	}

	// a's copy was invalidated: the next read must go back to the server
	// and observe the new value.
	before = tc.sys.Stats().Snapshot()
	y := a.Begin()
	if got := readVal(t, y, objID(1, 2)); got != "theirs" {
		t.Fatalf("read %q after remote write, want theirs", got)
	}
	mustCommit(t, y)
	after = tc.sys.Stats().Snapshot()
	if d := after[sim.CtrReadRequests] - before[sim.CtrReadRequests]; d != 1 {
		t.Errorf("read after invalidation made %d server reads, want 1", d)
	}
}

// TestObjectServerWriteHitNeedsNoShip: a write to an object already cached
// with a standing grant must not ship anything new; a write to a cached
// object without a grant re-requests permission but still moves no bytes
// (HaveObj suppresses the object ship).
func TestObjectServerWriteHitNeedsNoShip(t *testing.T) {
	tc := newCluster(t, OS, 1, 4)
	a := tc.clients[0]

	x := a.Begin()
	writeVal(t, x, objID(1, 2), "v1")
	before := tc.sys.Stats().Snapshot()
	writeVal(t, x, objID(1, 2), "v2") // same tx: standing permission
	after := tc.sys.Stats().Snapshot()
	if d := after[sim.CtrWriteRequests] - before[sim.CtrWriteRequests]; d != 0 {
		t.Errorf("second write in the same tx made %d write requests, want 0", d)
	}
	mustCommit(t, x)

	// New transaction: permission is gone but the object is cached, so the
	// request must carry no object bytes back.
	before = tc.sys.Stats().Snapshot()
	y := a.Begin()
	writeVal(t, y, objID(1, 2), "v3")
	mustCommit(t, y)
	after = tc.sys.Stats().Snapshot()
	if d := after[sim.CtrWriteRequests] - before[sim.CtrWriteRequests]; d != 1 {
		t.Errorf("cached-object write made %d write requests, want 1", d)
	}
	if d := after[sim.CtrPageTransfers] - before[sim.CtrPageTransfers]; d != 0 {
		t.Errorf("cached-object write shipped %d pages, want 0", d)
	}
}
