package core

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"adaptivecc/internal/lock"
	"adaptivecc/internal/sim"
	"adaptivecc/internal/storage"
)

// TestHierarchicalCallbackBlocksAtPageLevel exercises §4.3.2: a client
// holds a local-only SH page lock (the page is fully cached); a writer at
// another client needs an object on that page. The object callback cannot
// even take IX on the page, reports a page-level conflict, and the writer
// waits until the reader commits.
func TestHierarchicalCallbackBlocksAtPageLevel(t *testing.T) {
	tc := newCluster(t, PSAA, 2, 10)
	a, b := tc.clients[0], tc.clients[1]
	stats := tc.sys.Stats()

	// B makes page 3 fully cached, then a new transaction SH-locks it
	// locally only.
	warm := b.Begin()
	if err := warm.LockItem(pageID(3), lock.SH); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, warm)

	tb := b.Begin()
	msgs := stats.Get(sim.CtrMessages)
	if err := tb.LockItem(pageID(3), lock.SH); err != nil {
		t.Fatal(err)
	}
	if got := stats.Get(sim.CtrMessages); got != msgs {
		t.Fatalf("SH page lock on fully cached page sent messages")
	}

	// A writes an object of page 3: must block behind tb's local-only SH.
	done := make(chan error, 1)
	go func() {
		ta := a.Begin()
		if err := ta.Write(objID(3, 1), []byte("w")); err != nil {
			_ = ta.Abort()
			done <- err
			return
		}
		done <- ta.Commit()
	}()
	select {
	case err := <-done:
		t.Fatalf("writer finished despite local-only SH page lock: %v", err)
	case <-time.After(150 * time.Millisecond):
	}
	// The conflict was replicated: tb now holds SH on page 3 at the server.
	if got := tc.srv.Locks().HeldMode(tb.ID(), pageID(3)); got != lock.SH {
		t.Errorf("replicated page lock = %v, want SH", got)
	}
	if stats.Get(sim.CtrCallbackBlocked) == 0 {
		t.Error("no callback-blocked reply recorded")
	}
	mustCommit(t, tb)
	if err := <-done; err != nil {
		t.Fatalf("writer after reader committed: %v", err)
	}
}

// TestDummyCallbackBlockedByLocalSH: an explicit IX page lock triggers a
// dummy-object callback, which blocks on a local-only SH page lock and
// proceeds after the holder commits.
func TestDummyCallbackBlockedByLocalSH(t *testing.T) {
	tc := newCluster(t, PSAA, 2, 10)
	a, b := tc.clients[0], tc.clients[1]

	warm := b.Begin()
	if err := warm.LockItem(pageID(4), lock.SH); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, warm)
	tb := b.Begin()
	if err := tb.LockItem(pageID(4), lock.SH); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		ta := a.Begin()
		err := ta.LockItem(pageID(4), lock.IX)
		if err == nil {
			err = ta.Commit()
		} else {
			_ = ta.Abort()
		}
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("IX page lock granted while SH held: %v", err)
	case <-time.After(150 * time.Millisecond):
	}
	mustCommit(t, tb)
	if err := <-done; err != nil {
		t.Fatalf("IX after SH released: %v", err)
	}

	// B's dummy object is gone: the next SH page lock must go to the server.
	avail, ok := b.ClientPool().Avail(pageID(4))
	if ok && avail.Has(storage.DummySlot) {
		t.Error("dummy object still available at b")
	}
}

// TestSecondRoundCallbacks drives the objective-2 violation repeat: during
// the downgrade window of a blocked callback, another client is shipped
// the page; the writer must call that client back again before getting
// write permission. The interleaving is steered with short sleeps; the
// invariant checked (no stale read) must hold regardless of which
// interleaving actually occurs.
func TestSecondRoundCallbacks(t *testing.T) {
	tc := newCluster(t, PSAA, 3, 10)
	a, b, c := tc.clients[0], tc.clients[1], tc.clients[2]

	// B caches page 7 and holds a local SH on object (7,0).
	warmB := b.Begin()
	readVal(t, warmB, objID(7, 0))
	mustCommit(t, warmB)
	tb := b.Begin()
	readVal(t, tb, objID(7, 0))

	// A's write of (7,0) blocks in callbacks at B.
	aDone := make(chan error, 1)
	go func() {
		ta := a.Begin()
		if err := ta.Write(objID(7, 0), []byte("new")); err != nil {
			_ = ta.Abort()
			aDone <- err
			return
		}
		aDone <- ta.Commit()
	}()
	time.Sleep(100 * time.Millisecond) // let the callback block and the dance run

	// C sneaks a read of another object on page 7 during the downgrade
	// window (A's EX is SH right now), getting the page shipped.
	tcx := c.Begin()
	readVal(t, tcx, objID(7, 1))
	mustCommit(t, tcx)

	// B commits, unblocking A's callback; A must now also invalidate C's
	// fresh copy (second round) before writing.
	mustCommit(t, tb)
	if err := <-aDone; err != nil {
		t.Fatalf("a's write: %v", err)
	}

	// Whatever the interleaving, C must read the new value now.
	tc2 := c.Begin()
	if got := readVal(t, tc2, objID(7, 0)); got != "new" {
		t.Errorf("c reads %q after a committed, want new", got)
	}
	mustCommit(t, tc2)
}

// TestConcurrentDummyAndObjectCallbacks stresses hierarchical callbacks:
// explicit page locks, object writes and plain reads interleave on the
// same pages from three clients.
func TestConcurrentDummyAndObjectCallbacks(t *testing.T) {
	tc := newCluster(t, PSAA, 3, 4)
	var wg sync.WaitGroup
	for ci, cl := range tc.clients {
		wg.Add(1)
		go func(ci int, p *Peer) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				page := uint32((i + ci) % 4)
				x := p.Begin()
				var err error
				switch i % 3 {
				case 0:
					err = x.LockItem(pageID(page), lock.SH)
					if err == nil {
						_, err = x.Read(objID(page, 0))
					}
				case 1:
					err = x.LockItem(pageID(page), lock.IX)
					if err == nil {
						err = x.Write(objID(page, uint16(ci)), []byte{byte(i)})
					}
				default:
					err = x.Write(objID(page, uint16(ci)), []byte{byte(i)})
				}
				if err == nil {
					err = x.Commit()
				}
				if err != nil {
					_ = x.Abort()
					time.Sleep(time.Duration(ci+1) * time.Millisecond)
				}
			}
		}(ci, cl)
	}
	wg.Wait()
	// Sanity: the system is quiescent and a full scan works.
	x := tc.clients[0].Begin()
	for pg := uint32(0); pg < 4; pg++ {
		for s := uint16(0); s < 4; s++ {
			readVal(t, x, objID(pg, s))
		}
	}
	mustCommit(t, x)
}

// TestImplicitLockChainHeldItems pins what Read and Write leave in the local
// lock table when the ancestor chain is taken once per run of accesses
// under one parent (Tx.lockImplicit): after every operation the
// transaction must hold exactly what locking every access with its full
// chain would have left — in particular a write after reads on the same
// page must lift the whole chain from IS to IX, which a memo that looked
// at the parent alone would skip. Under PS the locked item is the page, so
// the remembered parent is the file.
func TestImplicitLockChainHeldItems(t *testing.T) {
	vol, file := storage.VolumeItem(1), storage.FileItem(1, 1)
	p0, p1 := pageID(0), pageID(1)
	a, b, c, e, d := objID(0, 0), objID(0, 1), objID(0, 2), objID(0, 3), objID(1, 0)
	type held = map[storage.ItemID]lock.Mode
	type step struct {
		write   bool
		obj     storage.ItemID
		changes held // what the operation adds to or raises in the held set
	}
	for _, pc := range []struct {
		proto Protocol
		steps []step
	}{
		{PSAA, []step{
			{false, a, held{vol: lock.IS, file: lock.IS, p0: lock.IS, a: lock.SH}},
			{false, b, held{b: lock.SH}},
			{true, c, held{vol: lock.IX, file: lock.IX, p0: lock.IX, c: lock.EX}},
			{false, d, held{p1: lock.IS, d: lock.SH}},
			{false, e, held{e: lock.SH}},
		}},
		{PS, []step{
			{false, a, held{vol: lock.IS, file: lock.IS, p0: lock.SH}},
			{false, b, held{}},
			{true, c, held{vol: lock.IX, file: lock.IX, p0: lock.EX}},
			{false, d, held{p1: lock.SH}},
			{false, e, held{}},
		}},
	} {
		for _, commit := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/commit=%v", pc.proto, commit), func(t *testing.T) {
				tc := newCluster(t, pc.proto, 1, 4)
				cl := tc.clients[0]
				x := cl.Begin()
				want := held{}
				for i, st := range pc.steps {
					if st.write {
						writeVal(t, x, st.obj, "v")
					} else {
						readVal(t, x, st.obj)
					}
					for id, mode := range st.changes {
						want[id] = mode
					}
					if got := cl.Locks().HeldItems(x.ID()); !reflect.DeepEqual(got, want) {
						t.Fatalf("after step %d (%v, write=%v): held %v, want %v", i, st.obj, st.write, got, want)
					}
				}
				if commit {
					mustCommit(t, x)
				} else if err := x.Abort(); err != nil {
					t.Fatal(err)
				}
				if n := cl.Locks().NumItems(); n != 0 {
					t.Errorf("client lock table holds %d items after finish: %v", n, cl.Locks().LocksWithin(vol))
				}
				if n := tc.srv.Locks().NumItems(); n != 0 {
					t.Errorf("server lock table holds %d items after finish: %v", n, tc.srv.Locks().LocksWithin(vol))
				}
			})
		}
	}
}
