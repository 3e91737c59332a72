package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"adaptivecc/internal/lock"
	"adaptivecc/internal/sim"
	"adaptivecc/internal/storage"
)

// testCluster builds one owner peer ("srv") holding a single volume/file
// of numPages pages and n client peers ("c1".."cn") owning nothing.
type testCluster struct {
	sys     *System
	srv     *Peer
	clients []*Peer
}

func newCluster(t *testing.T, proto Protocol, numClients, numPages int, opts ...func(*Config)) *testCluster {
	t.Helper()
	cfg := Config{
		Protocol:        proto,
		Costs:           sim.DefaultCosts(0),
		ObjectsPerPage:  4,
		ObjectSize:      16,
		ClientPoolPages: 64,
		ServerPoolPages: 128,
		UseTimeouts:     true,
		FixedTimeout:    5 * time.Second,
	}
	for _, o := range opts {
		o(&cfg)
	}
	sys := NewSystem(cfg)
	stats := sys.Stats()

	vol := storage.NewVolume(1, cfg.Costs, stats)
	if _, err := vol.CreateFile(1, 0, uint32(numPages), cfg.ObjectsPerPage, cfg.ObjectSize); err != nil {
		t.Fatal(err)
	}
	sys.Directory().AddExtent(1, 1, 0, uint32(numPages))

	srv, err := sys.AddPeer("srv", vol)
	if err != nil {
		t.Fatal(err)
	}
	tc := &testCluster{sys: sys, srv: srv}
	for i := 0; i < numClients; i++ {
		c, err := sys.AddPeer(fmt.Sprintf("c%d", i+1))
		if err != nil {
			t.Fatal(err)
		}
		tc.clients = append(tc.clients, c)
	}
	t.Cleanup(sys.Close)
	return tc
}

func objID(page uint32, slot uint16) storage.ItemID {
	return storage.ObjectItem(1, 1, page, slot)
}

func pageID(page uint32) storage.ItemID { return storage.PageItem(1, 1, page) }

func mustCommit(t *testing.T, x *Tx) {
	t.Helper()
	if err := x.Commit(); err != nil {
		t.Fatalf("commit %v: %v", x.ID(), err)
	}
}

func writeVal(t *testing.T, x *Tx, obj storage.ItemID, val string) {
	t.Helper()
	if err := x.Write(obj, []byte(val)); err != nil {
		t.Fatalf("write %v: %v", obj, err)
	}
}

func readVal(t *testing.T, x *Tx, obj storage.ItemID) string {
	t.Helper()
	data, err := x.Read(obj)
	if err != nil {
		t.Fatalf("read %v: %v", obj, err)
	}
	return string(data)
}

func TestWriteCommitVisibleAcrossClients(t *testing.T) {
	for _, proto := range []Protocol{PS, PSOO, PSOA, PSAA} {
		t.Run(proto.String(), func(t *testing.T) {
			tc := newCluster(t, proto, 2, 10)
			a, b := tc.clients[0], tc.clients[1]

			t1 := a.Begin()
			writeVal(t, t1, objID(3, 1), "hello")
			mustCommit(t, t1)

			t2 := b.Begin()
			if got := readVal(t, t2, objID(3, 1)); got != "hello" {
				t.Errorf("b reads %q, want hello", got)
			}
			mustCommit(t, t2)
		})
	}
}

func TestLocalCacheHitAfterFetch(t *testing.T) {
	tc := newCluster(t, PSAA, 1, 10)
	a := tc.clients[0]
	stats := tc.sys.Stats()

	t1 := a.Begin()
	readVal(t, t1, objID(2, 0))
	mustCommit(t, t1)

	before := stats.Get(sim.CtrReadRequests)
	t2 := a.Begin()
	readVal(t, t2, objID(2, 0))
	readVal(t, t2, objID(2, 1)) // same page, shipped whole
	mustCommit(t, t2)
	if got := stats.Get(sim.CtrReadRequests); got != before {
		t.Errorf("read requests grew %d -> %d; inter-transaction caching broken", before, got)
	}
	if stats.Get(sim.CtrLocalHits) < 2 {
		t.Errorf("local hits = %d, want >= 2", stats.Get(sim.CtrLocalHits))
	}
}

func TestCallbackInvalidatesRemoteCopy(t *testing.T) {
	for _, proto := range []Protocol{PS, PSOO, PSOA, PSAA} {
		t.Run(proto.String(), func(t *testing.T) {
			tc := newCluster(t, proto, 2, 10)
			a, b := tc.clients[0], tc.clients[1]

			ta := a.Begin()
			if got := readVal(t, ta, objID(1, 0)); got == "fresh" {
				t.Fatal("unexpected initial value")
			}
			mustCommit(t, ta)

			tb := b.Begin()
			writeVal(t, tb, objID(1, 0), "fresh")
			mustCommit(t, tb)

			ta2 := a.Begin()
			if got := readVal(t, ta2, objID(1, 0)); got != "fresh" {
				t.Errorf("a reads %q after callback, want fresh", got)
			}
			mustCommit(t, ta2)
		})
	}
}

func TestAdaptiveLockGrantedWhenPageUnused(t *testing.T) {
	tc := newCluster(t, PSAA, 2, 10)
	a := tc.clients[0]
	stats := tc.sys.Stats()

	t1 := a.Begin()
	writeVal(t, t1, objID(5, 0), "v0")
	if got := stats.Get(sim.CtrAdaptiveGrants); got != 1 {
		t.Fatalf("adaptive grants = %d, want 1", got)
	}
	// Subsequent writes to the same page need no server interaction.
	wrBefore := stats.Get(sim.CtrWriteRequests)
	writeVal(t, t1, objID(5, 1), "v1")
	writeVal(t, t1, objID(5, 2), "v2")
	if got := stats.Get(sim.CtrWriteRequests); got != wrBefore {
		t.Errorf("write requests grew %d -> %d under adaptive lock", wrBefore, got)
	}
	if got := stats.Get(sim.CtrEscalationSaved); got != 2 {
		t.Errorf("escalations saved = %d, want 2", got)
	}
	mustCommit(t, t1)
}

func TestPSOASendsWriteRequestPerObject(t *testing.T) {
	tc := newCluster(t, PSOA, 2, 10)
	a := tc.clients[0]
	stats := tc.sys.Stats()

	t1 := a.Begin()
	writeVal(t, t1, objID(5, 0), "v0")
	writeVal(t, t1, objID(5, 1), "v1")
	if got := stats.Get(sim.CtrWriteRequests); got != 2 {
		t.Errorf("write requests = %d, want 2 (no adaptive locking)", got)
	}
	if got := stats.Get(sim.CtrAdaptiveGrants); got != 0 {
		t.Errorf("adaptive grants = %d, want 0 under PS-OA", got)
	}
	// Re-writing the same object reuses the standing EX permission.
	writeVal(t, t1, objID(5, 0), "v0b")
	if got := stats.Get(sim.CtrWriteRequests); got != 2 {
		t.Errorf("write requests = %d after rewrite, want 2", got)
	}
	mustCommit(t, t1)
}

func TestPSPageLevelPermissionCoversPage(t *testing.T) {
	tc := newCluster(t, PS, 2, 10)
	a := tc.clients[0]
	stats := tc.sys.Stats()

	t1 := a.Begin()
	writeVal(t, t1, objID(5, 0), "v0")
	writeVal(t, t1, objID(5, 1), "v1")
	if got := stats.Get(sim.CtrWriteRequests); got != 1 {
		t.Errorf("write requests = %d, want 1 (page EX covers page)", got)
	}
	mustCommit(t, t1)
}

func TestDeescalationOnRemoteConflict(t *testing.T) {
	tc := newCluster(t, PSAA, 2, 10)
	a, b := tc.clients[0], tc.clients[1]
	stats := tc.sys.Stats()

	ta := a.Begin()
	writeVal(t, ta, objID(7, 0), "a-val") // adaptive lock on page 7
	if stats.Get(sim.CtrAdaptiveGrants) != 1 {
		t.Fatal("no adaptive grant")
	}

	// B reads a different object on the same page: must deescalate A's
	// adaptive lock but succeed without waiting for A.
	done := make(chan string, 1)
	go func() {
		tb := b.Begin()
		v, err := tb.Read(objID(7, 1))
		if err != nil {
			done <- "err:" + err.Error()
			return
		}
		if err := tb.Commit(); err != nil {
			done <- "err:" + err.Error()
			return
		}
		done <- string(v)
	}()
	select {
	case v := <-done:
		if len(v) > 4 && v[:4] == "err:" {
			t.Fatalf("b's read failed: %s", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("b's read hung: deescalation did not happen")
	}
	if got := stats.Get(sim.CtrDeescalations); got != 1 {
		t.Errorf("deescalations = %d, want 1", got)
	}
	// A's EX object lock was replicated: the adaptive bit is gone at the
	// server but A's write is still protected.
	if tc.srv.Locks().IsAdaptive(ta.ID(), pageID(7)) {
		t.Error("adaptive bit still set at server after deescalation")
	}
	if got := tc.srv.Locks().HeldMode(ta.ID(), objID(7, 0)); got != lock.EX {
		t.Errorf("replicated object lock = %v, want EX", got)
	}
	mustCommit(t, ta)
}

func TestDeescalatedWriterStillProtected(t *testing.T) {
	tc := newCluster(t, PSAA, 2, 10)
	a, b := tc.clients[0], tc.clients[1]

	ta := a.Begin()
	writeVal(t, ta, objID(7, 0), "uncommitted")

	// B tries to read the object A wrote under the adaptive lock: it must
	// block until A commits.
	done := make(chan string, 1)
	go func() {
		tb := b.Begin()
		v, err := tb.Read(objID(7, 0))
		if err != nil {
			done <- "err:" + err.Error()
			return
		}
		_ = tb.Commit()
		done <- string(v)
	}()
	select {
	case v := <-done:
		t.Fatalf("b read %q before a committed", v)
	case <-time.After(100 * time.Millisecond):
	}
	mustCommit(t, ta)
	select {
	case v := <-done:
		if v != "uncommitted" {
			t.Errorf("b read %q, want the committed value", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("b never unblocked")
	}
}

func TestAbortUndoesUpdates(t *testing.T) {
	for _, proto := range []Protocol{PS, PSOA, PSAA} {
		t.Run(proto.String(), func(t *testing.T) {
			tc := newCluster(t, proto, 2, 10)
			a, b := tc.clients[0], tc.clients[1]

			t1 := a.Begin()
			writeVal(t, t1, objID(2, 0), "committed")
			mustCommit(t, t1)

			t2 := a.Begin()
			writeVal(t, t2, objID(2, 0), "aborted")
			if err := t2.Abort(); err != nil {
				t.Fatal(err)
			}

			t3 := b.Begin()
			if got := readVal(t, t3, objID(2, 0)); got != "committed" {
				t.Errorf("b reads %q, want committed", got)
			}
			mustCommit(t, t3)

			// The aborting client must not see its own dead value either.
			t4 := a.Begin()
			if got := readVal(t, t4, objID(2, 0)); got != "committed" {
				t.Errorf("a reads %q after abort, want committed", got)
			}
			mustCommit(t, t4)
		})
	}
}

func TestWriteWriteConflictSerializes(t *testing.T) {
	tc := newCluster(t, PSAA, 2, 10)
	a, b := tc.clients[0], tc.clients[1]

	ta := a.Begin()
	writeVal(t, ta, objID(4, 0), "A")

	bErr := make(chan error, 1)
	go func() {
		tb := b.Begin()
		if err := tb.Write(objID(4, 0), []byte("B")); err != nil {
			_ = tb.Abort()
			bErr <- err
			return
		}
		bErr <- tb.Commit()
	}()
	select {
	case err := <-bErr:
		t.Fatalf("b's conflicting write finished before a committed: %v", err)
	case <-time.After(100 * time.Millisecond):
	}
	mustCommit(t, ta)
	if err := <-bErr; err != nil {
		t.Fatalf("b's write after a committed: %v", err)
	}

	tr := a.Begin()
	if got := readVal(t, tr, objID(4, 0)); got != "B" {
		t.Errorf("final value %q, want B", got)
	}
	mustCommit(t, tr)
}

func TestCallbackBlockedByReaderThenProceeds(t *testing.T) {
	tc := newCluster(t, PSAA, 2, 10)
	a, b := tc.clients[0], tc.clients[1]
	stats := tc.sys.Stats()

	// Warm B's cache so the next transaction's SH lock is local-only.
	warm := b.Begin()
	readVal(t, warm, objID(1, 0))
	mustCommit(t, warm)

	// B reads the cached object: SH lock exists only at B.
	tb := b.Begin()
	if got := readVal(t, tb, objID(1, 0)); got == "new" {
		t.Fatal("unexpected value")
	}

	// A writes X: the callback must block at B until B commits.
	aDone := make(chan error, 1)
	go func() {
		ta := a.Begin()
		if err := ta.Write(objID(1, 0), []byte("new")); err != nil {
			_ = ta.Abort()
			aDone <- err
			return
		}
		aDone <- ta.Commit()
	}()
	select {
	case err := <-aDone:
		t.Fatalf("a's write finished while b held SH: %v", err)
	case <-time.After(100 * time.Millisecond):
	}
	mustCommit(t, tb)
	if err := <-aDone; err != nil {
		t.Fatalf("a's write: %v", err)
	}
	if stats.Get(sim.CtrCallbackBlocked) == 0 {
		t.Error("no callback-blocked reply was recorded")
	}

	// B refetches and sees the new value.
	tb2 := b.Begin()
	if got := readVal(t, tb2, objID(1, 0)); got != "new" {
		t.Errorf("b reads %q, want new", got)
	}
	mustCommit(t, tb2)
}

func TestUnavailableObjectsMarkedOnShip(t *testing.T) {
	tc := newCluster(t, PSAA, 2, 10)
	a, b := tc.clients[0], tc.clients[1]

	// A holds an uncommitted write on (6,0).
	ta := a.Begin()
	writeVal(t, ta, objID(6, 0), "dirty")

	// B reads (6,1): page ships with slot 0 unavailable.
	tb := b.Begin()
	readVal(t, tb, objID(6, 1))
	avail, ok := b.ClientPool().Avail(pageID(6))
	if !ok {
		t.Fatal("page not cached at b")
	}
	if avail.Has(0) {
		t.Error("slot 0 available at b while EX-locked by a")
	}
	if !avail.Has(1) {
		t.Error("requested slot 1 not available at b")
	}
	mustCommit(t, tb)
	mustCommit(t, ta)
}

func TestDeadlockVictimAborted(t *testing.T) {
	tc := newCluster(t, PSAA, 2, 10)
	a, b := tc.clients[0], tc.clients[1]

	ta := a.Begin()
	tb := b.Begin()
	writeVal(t, ta, objID(8, 0), "a")
	writeVal(t, tb, objID(9, 0), "b")

	errs := make(chan error, 2)
	go func() { errs <- ta.Write(objID(9, 0), []byte("a2")) }()
	go func() { errs <- tb.Write(objID(8, 0), []byte("b2")) }()

	var failures, successes int
	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			if err != nil {
				failures++
				if !errors.Is(err, lock.ErrDeadlock) && !errors.Is(err, lock.ErrTimeout) {
					t.Errorf("unexpected error kind: %v", err)
				}
			} else {
				successes++
			}
		case <-time.After(10 * time.Second):
			t.Fatal("deadlock not resolved")
		}
	}
	if failures < 1 {
		t.Error("no transaction was chosen as victim")
	}
	_ = ta.Abort()
	_ = tb.Abort()
}

// TestExplicitFileLockPurgesOtherClients: an EX file lock calls back every
// client the owner's page records list as caching a page of the file — one
// page is enough — and no client whose copies were all dropped.
func TestExplicitFileLockPurgesOtherClients(t *testing.T) {
	for _, c := range []struct {
		name      string
		pages     []uint32
		detach    bool
		callbacks int64
	}{
		{"two-pages", []uint32{1, 2}, false, 1},
		{"one-page", []uint32{3}, false, 1},
		{"detached", []uint32{1, 2}, true, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			tc := newCluster(t, PSAA, 2, 10)
			a, b := tc.clients[0], tc.clients[1]

			tb := b.Begin()
			for _, pg := range c.pages {
				readVal(t, tb, objID(pg, 0))
			}
			mustCommit(t, tb)
			if b.ClientPool().Len() == 0 {
				t.Fatal("b cached nothing")
			}
			stats := tc.sys.Stats()
			if c.detach {
				// The flushed purge notices are applied asynchronously.
				b.Detach()
				waitForCounter(t, stats, sim.CtrPurgeApplied, stats.Get(sim.CtrPurgeSent), 5*time.Second)
			}

			before := stats.Get(sim.CtrCallbacks)
			ta := a.Begin()
			if err := ta.LockItem(storage.FileItem(1, 1), lock.EX); err != nil {
				t.Fatalf("file EX: %v", err)
			}
			if got := stats.Get(sim.CtrCallbacks) - before; got != c.callbacks {
				t.Errorf("file EX sent %d callbacks, want %d", got, c.callbacks)
			}
			if got := b.ClientPool().Len(); got != 0 {
				t.Errorf("b still caches %d pages after file callback", got)
			}
			mustCommit(t, ta)
		})
	}
}

func TestExplicitFileLockBlockedByActiveReader(t *testing.T) {
	tc := newCluster(t, PSAA, 2, 10)
	a, b := tc.clients[0], tc.clients[1]

	tb := b.Begin()
	readVal(t, tb, objID(1, 0)) // holds IS on the file at the server

	done := make(chan error, 1)
	go func() {
		ta := a.Begin()
		err := ta.LockItem(storage.FileItem(1, 1), lock.EX)
		if err == nil {
			err = ta.Commit()
		} else {
			_ = ta.Abort()
		}
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("file EX granted while reader active: %v", err)
	case <-time.After(100 * time.Millisecond):
	}
	mustCommit(t, tb)
	if err := <-done; err != nil {
		t.Fatalf("file EX after reader committed: %v", err)
	}
}

func TestLocalSHPageLockWhenFullyCached(t *testing.T) {
	tc := newCluster(t, PSAA, 1, 10)
	a := tc.clients[0]
	stats := tc.sys.Stats()

	// Make page 3 fully cached via a whole-page SH lock.
	t1 := a.Begin()
	if err := t1.LockItem(pageID(3), lock.SH); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, t1)
	avail, ok := a.ClientPool().Avail(pageID(3))
	if !ok || !avail.FullFor(4) {
		t.Fatalf("page not fully cached: %v %v", avail, ok)
	}

	msgs := stats.Get(sim.CtrMessages)
	t2 := a.Begin()
	if err := t2.LockItem(pageID(3), lock.SH); err != nil {
		t.Fatal(err)
	}
	if got := stats.Get(sim.CtrMessages); got != msgs {
		t.Errorf("SH page lock on fully cached page sent messages (%d -> %d)", msgs, got)
	}
	mustCommit(t, t2)
}

func TestIXPageLockCallsBackDummyObject(t *testing.T) {
	tc := newCluster(t, PSAA, 2, 10)
	a, b := tc.clients[0], tc.clients[1]

	// B makes page 3 fully cached.
	tb := b.Begin()
	if err := tb.LockItem(pageID(3), lock.SH); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tb)

	// A takes an explicit IX page lock: B's dummy object must be
	// invalidated so B's future SH page locks go to the server.
	ta := a.Begin()
	if err := ta.LockItem(pageID(3), lock.IX); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, ta)

	avail, ok := b.ClientPool().Avail(pageID(3))
	if ok && avail.Has(storage.DummySlot) && avail.FullFor(4) {
		t.Error("page still fully cached at b after dummy callback")
	}
}

func TestOwnerLocalTransactions(t *testing.T) {
	// Transactions at the owning peer read/write through the server buffer
	// with no messages.
	tc := newCluster(t, PSAA, 1, 10)
	srv, c := tc.srv, tc.clients[0]
	stats := tc.sys.Stats()

	msgs := stats.Get(sim.CtrMessages)
	t1 := srv.Begin()
	writeVal(t, t1, objID(1, 0), "own")
	mustCommit(t, t1)
	if got := stats.Get(sim.CtrMessages); got != msgs {
		t.Errorf("owner-local tx sent %d messages", got-msgs)
	}

	t2 := c.Begin()
	if got := readVal(t, t2, objID(1, 0)); got != "own" {
		t.Errorf("client reads %q, want own", got)
	}
	mustCommit(t, t2)

	// And the owner blocks on a remote writer's lock like anyone else.
	t3 := c.Begin()
	writeVal(t, t3, objID(1, 0), "remote")
	done := make(chan string, 1)
	go func() {
		t4 := srv.Begin()
		v, err := t4.Read(objID(1, 0))
		if err != nil {
			done <- "err"
			return
		}
		_ = t4.Commit()
		done <- string(v)
	}()
	select {
	case v := <-done:
		t.Fatalf("owner read %q while client held EX", v)
	case <-time.After(100 * time.Millisecond):
	}
	mustCommit(t, t3)
	if v := <-done; v != "remote" {
		t.Errorf("owner read %q, want remote", v)
	}
}

func TestLostUpdateFreedomStress(t *testing.T) {
	// Counter increments from multiple clients: every committed increment
	// must be reflected in the final value (serializability smoke test).
	for _, proto := range []Protocol{PS, PSOO, PSOA, PSAA} {
		t.Run(proto.String(), func(t *testing.T) {
			tc := newCluster(t, proto, 3, 4)
			const perClient = 30
			obj := objID(0, 0)

			init := tc.clients[0].Begin()
			writeVal(t, init, obj, "0")
			mustCommit(t, init)

			var wg sync.WaitGroup
			var mu sync.Mutex
			committed := 0
			for ci, c := range tc.clients {
				wg.Add(1)
				go func(ci int, p *Peer) {
					defer wg.Done()
					backoff := time.Duration(ci+1) * time.Millisecond
					for i := 0; i < perClient; i++ {
						for {
							x := p.Begin()
							v, err := x.Read(obj)
							if err == nil {
								n := atoi(string(v))
								err = x.Write(obj, []byte(itoa(n+1)))
							}
							if err == nil {
								err = x.Commit()
							}
							if err == nil {
								mu.Lock()
								committed++
								mu.Unlock()
								break
							}
							_ = x.Abort()
							// Restart delay: without it, three clients
							// re-colliding on one object instantly can
							// livelock on mutual deadlock aborts.
							time.Sleep(backoff)
						}
					}
				}(ci, c)
			}
			wg.Wait()

			final := tc.clients[0].Begin()
			got := atoi(readVal(t, final, obj))
			mustCommit(t, final)
			if got != committed {
				t.Errorf("final counter = %d, committed increments = %d (lost updates!)", got, committed)
			}
			if committed != 3*perClient {
				t.Errorf("committed = %d, want %d", committed, 3*perClient)
			}
		})
	}
}

func atoi(s string) int {
	n := 0
	for _, c := range s {
		if c < '0' || c > '9' {
			break
		}
		n = n*10 + int(c-'0')
	}
	return n
}

func itoa(n int) string { return fmt.Sprintf("%d", n) }

func TestObjectServerProtocol(t *testing.T) {
	tc := newCluster(t, OS, 2, 10)
	a, b := tc.clients[0], tc.clients[1]
	stats := tc.sys.Stats()

	// Write from A, read from B.
	t1 := a.Begin()
	writeVal(t, t1, objID(3, 1), "os-val")
	mustCommit(t, t1)

	pagesBefore := stats.Get(sim.CtrPageTransfers)
	t2 := b.Begin()
	if got := readVal(t, t2, objID(3, 1)); got != "os-val" {
		t.Errorf("b reads %q", got)
	}
	mustCommit(t, t2)
	if got := stats.Get(sim.CtrPageTransfers); got != pagesBefore {
		t.Errorf("OS shipped %d pages; objects only expected", got-pagesBefore)
	}

	// B's cached object survives; other slots are NOT cached (no page
	// prefetch under OS).
	reads := stats.Get(sim.CtrReadRequests)
	t3 := b.Begin()
	readVal(t, t3, objID(3, 1)) // cached
	if got := stats.Get(sim.CtrReadRequests); got != reads {
		t.Errorf("cached OS read sent a request")
	}
	readVal(t, t3, objID(3, 2)) // different slot: must fetch
	if got := stats.Get(sim.CtrReadRequests); got != reads+1 {
		t.Errorf("uncached slot read requests = %d, want %d", got, reads+1)
	}
	mustCommit(t, t3)
}

func TestObjectServerCallbackInvalidates(t *testing.T) {
	tc := newCluster(t, OS, 2, 10)
	a, b := tc.clients[0], tc.clients[1]

	ta := a.Begin()
	readVal(t, ta, objID(1, 0))
	mustCommit(t, ta)

	tb := b.Begin()
	writeVal(t, tb, objID(1, 0), "fresh")
	mustCommit(t, tb)

	ta2 := a.Begin()
	if got := readVal(t, ta2, objID(1, 0)); got != "fresh" {
		t.Errorf("a reads %q after OS callback, want fresh", got)
	}
	mustCommit(t, ta2)
}

func TestObjectServerLostUpdateFreedom(t *testing.T) {
	tc := newCluster(t, OS, 3, 4)
	obj := objID(0, 0)
	init := tc.clients[0].Begin()
	writeVal(t, init, obj, "0")
	mustCommit(t, init)

	var wg sync.WaitGroup
	const perClient = 20
	for ci, c := range tc.clients {
		wg.Add(1)
		go func(ci int, p *Peer) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				for {
					x := p.Begin()
					v, err := x.Read(obj)
					if err == nil {
						err = x.Write(obj, []byte(itoa(atoi(string(v))+1)))
					}
					if err == nil && x.Commit() == nil {
						break
					}
					_ = x.Abort()
					time.Sleep(time.Duration(ci+1) * time.Millisecond)
				}
			}
		}(ci, c)
	}
	wg.Wait()
	final := tc.clients[0].Begin()
	if got := atoi(readVal(t, final, obj)); got != 3*perClient {
		t.Errorf("OS final counter = %d, want %d", got, 3*perClient)
	}
	mustCommit(t, final)
}
