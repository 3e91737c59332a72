package core

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"adaptivecc/internal/lock"
	"adaptivecc/internal/obs"
	"adaptivecc/internal/sim"
	"adaptivecc/internal/storage"
)

// These tests drive the race-handling machinery of §4.2.4 directly
// (white-box): the loose message ordering that produces the races is hard
// to schedule deterministically from outside, so the handlers are invoked
// in the orders the paper describes.

func cachePage(t *testing.T, c *Peer, page uint32) {
	t.Helper()
	x := c.Begin()
	readVal(t, x, objID(page, 0))
	mustCommit(t, x)
}

func TestCallbackRaceVetoesInFlightReply(t *testing.T) {
	tc := newCluster(t, PSAA, 1, 10)
	a := tc.clients[0]
	cachePage(t, a, 1)

	// Simulate an outstanding read for page 1 ...
	a.cs.beginRead(pageID(1))
	// ... and deliver a callback for object (1,2) that "overtook" the
	// reply. Slot 2 is not locked locally, so the callback completes.
	foreign := lock.TxID{Site: "c9", Seq: 1}
	a.handleCallback(callbackReq{OpID: 999, Server: "srv", Tx: foreign, Item: objID(1, 2), Page: pageID(1)})

	a.cs.mu.Lock()
	races := a.cs.races[pageID(1)]
	a.cs.mu.Unlock()
	if !races.Has(2) {
		t.Fatal("callback race not registered for the called-back slot")
	}
	if avail, _ := a.pool.Avail(pageID(1)); avail.Has(2) {
		t.Error("object still available after callback")
	}
	if tc.sys.Stats().Get(sim.CtrCallbackRaces) == 0 {
		t.Error("race counter not incremented")
	}

	// The delayed reply now arrives, proposing slot 2 available: the veto
	// must win (the reply predates the invalidation).
	x := a.Begin()
	fresh, _ := tc.srv.srvFetchPage(pageID(1), obs.SpanContext{})
	x.applyPageReply(pageID(1), fresh, storage.AllAvailable(4), 7, 0)
	if avail, _ := a.pool.Avail(pageID(1)); avail.Has(2) {
		t.Error("vetoed slot became available from the stale reply")
	}
	// And the race entry is consumed.
	a.cs.mu.Lock()
	left := a.cs.races[pageID(1)]
	a.cs.mu.Unlock()
	if left != 0 {
		t.Errorf("race entries remain: %x", left)
	}
	_ = x.Abort()
}

func TestCallbackOnAbsentPageWithPendingRead(t *testing.T) {
	// The page is not cached but a read is in flight: the callback must
	// NOT report the page invalidated (the reply will resurrect it), and
	// must veto the called-back object.
	tc := newCluster(t, PSAA, 1, 10)
	a := tc.clients[0]

	a.cs.beginRead(pageID(2))
	foreign := lock.TxID{Site: "c9", Seq: 2}

	// Capture the ack by registering a fake op at the server.
	op := &cbOp{id: 1234, tx: foreign, item: objID(2, 1), events: make(chan cbEvent, 1)}
	tc.srv.registerOp(op)
	defer tc.srv.unregisterOp(op)

	a.handleCallback(callbackReq{OpID: 1234, Server: "srv", Tx: foreign, Item: objID(2, 1), Page: pageID(2)})

	select {
	case ev := <-op.events:
		if ev.ack == nil {
			t.Fatal("expected an ack")
		}
		if ev.ack.Invalidated {
			t.Error("callback claimed invalidation despite the pending read")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no ack")
	}
	a.cs.mu.Lock()
	races := a.cs.races[pageID(2)]
	a.cs.mu.Unlock()
	if !races.Has(1) {
		t.Error("race not registered on the absent-page path")
	}
}

func TestCallbackOnAbsentPageNoPendingRead(t *testing.T) {
	tc := newCluster(t, PSAA, 1, 10)
	a := tc.clients[0]
	foreign := lock.TxID{Site: "c9", Seq: 3}

	op := &cbOp{id: 55, tx: foreign, item: objID(3, 0), events: make(chan cbEvent, 1)}
	tc.srv.registerOp(op)
	defer tc.srv.unregisterOp(op)

	a.handleCallback(callbackReq{OpID: 55, Server: "srv", Tx: foreign, Item: objID(3, 0), Page: pageID(3)})
	select {
	case ev := <-op.events:
		if ev.ack == nil || !ev.ack.Invalidated {
			t.Errorf("absent page with no pending read should ack invalidated, got %+v", ev)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no ack")
	}
}

func TestPurgeRaceStaleNoticeIgnored(t *testing.T) {
	tc := newCluster(t, PSAA, 1, 10)
	a := tc.clients[0]
	srv := tc.srv
	cachePage(t, a, 4)

	// The server shipped page 4 once: install count 1. Simulate the purge
	// racing with a re-fetch: the client re-reads (install 2) and the old
	// notice (install 1) arrives afterwards.
	install2 := srv.ct.addCopy(pageID(4), a.name) // the re-fetch
	srv.processPiggyback(a.name, []purgeNotice{{Page: pageID(4), Install: 1}})

	if !srv.ct.hasCopy(pageID(4), a.name) {
		t.Fatal("stale purge notice deleted a live copy (purge race lost)")
	}
	if tc.sys.Stats().Get(sim.CtrPurgeRaces) == 0 {
		t.Error("purge race counter not incremented")
	}
	// A current notice does remove it.
	srv.processPiggyback(a.name, []purgeNotice{{Page: pageID(4), Install: install2}})
	if srv.ct.hasCopy(pageID(4), a.name) {
		t.Error("current purge notice ignored")
	}
}

func TestAvailMaskConditions(t *testing.T) {
	tc := newCluster(t, PSAA, 2, 10)
	srv := tc.srv
	a := tc.clients[0]

	// Condition 2: an object EX-locked by another client's transaction is
	// unavailable — except to that client, and except when it is the
	// requested object.
	ta := a.Begin()
	writeVal(t, ta, objID(5, 1), "dirty")

	maskFor := func(req storage.ItemID, client string) storage.AvailMask {
		e := srv.ct.entry(pageID(5))
		e.latch.Lock()
		defer e.latch.Unlock()
		return srv.availMaskLocked(e, pageID(5), req, client)
	}
	mask := maskFor(objID(5, 0), "c2")
	if mask.Has(1) {
		t.Error("EX-locked object available to another client")
	}
	if !mask.Has(0) || !mask.Has(2) {
		t.Error("unrelated objects not available")
	}
	mask = maskFor(objID(5, 1), "c2")
	if !mask.Has(1) {
		t.Error("condition 1 violated: requested object must be available")
	}
	mask = maskFor(objID(5, 0), "c1")
	if !mask.Has(1) {
		t.Error("writer's own client denied its object")
	}

	// Condition 3: a pending callback operation also hides the object.
	foreign := lock.TxID{Site: "c2", Seq: 9}
	srv.ct.setPending(objID(5, 2), foreign)
	mask = maskFor(objID(5, 0), "c1")
	if mask.Has(2) {
		t.Error("object with pending callback available")
	}
	srv.ct.clearPending(objID(5, 2))
	mask = maskFor(objID(5, 0), "c1")
	if !mask.Has(2) {
		t.Error("object still hidden after callback cleared")
	}
	mustCommit(t, ta)
}

func TestDowngradeForTable(t *testing.T) {
	tests := []struct {
		cur       lock.Mode
		conflicts []lock.Mode
		want      lock.Mode
	}{
		{lock.EX, []lock.Mode{lock.SH}, lock.SH},  // Fig. 4: object callback
		{lock.EX, []lock.Mode{lock.IS}, lock.SIX}, // file callback vs readers
		{lock.IX, []lock.Mode{lock.SH}, lock.IS},  // §4.3.2 page level
		{lock.EX, []lock.Mode{lock.IX}, lock.IX},  // writer intents
		{lock.EX, []lock.Mode{lock.SIX}, lock.IS}, // SIX holder
		{lock.EX, []lock.Mode{lock.SH, lock.IS}, lock.SH},
	}
	for _, tt := range tests {
		if got := downgradeFor(tt.cur, tt.conflicts); got != tt.want {
			t.Errorf("downgradeFor(%v, %v) = %v, want %v", tt.cur, tt.conflicts, got, tt.want)
		}
	}
}

func TestCapReplicaMode(t *testing.T) {
	if capReplicaMode(lock.EX) != lock.SH {
		t.Error("EX not capped")
	}
	for _, m := range []lock.Mode{lock.IS, lock.IX, lock.SH, lock.SIX} {
		if capReplicaMode(m) != m {
			t.Errorf("%v altered", m)
		}
	}
}

func TestTombstoneNeutralizesLateReplication(t *testing.T) {
	tc := newCluster(t, PSAA, 1, 10)
	srv := tc.srv
	dead := lock.TxID{Site: "c1", Seq: 77}

	srv.markFinished(dead)
	srv.forceGrantReplica(lockReplica{Tx: dead, Item: objID(1, 0), Mode: lock.SH})
	if got := srv.Locks().HeldMode(dead, objID(1, 0)); got != lock.NL {
		t.Errorf("zombie lock installed for finished tx: %v", got)
	}

	// And the double-check path: grant first, then finish concurrently.
	alive := lock.TxID{Site: "c1", Seq: 78}
	srv.forceGrantReplica(lockReplica{Tx: alive, Item: objID(1, 1), Mode: lock.SH})
	if got := srv.Locks().HeldMode(alive, objID(1, 1)); got != lock.SH {
		t.Fatalf("live replication failed: %v", got)
	}
	if _, err := srv.srvRelease(releaseReq{Tx: alive}); err != nil {
		t.Fatal(err)
	}
	if got := srv.Locks().HeldMode(alive, objID(1, 1)); got != lock.NL {
		t.Errorf("release left lock: %v", got)
	}
}

// TestReplicationAfterFinishReleased: a lock replication noted at the
// home peer after its transaction finished — a callback-blocked reply
// racing the commit — releases the replica at the owner itself and leaves
// no entry behind; one noted before the finish is released by the finish.
func TestReplicationAfterFinishReleased(t *testing.T) {
	tc := newCluster(t, PSAA, 1, 10)
	srv, c1 := tc.srv, tc.clients[0]

	x := c1.Begin()
	srv.forceGrantReplica(lockReplica{Tx: x.ID(), Item: objID(1, 0), Mode: lock.SH})
	if got := srv.Locks().HeldMode(x.ID(), objID(1, 0)); got != lock.SH {
		t.Fatalf("replica not installed: %v", got)
	}
	mustCommit(t, x) // x never spread to srv: its finish round skips srv
	c1.noteReplicated(x.ID(), "srv")
	if got := srv.Locks().HeldMode(x.ID(), objID(1, 0)); got != lock.NL {
		t.Errorf("late replica left at srv: %v", got)
	}
	if n := len(c1.txs); n != 0 {
		t.Errorf("c1 keeps %d entries after its transaction finished", n)
	}

	y := c1.Begin()
	srv.forceGrantReplica(lockReplica{Tx: y.ID(), Item: objID(2, 0), Mode: lock.SH})
	c1.noteReplicated(y.ID(), "srv")
	mustCommit(t, y)
	if got := srv.Locks().HeldMode(y.ID(), objID(2, 0)); got != lock.NL {
		t.Errorf("replica noted before the finish left at srv: %v", got)
	}
}

func TestPreDeescalationRace(t *testing.T) {
	// A deescalation request that overtakes the write reply must prevent
	// the client from installing the adaptive mirror.
	tc := newCluster(t, PSAA, 1, 10)
	a := tc.clients[0]

	a.cs.beginWrite(pageID(6))
	if _, err := a.clientDeescalate("srv", deescReq{Page: pageID(6)}); err != nil {
		t.Fatal(err)
	}
	a.cs.endWrite(pageID(6))
	if !a.cs.consumePreDeescalated(pageID(6)) {
		t.Fatal("pre-deescalation not recorded")
	}
	if a.cs.consumePreDeescalated(pageID(6)) {
		t.Error("flag not consumed")
	}
}

func TestChaosRandomAborts(t *testing.T) {
	// Failure injection: transactions randomly abort midway; committed
	// increments must still be exactly reflected (abort atomicity under
	// concurrency), across protocols.
	for _, proto := range []Protocol{PS, PSAA, OS} {
		t.Run(proto.String(), func(t *testing.T) {
			tc := newCluster(t, proto, 3, 6)
			var mu sync.Mutex
			committed := make(map[storage.ItemID]int)

			var wg sync.WaitGroup
			for ci, c := range tc.clients {
				wg.Add(1)
				go func(ci int, p *Peer) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(ci) * 101))
					for n := 0; n < 40; n++ {
						obj := objID(uint32(rng.Intn(6)), uint16(rng.Intn(4)))
						x := p.Begin()
						v, err := x.Read(obj)
						if err == nil {
							err = x.Write(obj, []byte(itoa(atoi(string(v))+1)))
						}
						if err == nil && rng.Intn(3) == 0 {
							_ = x.Abort() // injected failure after the write
							continue
						}
						if err == nil && x.Commit() == nil {
							mu.Lock()
							committed[obj]++
							mu.Unlock()
							continue
						}
						_ = x.Abort()
						time.Sleep(time.Duration(rng.Intn(2)+1) * time.Millisecond)
					}
				}(ci, c)
			}
			wg.Wait()

			check := tc.clients[0].Begin()
			for pg := uint32(0); pg < 6; pg++ {
				for s := uint16(0); s < 4; s++ {
					obj := objID(pg, s)
					if got := atoi(readVal(t, check, obj)); got != committed[obj] {
						t.Errorf("%v = %d, want %d", obj, got, committed[obj])
					}
				}
			}
			mustCommit(t, check)
		})
	}
}
