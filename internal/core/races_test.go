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

// startRead registers an outstanding read of slot on page, as a fetch's
// start step does.
func startRead(c *Peer, page storage.ItemID, slot uint16) request {
	rq := request{page: page, slot: slot, read: true}
	c.cs.mu.Lock()
	c.cs.startLocked(rq)
	c.cs.mu.Unlock()
	return rq
}

// record returns a copy of c's record of page; the zero record if it has
// none.
func record(c *Peer, page storage.ItemID) clientPage {
	c.cs.mu.Lock()
	defer c.cs.mu.Unlock()
	if e := c.cs.pages[page]; e != nil {
		return *e
	}
	return clientPage{}
}

func TestCallbackRaceVetoesInFlightReply(t *testing.T) {
	tc := newCluster(t, PSAA, 1, 10)
	a := tc.clients[0]
	cachePage(t, a, 1)

	// Simulate an outstanding read for page 1 ...
	rq := startRead(a, pageID(1), 0)
	// ... and deliver a callback for object (1,2) that "overtook" the
	// reply. Slot 2 is not locked locally, so the callback completes.
	foreign := lock.TxID{Site: "c9", Seq: 1}
	a.handleCallback("srv", callbackReq{OpID: 999, Tx: foreign, Item: objID(1, 2), Page: pageID(1)})

	if !record(a, pageID(1)).veto.Has(2) {
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
	x.applyReply(rq, accessResp{Page: fresh, Avail: storage.AllAvailable(4), Install: 7})
	if avail, _ := a.pool.Avail(pageID(1)); avail.Has(2) {
		t.Error("vetoed slot became available from the stale reply")
	}
	// And the race entry is consumed with the last outstanding read.
	if r := record(a, pageID(1)); r != (clientPage{install: 7}) {
		t.Errorf("record after the reply: %+v", r)
	}
	_ = x.Abort()
}

func TestCallbackOnAbsentPageWithPendingRead(t *testing.T) {
	// The page is not cached but a read is in flight: the callback must
	// NOT report the page invalidated (the reply will resurrect it), and
	// must veto the called-back object.
	tc := newCluster(t, PSAA, 1, 10)
	a := tc.clients[0]

	startRead(a, pageID(2), 0)
	foreign := lock.TxID{Site: "c9", Seq: 2}

	// Capture the ack by registering a fake op at the server.
	op := &cbOp{id: 1234, tx: foreign, item: objID(2, 1), events: make(chan cbEvent, 1)}
	tc.srv.registerOp(op)
	defer tc.srv.unregisterOp(op)

	a.handleCallback("srv", callbackReq{OpID: 1234, Tx: foreign, Item: objID(2, 1), Page: pageID(2)})

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
	if !record(a, pageID(2)).veto.Has(1) {
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

	a.handleCallback("srv", callbackReq{OpID: 55, Tx: foreign, Item: objID(3, 0), Page: pageID(3)})
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
	refetch, err := srv.ship(objID(4, 0), a.name, false, obs.SpanContext{})
	if err != nil {
		t.Fatal(err)
	}
	srv.processPiggyback(a.name, []purgeNotice{{Page: pageID(4), Install: 1}})

	if !srv.ct.hasCopy(pageID(4), a.name) {
		t.Fatal("stale purge notice deleted a live copy (purge race lost)")
	}
	if tc.sys.Stats().Get(sim.CtrPurgeRaces) == 0 {
		t.Error("purge race counter not incremented")
	}
	// A current notice does remove it.
	srv.processPiggyback(a.name, []purgeNotice{{Page: pageID(4), Install: refetch.Install}})
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

// TestTwoReadersKeepVeto: a callback race vetoes every read reply that was
// outstanding when the callback arrived, not only the first one answered.
// Two transactions of one client fetch page 1; a callback for (1,2)
// overtakes both replies, which were shipped before the writer's update.
// The second reply must not make slot 2 available either.
func TestTwoReadersKeepVeto(t *testing.T) {
	tc := newCluster(t, PSAA, 1, 10)
	a := tc.clients[0]
	first, second := startRead(a, pageID(1), 0), startRead(a, pageID(1), 1)
	stale, _ := tc.srv.srvFetchPage(pageID(1), obs.SpanContext{})
	foreign := lock.TxID{Site: "c9", Seq: 4}
	a.handleCallback("srv", callbackReq{OpID: 998, Tx: foreign, Item: objID(1, 2), Page: pageID(1)})

	x := a.Begin()
	for _, rq := range []request{first, second} {
		x.applyReply(rq, accessResp{Page: stale, Avail: storage.AllAvailable(4), Install: 1})
		if avail, _ := a.pool.Avail(pageID(1)); avail.Has(2) {
			t.Fatalf("slot 2 available after the reply for slot %d", rq.slot)
		}
	}
	if r := record(a, pageID(1)); r.veto != 0 || r.reads != 0 {
		t.Errorf("record after both replies: %+v", r)
	}
	_ = x.Abort()
}

// TestPreDeescalationRace drives the two orders of a write reply granting
// an adaptive lock and a deescalation of the same page (§4.1.2). The
// deescalation tears down the mirrors it finds; one that overtakes the
// reply marks the record so that the reply does not install the mirror.
// The reply's adaptive decision and the deescalation each take one section
// of cs.mu, so no third order exists. One would if the write request were
// deregistered in one section and the decision taken in a later one: a
// deescalation in between would find neither a pending write nor a mirror,
// and the mirror installed after it would outlive the owner's teardown.
func TestPreDeescalationRace(t *testing.T) {
	tc := newCluster(t, PSAA, 1, 10)
	a := tc.clients[0]
	x := a.Begin()
	if err := x.lockImplicit(objID(6, 0), lock.EX, obs.SpanContext{}); err != nil {
		t.Fatal(err)
	}
	rq := request{page: pageID(6), slot: 0, write: true}
	start := func() {
		a.cs.mu.Lock()
		a.cs.startLocked(rq)
		a.cs.mu.Unlock()
	}
	deescalate := func() {
		if _, err := a.clientDeescalate("srv", deescReq{Page: pageID(6)}); err != nil {
			t.Fatal(err)
		}
	}

	// The deescalation overtakes the reply.
	start()
	deescalate()
	if !record(a, pageID(6)).deescalated {
		t.Fatal("pre-deescalation not recorded")
	}
	x.applyReply(rq, accessResp{Adaptive: true})
	if a.locks.IsAdaptive(x.ID(), pageID(6)) {
		t.Error("adaptive mirror installed after an overtaking deescalation")
	}
	if r := record(a, pageID(6)); r != (clientPage{}) {
		t.Errorf("record not idle after the reply: %+v", r)
	}

	// The deescalation lands after the reply's adaptive decision.
	start()
	x.applyReply(rq, accessResp{Adaptive: true})
	if !a.locks.IsAdaptive(x.ID(), pageID(6)) {
		t.Fatal("adaptive mirror not installed")
	}
	deescalate()
	if a.locks.IsAdaptive(x.ID(), pageID(6)) {
		t.Error("adaptive mirror left after the deescalation")
	}
	if r := record(a, pageID(6)); r.deescalated {
		t.Error("deescalation with no pending write marked the record")
	}
	_ = x.Abort()
}

// TestEvictionPurgeKeepsNewerCopy: a reply's install evicts page 1, and
// before the purge notice for it is built, a second transaction of the same
// client re-fetches the page. The notice must carry the install count of
// the evicted copy, so that the owner reports a purge race and keeps the
// re-fetched copy. Were the count read after the install's section, the
// notice would carry the re-fetch's count: the owner would drop the live
// copy, a later writer's callback round would skip this client, and the
// client would read a stale value from its cache.
func TestEvictionPurgeKeepsNewerCopy(t *testing.T) {
	for _, proto := range []Protocol{PS, PSOA, PSAA} {
		t.Run(proto.String(), func(t *testing.T) {
			tc := newCluster(t, proto, 2, 10, func(c *Config) { c.ClientPoolPages = 1 })
			a, b := tc.clients[0], tc.clients[1]
			cachePage(t, a, 1)

			x := a.Begin()
			rq := startRead(a, pageID(2), 0)
			reply, err := tc.srv.ship(objID(2, 0), a.name, false, obs.SpanContext{})
			if err != nil {
				t.Fatal(err)
			}
			evs := x.applyReply(rq, reply)
			if len(evs) != 1 || evs[0].ID != pageID(1) {
				t.Fatalf("evictions %+v, want page 1", evs)
			}
			cachePage(t, a, 1)
			a.noticeEvictions(evs)
			a.flushPurges("srv")
			_ = x.Abort()

			w := b.Begin()
			writeVal(t, w, objID(1, 0), "new")
			mustCommit(t, w)
			r := a.Begin()
			if got := readVal(t, r, objID(1, 0)); got != "new" {
				t.Errorf("read %q after a newer commit", got)
			}
			mustCommit(t, r)
		})
	}
}

// TestObjectShipAfterEvictionKeepsCopy: a write request for an object the
// client's cached copy lacks ships the object alone, and the client evicts
// the page before the reply arrives. The reply re-creates the frame with
// the object available, so the owner must list the client as caching the
// page even though the purge notice for the evicted copy reached it
// first. Were the object ship to record no copy, a later writer's callback
// round would skip this client, and the client would read its own older
// value from its cache. In the second case another client's write of a
// second object of the page calls the client back while the page is
// absent and the reply still to come: the client must veto rather than ack
// "invalidated", or the owner drops the copy the ship recorded.
func TestObjectShipAfterEvictionKeepsCopy(t *testing.T) {
	protos := []Protocol{PSOO, PSOA, PSAA, OS}
	for _, proto := range protos {
		t.Run(proto.String(), func(t *testing.T) {
			objectShipAfterEviction(t, proto, false)
		})
	}
	t.Run("callback-while-absent", func(t *testing.T) {
		for _, proto := range protos {
			t.Run(proto.String(), func(t *testing.T) {
				objectShipAfterEviction(t, proto, true)
			})
		}
	})
}

func objectShipAfterEviction(t *testing.T, proto Protocol, callbackFirst bool) {
	tc := newCluster(t, proto, 2, 10, func(c *Config) { c.ClientPoolPages = 1 })
	a, b := tc.clients[0], tc.clients[1]
	obj := objID(1, 1)

	// b's uncommitted write masks obj out of a's copy (§4.2.3).
	w := b.Begin()
	writeVal(t, w, obj, "old")
	cachePage(t, a, 1)
	mustCommit(t, w)
	if avail, ok := a.pool.Avail(pageID(1)); !ok || avail.Has(obj.Slot) {
		t.Fatalf("setup: page 1 cached %v, object available %v", ok, avail.Has(obj.Slot))
	}

	// x's write request claims the page but not the object; the owner
	// serves it before the client evicts the page. The request starts as
	// requestWritePermission starts it.
	x := a.Begin()
	if err := x.lockImplicit(obj, lock.EX, obs.SpanContext{}); err != nil {
		t.Fatal(err)
	}
	if err := x.spreadTo("srv"); err != nil {
		t.Fatal(err)
	}
	a.cs.mu.Lock()
	rq, body := x.writeStart(obj, pageID(1), obj)
	a.cs.startLocked(rq)
	a.cs.mu.Unlock()
	reply, err := tc.srv.srvWrite(a.name, obs.SpanContext{}, body.(writeReq))
	if err != nil {
		t.Fatal(err)
	}
	ar := reply.(accessResp)
	if ar.ObjData == nil || ar.Page != nil {
		t.Fatalf("setup: reply %+v ships more than the object", ar)
	}
	cachePage(t, a, 2) // evicts page 1
	a.flushPurges("srv")
	if callbackFirst {
		w = b.Begin()
		writeVal(t, w, objID(1, 0), "other")
		mustCommit(t, w)
	}
	a.noticeEvictions(x.applyReply(rq, ar))
	writeVal(t, x, obj, "mine")
	mustCommit(t, x)

	w = b.Begin()
	writeVal(t, w, obj, "new")
	mustCommit(t, w)
	r := a.Begin()
	if got := readVal(t, r, obj); got != "new" {
		t.Errorf("read %q after a newer commit", got)
	}
	mustCommit(t, r)
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
