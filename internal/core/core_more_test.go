package core

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adaptivecc/internal/lock"
	"adaptivecc/internal/obs"
	"adaptivecc/internal/sim"
	"adaptivecc/internal/storage"
)

// multiCluster builds a peer-servers system: n peers each owning numPages
// pages (volume i+1, file 1, pages 0..numPages-1).
type multiCluster struct {
	sys   *System
	peers []*Peer
}

func newMultiCluster(t *testing.T, proto Protocol, numPeers, pagesEach int) *multiCluster {
	t.Helper()
	cfg := Config{
		Protocol:        proto,
		Costs:           sim.DefaultCosts(0),
		ObjectsPerPage:  4,
		ObjectSize:      16,
		ClientPoolPages: 64,
		ServerPoolPages: 64,
		UseTimeouts:     true,
		FixedTimeout:    5 * time.Second,
	}
	sys := NewSystem(cfg)
	mc := &multiCluster{sys: sys}
	for i := 0; i < numPeers; i++ {
		vol := storage.NewVolume(storage.VolumeID(i+1), cfg.Costs, sys.Stats())
		if _, err := vol.CreateFile(1, 0, uint32(pagesEach), cfg.ObjectsPerPage, cfg.ObjectSize); err != nil {
			t.Fatal(err)
		}
		sys.Directory().AddExtent(storage.VolumeID(i+1), 1, 0, uint32(pagesEach))
		p, err := sys.AddPeer(fmt.Sprintf("p%d", i+1), vol)
		if err != nil {
			t.Fatal(err)
		}
		mc.peers = append(mc.peers, p)
	}
	t.Cleanup(sys.Close)
	return mc
}

func mobj(vol storage.VolumeID, page uint32, slot uint16) storage.ItemID {
	return storage.ObjectItem(vol, 1, page, slot)
}

func TestTwoPhaseCommitAcrossOwners(t *testing.T) {
	mc := newMultiCluster(t, PSAA, 3, 10)
	p1 := mc.peers[0]

	// One transaction updates data owned by all three peers (one local,
	// two remote).
	x := p1.Begin()
	writeVal(t, x, mobj(1, 0, 0), "local")
	writeVal(t, x, mobj(2, 0, 0), "remote2")
	writeVal(t, x, mobj(3, 0, 0), "remote3")
	mustCommit(t, x)

	// Every peer sees all three values.
	for i, rdPeer := range mc.peers {
		r := rdPeer.Begin()
		for v := storage.VolumeID(1); v <= 3; v++ {
			want := map[storage.VolumeID]string{1: "local", 2: "remote2", 3: "remote3"}[v]
			if got := readVal(t, r, mobj(v, 0, 0)); got != want {
				t.Errorf("peer %d reads vol %d = %q, want %q", i+1, v, got, want)
			}
		}
		mustCommit(t, r)
	}
}

func TestTwoPhaseAbortAcrossOwners(t *testing.T) {
	mc := newMultiCluster(t, PSAA, 2, 10)
	p1, p2 := mc.peers[0], mc.peers[1]

	seed := p2.Begin()
	writeVal(t, seed, mobj(2, 1, 1), "original")
	mustCommit(t, seed)

	x := p1.Begin()
	writeVal(t, x, mobj(1, 1, 1), "dead-local")
	writeVal(t, x, mobj(2, 1, 1), "dead-remote")
	if err := x.Abort(); err != nil {
		t.Fatal(err)
	}

	r := p2.Begin()
	if got := readVal(t, r, mobj(2, 1, 1)); got != "original" {
		t.Errorf("remote value after abort = %q, want original", got)
	}
	mustCommit(t, r)
	r1 := p1.Begin()
	if got := readVal(t, r1, mobj(1, 1, 1)); got == "dead-local" {
		t.Error("local aborted value survived")
	}
	mustCommit(t, r1)
}

func TestEvictionGeneratesPurgeNoticeAndRaceGuard(t *testing.T) {
	// A tiny client pool forces evictions; purged pages must drop from the
	// copy table so the server stops calling them back, and re-fetches must
	// not be erased by stale notices (install-count guard).
	tc := newCluster(t, PSAA, 2, 30, func(c *Config) {
		c.ClientPoolPages = 4
	})
	a := tc.clients[0]
	stats := tc.sys.Stats()

	x := a.Begin()
	for pg := uint32(0); pg < 20; pg++ {
		readVal(t, x, objID(pg, 0))
	}
	mustCommit(t, x)

	if got := a.ClientPool().Len(); got > 5 {
		t.Errorf("client pool holds %d pages, want <= 5", got)
	}
	// Force the notices to flush by running another transaction.
	y := a.Begin()
	readVal(t, y, objID(25, 0))
	mustCommit(t, y)

	// The server's copy table should be close to the real cache size, not
	// the 20 pages once shipped (notices may still be queued for pages not
	// re-contacted, so allow slack).
	if got := copiedPages(tc.srv.ct); got > 12 {
		t.Errorf("copy table tracks %d pages after evictions, want pruned", got)
	}
	if stats.Get(sim.CtrMessages) == 0 {
		t.Fatal("no messages?")
	}
}

func TestEvictedInUsePageReplicatesLocks(t *testing.T) {
	// A page evicted while a local transaction still holds a local-only SH
	// lock on one of its objects must have that lock replicated at the
	// server: a writer elsewhere must wait for the reader's commit.
	tc := newCluster(t, PSAA, 2, 30, func(c *Config) {
		c.ClientPoolPages = 2
	})
	a, b := tc.clients[0], tc.clients[1]

	warm := a.Begin()
	readVal(t, warm, objID(0, 0))
	mustCommit(t, warm)

	ta := a.Begin()
	readVal(t, ta, objID(0, 0)) // local-only SH on (0,0)
	// Fill the cache so page 0 is evicted while ta is active.
	for pg := uint32(1); pg < 8; pg++ {
		readVal(t, ta, objID(pg, 0))
	}
	if a.ClientPool().Contains(pageID(0)) {
		t.Skip("page 0 survived eviction; cannot exercise the path")
	}
	// Flush the purge notice.
	flush := a.Begin()
	readVal(t, flush, objID(9, 0))
	mustCommit(t, flush)
	// Give the piggybacked notice time to process.
	time.Sleep(50 * time.Millisecond)

	if got := tc.srv.Locks().HeldMode(ta.ID(), objID(0, 0)); got != lock.SH {
		t.Fatalf("replicated mode = %v, want SH", got)
	}

	done := make(chan error, 1)
	go func() {
		tb := b.Begin()
		if err := tb.Write(objID(0, 0), []byte("w")); err != nil {
			_ = tb.Abort()
			done <- err
			return
		}
		done <- tb.Commit()
	}()
	select {
	case err := <-done:
		t.Fatalf("writer finished while evicted reader active: %v", err)
	case <-time.After(100 * time.Millisecond):
	}
	mustCommit(t, ta)
	if err := <-done; err != nil {
		t.Fatalf("writer after reader committed: %v", err)
	}
}

func TestRedoReadsPageBackFromDisk(t *testing.T) {
	// Redo-at-server must re-read pages that fell out of the server buffer
	// (the §3.3 disadvantage of the scheme).
	tc := newCluster(t, PSAA, 1, 40, func(c *Config) {
		c.ServerPoolPages = 4
	})
	a := tc.clients[0]
	stats := tc.sys.Stats()

	x := a.Begin()
	writeVal(t, x, objID(0, 0), "dirty")
	// Blow the server buffer with other pages before committing.
	for pg := uint32(1); pg < 30; pg++ {
		readVal(t, x, objID(pg, 0))
	}
	before := stats.Get(sim.CtrRedoPageReads)
	mustCommit(t, x)
	if got := stats.Get(sim.CtrRedoPageReads); got <= before {
		t.Errorf("redo page reads = %d, want an increase (page 0 not resident)", got)
	}

	y := a.Begin()
	if got := readVal(t, y, objID(0, 0)); got != "dirty" {
		t.Errorf("value after redo read-back = %q", got)
	}
	mustCommit(t, y)
}

func TestAbortAfterEarlyLogShipping(t *testing.T) {
	// A dirty page evicted before commit ships its log records early; if
	// the transaction then aborts, the server must undo them. The flush is
	// a request the eviction waits for, and Abort waits for every flush
	// carrying its records, so the undo follows the redo with no pause,
	// even when the owner's redo is delayed by 200 ms.
	for _, widen := range []bool{false, true} {
		name := "plain"
		if widen {
			name = "widened-redo"
		}
		t.Run(name, func(t *testing.T) {
			w := newFlushWidener(200 * time.Millisecond)
			tc := newCluster(t, PSAA, 1, 40, func(c *Config) {
				c.ClientPoolPages = 2
				c.Obs = obs.Config{Enabled: true, Sink: w.sink}
			})
			a := tc.clients[0]

			seed := a.Begin()
			writeVal(t, seed, objID(0, 0), "committed")
			mustCommit(t, seed)

			w.armed.Store(widen)
			x := a.Begin()
			writeVal(t, x, objID(0, 0), "early-dead")
			// Evict page 0 (dirty) by touching many others.
			for pg := uint32(1); pg < 8; pg++ {
				readVal(t, x, objID(pg, 0))
			}
			if err := x.Abort(); err != nil {
				t.Fatal(err)
			}
			if widen {
				w.settled(t)
			}

			y := a.Begin()
			if got := readVal(t, y, objID(0, 0)); got != "committed" {
				t.Errorf("value after abort with early shipping = %q, want committed", got)
			}
			mustCommit(t, y)
		})
	}
}

// flushWidener is an obs sink that, once armed, sleeps d in the next
// EvWALAppend: the owner's redo of a purge flush's records, which follows
// the event. entered is closed as the sleep starts and done as it ends.
type flushWidener struct {
	d             time.Duration
	armed         atomic.Bool
	entered, done chan struct{}
}

func newFlushWidener(d time.Duration) *flushWidener {
	return &flushWidener{d: d, entered: make(chan struct{}), done: make(chan struct{})}
}

func (w *flushWidener) sink(ev obs.Event) {
	if ev.Kind == obs.EvWALAppend && w.armed.CompareAndSwap(true, false) {
		close(w.entered)
		time.Sleep(w.d)
		close(w.done)
	}
}

// settled waits until the widened sleep is over. The owner redoes the
// records right after it, so a read sent afterwards finds them redone
// unless an undo followed.
func (w *flushWidener) settled(t *testing.T) {
	t.Helper()
	select {
	case <-w.done:
	case <-time.After(5 * time.Second):
		t.Fatal("no purge flush was redone")
	}
}

// TestCrossTxEarlyFlushBeforeAbort: on one client, transaction x's fetch
// evicts transaction b's dirty page, so x's goroutine flushes b's records,
// and the owner's redo of them is delayed. b aborts while the flush is in
// flight; its abort must wait for the flush, or the owner undoes before it
// redoes and the aborted value sticks.
func TestCrossTxEarlyFlushBeforeAbort(t *testing.T) {
	w := newFlushWidener(200 * time.Millisecond)
	tc := newCluster(t, PSAA, 1, 10, func(c *Config) {
		c.ClientPoolPages = 1
		c.Obs = obs.Config{Enabled: true, Sink: w.sink}
	})
	a := tc.clients[0]

	seed := a.Begin()
	writeVal(t, seed, objID(0, 0), "committed")
	mustCommit(t, seed)

	b := a.Begin()
	writeVal(t, b, objID(0, 0), "b-dead")
	w.armed.Store(true)
	x := a.Begin()
	read := make(chan error, 1)
	go func() {
		_, err := x.Read(objID(1, 0)) // evicts page 0, dirty with b's write
		read <- err
	}()
	select {
	case <-w.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the eviction flushed no records")
	}
	if err := b.Abort(); err != nil {
		t.Fatal(err)
	}
	if err := <-read; err != nil {
		t.Fatal(err)
	}
	mustCommit(t, x)
	w.settled(t)

	y := a.Begin()
	if got := readVal(t, y, objID(0, 0)); got != "committed" {
		t.Errorf("value after b's abort = %q, want committed", got)
	}
	mustCommit(t, y)
}

func TestExplicitVolumeLock(t *testing.T) {
	tc := newCluster(t, PSAA, 2, 10)
	a, b := tc.clients[0], tc.clients[1]

	tb := b.Begin()
	readVal(t, tb, objID(1, 0))
	mustCommit(t, tb)

	ta := a.Begin()
	if err := ta.LockItem(storage.VolumeItem(1), lock.EX); err != nil {
		t.Fatalf("volume EX: %v", err)
	}
	if got := b.ClientPool().Len(); got != 0 {
		t.Errorf("b caches %d pages after volume callback", got)
	}
	mustCommit(t, ta)
}

func TestSIXFileLockAllowsRemoteReaders(t *testing.T) {
	tc := newCluster(t, PSAA, 2, 10)
	a, b := tc.clients[0], tc.clients[1]

	ta := a.Begin()
	if err := ta.LockItem(storage.FileItem(1, 1), lock.SIX); err != nil {
		t.Fatal(err)
	}
	// SIX is compatible with IS: another client's plain read proceeds.
	done := make(chan error, 1)
	go func() {
		tb := b.Begin()
		_, err := tb.Read(objID(2, 0))
		if err == nil {
			err = tb.Commit()
		} else {
			_ = tb.Abort()
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("reader under SIX: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("reader blocked by SIX file lock")
	}
	mustCommit(t, ta)
}

func TestPropagateSHPageAblation(t *testing.T) {
	// With PropagateSHPage, even fully cached pages cost a round trip for
	// an explicit SH lock.
	tc := newCluster(t, PSAA, 1, 10, func(c *Config) {
		c.PropagateSHPage = true
	})
	a := tc.clients[0]
	stats := tc.sys.Stats()

	t1 := a.Begin()
	if err := t1.LockItem(pageID(3), lock.SH); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, t1)

	msgs := stats.Get(sim.CtrMessages)
	t2 := a.Begin()
	if err := t2.LockItem(pageID(3), lock.SH); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, t2)
	if got := stats.Get(sim.CtrMessages); got == msgs {
		t.Error("SH page lock stayed local despite PropagateSHPage ablation")
	}
}

// copiedPages counts the pages of which ct records at least one copy.
func copiedPages(ct *copyTable) int {
	n := 0
	for _, e := range ct.entries() {
		e.latch.Lock()
		if len(e.copies) > 0 {
			n++
		}
		e.latch.Unlock()
	}
	return n
}

func TestBankTransferInvariant(t *testing.T) {
	// Property: concurrent transfers between accounts never create or
	// destroy money, under every protocol. Accounts are objects spread
	// over shared pages to maximize page-level false sharing.
	for _, proto := range []Protocol{PS, PSOO, PSOA, PSAA, OS} {
		t.Run(proto.String(), func(t *testing.T) { runBank(t, proto, nil) })
	}
}

// TestBankWidenedShip runs the bank workload on the object-grain
// protocols with every page ship widened by 1 ms, through an obs sink
// that sleeps on EvPageShip (delay injection; no production hook). When
// a ship's steps ran under separate locks, a writer of another object on
// the page could commit between the clone and the availability scan, or
// take EX between the scan and the copy record, and the client cached a
// stale object as available: about half of these runs lost money. Under
// the page latch a ship is one step, and no run may.
func TestBankWidenedShip(t *testing.T) {
	sleepOnShip := func(ev obs.Event) {
		if ev.Kind == obs.EvPageShip {
			time.Sleep(time.Millisecond)
		}
	}
	for _, proto := range []Protocol{PSOO, PSOA, PSAA} {
		for run := 0; run < 5; run++ {
			t.Run(fmt.Sprintf("%v/%d", proto, run), func(t *testing.T) { runBank(t, proto, sleepOnShip) })
		}
	}
}

// runBank runs concurrent transfers among 20 accounts (5 pages x 4 slots)
// from three clients and checks that the total is conserved. A non-nil
// sink receives every obs event.
func runBank(t *testing.T, proto Protocol, sink func(obs.Event)) {
	tc := newCluster(t, proto, 3, 5, func(c *Config) {
		if sink != nil {
			c.Obs = obs.Config{Enabled: true, Sink: sink}
		}
	})
	const accounts = 20
	const initial = 100

	seedTx := tc.clients[0].Begin()
	for acc := 0; acc < accounts; acc++ {
		writeVal(t, seedTx, objID(uint32(acc/4), uint16(acc%4)), itoa(initial))
	}
	mustCommit(t, seedTx)

	var wg sync.WaitGroup
	for ci, c := range tc.clients {
		wg.Add(1)
		go func(ci int, p *Peer) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(ci) + 42))
			for i := 0; i < 25; i++ {
				from := rng.Intn(accounts)
				to := rng.Intn(accounts)
				if from == to {
					continue
				}
				amount := 1 + rng.Intn(10)
				for {
					x := p.Begin()
					fv, err := x.Read(objID(uint32(from/4), uint16(from%4)))
					var tv []byte
					if err == nil {
						tv, err = x.Read(objID(uint32(to/4), uint16(to%4)))
					}
					if err == nil {
						err = x.Write(objID(uint32(from/4), uint16(from%4)), []byte(itoa(atoi(string(fv))-amount)))
					}
					if err == nil {
						err = x.Write(objID(uint32(to/4), uint16(to%4)), []byte(itoa(atoi(string(tv))+amount)))
					}
					if err == nil && x.Commit() == nil {
						break
					}
					_ = x.Abort()
					time.Sleep(time.Duration(rng.Intn(3)+1) * time.Millisecond)
				}
			}
		}(ci, c)
	}
	wg.Wait()

	check := tc.clients[0].Begin()
	total := 0
	for acc := 0; acc < accounts; acc++ {
		total += atoi(readVal(t, check, objID(uint32(acc/4), uint16(acc%4))))
	}
	mustCommit(t, check)
	if total != accounts*initial {
		t.Errorf("%v: total = %d, want %d (money %+d)", proto, total, accounts*initial, total-accounts*initial)
	}
}

func TestPeerServersCrossTraffic(t *testing.T) {
	// Peers read and write each other's data concurrently; the final state
	// must reflect every committed write exactly once.
	mc := newMultiCluster(t, PSAA, 4, 5)
	var wg sync.WaitGroup
	var mu sync.Mutex
	committed := make(map[string]int) // object -> count
	for i, p := range mc.peers {
		wg.Add(1)
		go func(i int, p *Peer) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(i)))
			for n := 0; n < 25; n++ {
				vol := storage.VolumeID(rng.Intn(4) + 1)
				obj := mobj(vol, uint32(rng.Intn(5)), uint16(rng.Intn(4)))
				for {
					x := p.Begin()
					v, err := x.Read(obj)
					if err == nil {
						err = x.Write(obj, []byte(itoa(atoi(string(v))+1)))
					}
					if err == nil && x.Commit() == nil {
						mu.Lock()
						committed[obj.String()]++
						mu.Unlock()
						break
					}
					_ = x.Abort()
					time.Sleep(time.Duration(rng.Intn(3)+1) * time.Millisecond)
				}
			}
		}(i, p)
	}
	wg.Wait()

	check := mc.peers[0].Begin()
	for vol := storage.VolumeID(1); vol <= 4; vol++ {
		for pg := uint32(0); pg < 5; pg++ {
			for s := uint16(0); s < 4; s++ {
				obj := mobj(vol, pg, s)
				got := atoi(readVal(t, check, obj))
				if got != committed[obj.String()] {
					t.Errorf("%v = %d, want %d committed increments", obj, got, committed[obj.String()])
				}
			}
		}
	}
	mustCommit(t, check)
}

func TestConcurrentReadersScale(t *testing.T) {
	// Pure readers on the same hot pages never conflict and never message
	// after the first fetch.
	tc := newCluster(t, PSAA, 4, 10)
	warm := func(p *Peer) {
		x := p.Begin()
		for pg := uint32(0); pg < 10; pg++ {
			readVal(t, x, objID(pg, 0))
		}
		mustCommit(t, x)
	}
	for _, c := range tc.clients {
		warm(c)
	}
	stats := tc.sys.Stats()
	msgs := stats.Get(sim.CtrMessages)
	var wg sync.WaitGroup
	for _, c := range tc.clients {
		wg.Add(1)
		go func(p *Peer) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				x := p.Begin()
				for pg := uint32(0); pg < 10; pg++ {
					if _, err := x.Read(objID(pg, uint16(i%4))); err != nil {
						t.Errorf("read: %v", err)
						_ = x.Abort()
						return
					}
				}
				if err := x.Commit(); err != nil {
					t.Errorf("commit: %v", err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if got := stats.Get(sim.CtrMessages); got != msgs {
		t.Errorf("read-only storm sent %d messages", got-msgs)
	}
	if got := stats.Get(sim.CtrDeadlockAborts) + stats.Get(sim.CtrTimeoutAborts); got != 0 {
		t.Errorf("read-only storm aborted %d transactions", got)
	}
}
