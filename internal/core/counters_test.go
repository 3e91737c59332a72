// Counter-completeness tests: the sim.Stats counters are the repo's
// primary observable (figure tables, fault-matrix assertions, the metrics
// endpoint all read them), so a counter that nothing increments — or a
// path that silently stopped incrementing one — should fail loudly here.
//
// Two halves:
//   - a static check that every Ctr* constant declared in sim/stats.go is
//     referenced by non-test protocol code (no dead counters), and
//   - a runtime check that a battery of scenarios, taken together, drives
//     every counter to a nonzero value (no unexercised counter paths).
package core

import (
	"errors"
	"os"
	"path/filepath"
	"regexp"
	"sync"
	"testing"
	"time"

	"adaptivecc/internal/buffer"
	"adaptivecc/internal/lock"
	"adaptivecc/internal/obs"
	"adaptivecc/internal/sim"
	"adaptivecc/internal/storage"
	"adaptivecc/internal/transport"
)

// declaredCounters parses the Ctr* constant block of internal/sim/stats.go
// into constant-name -> counter-string pairs. Parsing the source (rather
// than listing the constants here) means a newly added counter is covered
// by both halves automatically.
func declaredCounters(t *testing.T) map[string]string {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("..", "sim", "stats.go"))
	if err != nil {
		t.Fatal(err)
	}
	re := regexp.MustCompile(`(Ctr\w+)\s*=\s*"([^"]+)"`)
	out := make(map[string]string)
	for _, m := range re.FindAllStringSubmatch(string(src), -1) {
		out[m[1]] = m[2]
	}
	if len(out) < 30 {
		t.Fatalf("parsed only %d Ctr constants from sim/stats.go, expected the full canonical set", len(out))
	}
	return out
}

// TestEveryCounterReferencedByProtocolCode fails if a counter constant is
// declared but never used outside sim/stats.go and the test files — i.e.
// the implementation no longer increments it anywhere.
func TestEveryCounterReferencedByProtocolCode(t *testing.T) {
	consts := declaredCounters(t)
	missing := make(map[string]bool, len(consts))
	for name := range consts {
		missing[name] = true
	}

	root := filepath.Join("..", "..")
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == ".git" {
				return filepath.SkipDir
			}
			return nil
		}
		name := d.Name()
		if filepath.Ext(name) != ".go" || len(name) > 8 && name[len(name)-8:] == "_test.go" {
			return nil
		}
		if name == "stats.go" && filepath.Base(filepath.Dir(path)) == "sim" {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for c := range missing {
			if regexp.MustCompile(`\b` + c + `\b`).Match(src) {
				delete(missing, c)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for c := range missing {
		t.Errorf("counter constant %s (%q) is never referenced by protocol code", c, consts[c])
	}
}

// TestCanonicalCountersComplete cross-checks sim.CanonicalCounters against
// the parsed constant block: the metrics surface seeds its exposition from
// that list, so a counter declared but not listed would be invisible on a
// fresh scrape (and vice versa, a stale entry would export a series no
// code can drive).
func TestCanonicalCountersComplete(t *testing.T) {
	consts := declaredCounters(t)
	canon := make(map[string]bool, len(sim.CanonicalCounters))
	for _, name := range sim.CanonicalCounters {
		if canon[name] {
			t.Errorf("CanonicalCounters lists %q twice", name)
		}
		canon[name] = true
	}
	declared := make(map[string]bool, len(consts))
	for cname, counter := range consts {
		declared[counter] = true
		if !canon[counter] {
			t.Errorf("counter %s (%q) declared in stats.go but missing from sim.CanonicalCounters", cname, counter)
		}
	}
	for name := range canon {
		if !declared[name] {
			t.Errorf("CanonicalCounters entry %q has no Ctr constant in stats.go", name)
		}
	}
}

// waitForCounter polls until the named counter moves past min, failing the
// test at the deadline. The scenarios below use it to sequence cross-peer
// schedules on protocol-internal events.
func waitForCounter(t *testing.T, stats *sim.Stats, name string, min int64, deadline time.Duration) {
	t.Helper()
	dl := time.Now().Add(deadline)
	for stats.Get(name) < min {
		if time.Now().After(dl) {
			t.Fatalf("counter %s stuck at %d (< %d) after %v", name, stats.Get(name), min, deadline)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCounterCompleteness runs every scenario and asserts the union of
// their counter snapshots has every declared counter nonzero.
func TestCounterCompleteness(t *testing.T) {
	union := make(map[string]int64)
	add := func(s *sim.Stats) {
		for k, v := range s.Snapshot() {
			union[k] += v
		}
	}

	scenarioGeneralWorkload(t, add)
	scenarioCallbackDance(t, add)
	scenarioRaces(t, add)
	scenarioRedoAndEviction(t, add)
	scenarioLockAborts(t, add)
	scenarioMessageFaults(t, add)
	scenarioCrash(t, add)
	scenarioClosedNetwork(t, add)
	scenarioWriteBackError(t, add)
	scenarioAdvisor(t, add)
	scenarioBatching(t, add)
	scenarioTCP(t, add)
	scenarioDetach(t, add)
	scenario2PC(t, add)

	for cname, counter := range declaredCounters(t) {
		if union[counter] == 0 {
			t.Errorf("counter %s (%s) not exercised by any scenario", counter, cname)
		}
	}
}

// scenario2PC drives the cross-shard commit counters: a clean two-shard
// commit pays one prepare record per shard (2pc_prepares), and a commit
// wedged between its phases at a client that then crashes is reclaimed by
// the survivors' presumed-abort rule (2pc_presumed_aborts).
func scenario2PC(t *testing.T, add func(*sim.Stats)) {
	wedge := make(chan struct{})
	entered := make(chan struct{}, 1)
	tc := newShardCluster(t, PSAA, 2, 2, 4, resilientCfg, func(c *Config) {
		c.TwoPCGate = func(home string, _ lock.TxID) {
			if home == "c2" {
				select {
				case entered <- struct{}{}:
				default:
				}
				<-wedge
			}
		}
	})
	defer add(tc.sys.Stats())

	x := tc.clients[0].Begin()
	writeVal(t, x, shardObj(1, 0, 0), "a")
	writeVal(t, x, shardObj(2, 0, 0), "b")
	mustCommit(t, x)

	done := make(chan error, 1)
	y := tc.clients[1].Begin()
	writeVal(t, y, shardObj(1, 1, 0), "a")
	writeVal(t, y, shardObj(2, 1, 0), "b")
	go func() { done <- y.Commit() }()
	<-entered
	if err := tc.sys.CrashPeer("c2"); err != nil {
		t.Fatal(err)
	}
	close(wedge)
	<-done
	waitUntil(t, 10*time.Second, func() bool {
		return tc.shards[0].slog.PreparedCount() == 0 && tc.shards[1].slog.PreparedCount() == 0
	}, "survivors to reclaim the crashed home's prepared transaction")
}

// scenarioGeneralWorkload covers the steady-state counters: reads, writes,
// cache hits, adaptive page locks (grant, saved escalation, deescalation),
// commit, abort, and the message/page/disk traffic underneath them.
func scenarioGeneralWorkload(t *testing.T, add func(*sim.Stats)) {
	tc := newCluster(t, PSAA, 2, 10)
	a, b := tc.clients[0], tc.clients[1]

	x := a.Begin()
	readVal(t, x, objID(0, 0))
	mustCommit(t, x)

	// Re-read in a fresh transaction: served from the retained local copy.
	x = a.Begin()
	readVal(t, x, objID(0, 0))
	mustCommit(t, x)

	// First write on an unused page gets the adaptive page lock; the
	// second write on the same page rides it (a saved escalation).
	ta := a.Begin()
	writeVal(t, ta, objID(1, 0), "v0")
	writeVal(t, ta, objID(1, 1), "v1")

	// B touching a third object on the page while A's transaction is
	// still active forces the server to deescalate A's adaptive lock.
	tb := b.Begin()
	readVal(t, tb, objID(1, 2))
	mustCommit(t, tb)
	mustCommit(t, ta)

	// One explicit abort.
	x = a.Begin()
	writeVal(t, x, objID(2, 0), "doomed")
	if err := x.Abort(); err != nil {
		t.Fatalf("abort: %v", err)
	}
	add(tc.sys.Stats())
}

// scenarioCallbackDance drives the §4.2.2/§4.3.2 machinery: a callback
// blocks on a reader's SH lock, the server downgrades and waits, a third
// client sneaks a copy of the page in the window, and the ship-count
// comparison forces an extra callback round when the first completes.
func scenarioCallbackDance(t *testing.T, add func(*sim.Stats)) {
	tc := newCluster(t, PSAA, 3, 10)
	a, b, c := tc.clients[0], tc.clients[1], tc.clients[2]
	stats := tc.sys.Stats()

	// Warm b's cache so its next SH lock is local-only.
	warm := b.Begin()
	readVal(t, warm, objID(1, 0))
	mustCommit(t, warm)

	tb := b.Begin()
	readVal(t, tb, objID(1, 0))

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

	// Once b's callback thread reports blocked, the server is in the
	// downgrade window; let c ship the page before b releases.
	waitForCounter(t, stats, sim.CtrCallbackBlocked, 1, 5*time.Second)
	tcx := c.Begin()
	readVal(t, tcx, objID(1, 1))
	mustCommit(t, tcx)

	mustCommit(t, tb)
	if err := <-aDone; err != nil {
		t.Fatalf("a's write after b released: %v", err)
	}
	if stats.Get(sim.CtrCallbackRounds) == 0 {
		t.Error("sneaked-in page ship did not force an extra callback round")
	}
	add(stats)
}

// scenarioRaces invokes the §4.2.4 race handlers white-box, the way
// races_test.go does: a callback overtaking an outstanding read reply, and
// a purge notice arriving after the page was re-shipped.
func scenarioRaces(t *testing.T, add func(*sim.Stats)) {
	tc := newCluster(t, PSAA, 1, 10)
	a := tc.clients[0]

	cachePage(t, a, 1)
	startRead(a, pageID(1), 0)
	foreign := lock.TxID{Site: "cx", Seq: 1}
	a.handleCallback("srv", callbackReq{OpID: 7001, Tx: foreign, Item: objID(1, 2), Page: pageID(1)})

	cachePage(t, a, 4)
	if _, err := tc.srv.ship(objID(4, 0), a.name, false, obs.SpanContext{}); err != nil { // the re-fetch bumps the install count
		t.Fatal(err)
	}
	tc.srv.processPiggyback(a.name, []purgeNotice{{Page: pageID(4), Install: 1}})

	stats := tc.sys.Stats()
	if stats.Get(sim.CtrCallbackRaces) == 0 {
		t.Error("callback race not registered")
	}
	if stats.Get(sim.CtrPurgeRaces) == 0 {
		t.Error("purge race not detected")
	}
	add(stats)
}

// scenarioRedoAndEviction shrinks the server pool so a committed page
// falls out before redo (the §3.3 re-read) and a dirty page is evicted
// (the write-back disk write).
func scenarioRedoAndEviction(t *testing.T, add func(*sim.Stats)) {
	tc := newCluster(t, PSAA, 1, 40, func(c *Config) {
		c.ServerPoolPages = 4
	})
	a := tc.clients[0]

	x := a.Begin()
	writeVal(t, x, objID(0, 0), "dirty")
	for pg := uint32(1); pg < 30; pg++ {
		readVal(t, x, objID(pg, 0))
	}
	mustCommit(t, x) // page 0 non-resident: redo re-reads it, leaves it dirty

	y := a.Begin()
	for pg := uint32(30); pg < 40; pg++ {
		readVal(t, y, objID(pg, 0)) // evicts the dirty page 0: write-back
	}
	mustCommit(t, y)
	add(tc.sys.Stats())
}

// scenarioLockAborts drives the lock manager directly for the two abort
// counters it owns: a wait that times out and a wait the deadlock
// detector victimizes.
func scenarioLockAborts(t *testing.T, add func(*sim.Stats)) {
	stats := sim.NewStats()
	m := lock.NewManager(stats, nil)
	objA := storage.ObjectItem(1, 1, 1, 0)
	objB := storage.ObjectItem(1, 1, 2, 0)
	t1 := lock.TxID{Site: "dl1", Seq: 1}
	t2 := lock.TxID{Site: "dl2", Seq: 2}
	t3 := lock.TxID{Site: "dl3", Seq: 3}
	if err := m.Lock(t1, objA, lock.EX, lock.Options{}); err != nil {
		t.Fatal(err)
	}
	if err := m.Lock(t2, objB, lock.EX, lock.Options{}); err != nil {
		t.Fatal(err)
	}

	// t3 waits for A and times out.
	if err := m.Lock(t3, objA, lock.EX, lock.Options{Timeout: 20 * time.Millisecond}); !errors.Is(err, lock.ErrTimeout) {
		t.Fatalf("timed-out lock err = %v, want ErrTimeout", err)
	}

	// t1 blocks on B, then t2 closes the cycle requesting A.
	t1ch := make(chan error, 1)
	go func() { t1ch <- m.Lock(t1, objB, lock.EX, lock.Options{Timeout: 10 * time.Second}) }()
	waitForCounter(t, stats, sim.CtrLockWaits, 2, 5*time.Second) // t3's wait + t1's wait
	t2ch := make(chan error, 1)
	go func() { t2ch <- m.Lock(t2, objA, lock.EX, lock.Options{Timeout: 10 * time.Second}) }()

	var victim lock.TxID
	surv := t1ch
	select {
	case err := <-t1ch:
		if !errors.Is(err, lock.ErrDeadlock) {
			t.Fatalf("t1 wait ended with %v, want ErrDeadlock", err)
		}
		victim, surv = t1, t2ch
	case err := <-t2ch:
		if !errors.Is(err, lock.ErrDeadlock) {
			t.Fatalf("t2 request ended with %v, want ErrDeadlock", err)
		}
		victim = t2
	case <-time.After(5 * time.Second):
		t.Fatal("deadlock not detected")
	}
	m.ReleaseAll(victim)
	select {
	case err := <-surv:
		if err != nil {
			t.Fatalf("survivor after victim released: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("survivor still blocked after victim released")
	}
	m.ReleaseAll(t1)
	m.ReleaseAll(t2)
	add(stats)
}

// scenarioMessageFaults runs three tiny clusters with probability-one
// fault plans, making the injection counters and the resilience reactions
// (retry, RPC timeout, duplicate suppression) deterministic.
func scenarioMessageFaults(t *testing.T, add func(*sim.Stats)) {
	// Drop everything: the read's RPC times out, is retried, and fails.
	drop := newCluster(t, PS, 1, 4, func(c *Config) { c.RPCTimeout = 10 * time.Millisecond })
	drop.sys.Net().InjectFaults(transport.FaultPlan{Seed: 41, DropProb: 1})
	x := drop.clients[0].Begin()
	if _, err := x.Read(objID(0, 0)); err == nil {
		t.Fatal("read succeeded with every message dropped")
	}
	add(drop.sys.Stats())

	// Duplicate everything: the dedup tables must suppress the copies and
	// the transaction must still commit exactly once.
	dup := newCluster(t, PS, 1, 4, resilientCfg)
	dup.sys.Net().InjectFaults(transport.FaultPlan{Seed: 42, DupProb: 1})
	y := dup.clients[0].Begin()
	writeVal(t, y, objID(0, 0), "dup")
	mustCommit(t, y)
	// The commit can return before a duplicated delivery has reached the
	// dedup ring: wait for the suppression, not for luck.
	waitForCounter(t, dup.sys.Stats(), sim.CtrDupSuppressed, 1, 5*time.Second)
	add(dup.sys.Stats())

	// Delay everything: traffic reorders but the run completes.
	delay := newCluster(t, PS, 1, 4, resilientCfg)
	delay.sys.Net().InjectFaults(transport.FaultPlan{Seed: 43, DelayProb: 1, Delay: time.Millisecond})
	z := delay.clients[0].Begin()
	readVal(t, z, objID(0, 0))
	mustCommit(t, z)
	add(delay.sys.Stats())
}

// scenarioCrash kills a client with an uncommitted write so the server
// reclaims its state, then aims a message at the corpse.
func scenarioCrash(t *testing.T, add func(*sim.Stats)) {
	tc := newCluster(t, PSAA, 2, 4, resilientCfg)
	victim := tc.clients[1]

	x := victim.Begin()
	writeVal(t, x, objID(0, 0), "orphan")
	if err := tc.sys.CrashPeer(victim.Name()); err != nil {
		t.Fatal(err)
	}
	if got := tc.sys.Stats().Get(sim.CtrCrashRecoveries); got == 0 {
		t.Error("no survivor reclaimed the crashed client's state")
	}
	// A send to the crashed peer is refused by the fabric.
	_ = tc.sys.Net().Send(transport.Message{
		From: tc.clients[0].Name(), To: victim.Name(), Kind: kindRequest,
	}, transport.AnyPath)
	add(tc.sys.Stats())
}

// scenarioClosedNetwork sends on a closed fabric: the message is dropped
// and counted rather than delivered or hung.
func scenarioClosedNetwork(t *testing.T, add func(*sim.Stats)) {
	stats := sim.NewStats()
	n := transport.NewNetwork(sim.DefaultCosts(0), stats, 1, 1)
	for _, name := range []string{"a", "b"} {
		cpu := sim.NewResource(name+"-cpu", sim.DefaultCosts(0))
		if err := n.Register(name, cpu, func(transport.Message) {}); err != nil {
			t.Fatal(err)
		}
	}
	n.Close()
	if err := n.Send(transport.Message{From: "a", To: "b"}, transport.AnyPath); !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("send after close err = %v, want ErrClosed", err)
	}
	add(stats)
}

// scenarioWriteBackError hands the server an eviction whose page belongs
// to a volume it does not own: the write-back must fail and be counted.
func scenarioWriteBackError(t *testing.T, add func(*sim.Stats)) {
	tc := newCluster(t, PS, 1, 4)
	pg, err := tc.srv.srvFetchPage(pageID(0), obs.SpanContext{})
	if err != nil {
		t.Fatal(err)
	}
	tc.srv.writeBackEvictions([]buffer.Eviction{{
		ID:    storage.PageItem(9, 1, 0), // volume 9 is owned by nobody
		Page:  pg,
		Dirty: storage.AllAvailable(4),
	}})
	if tc.sys.Stats().Get(sim.CtrWriteBackErrors) == 0 {
		t.Error("write-back of an unowned volume's page not counted as an error")
	}
	add(tc.sys.Stats())
}

// scenarioBatching runs a cluster whose disks take real time, driving the
// group-commit force/join counters: while one log write is in progress, a
// second force waits to lead the next write and later ones join it.
func scenarioBatching(t *testing.T, add func(*sim.Stats)) {
	tc := newCluster(t, PSAA, 2, 10, func(c *Config) {
		c.Costs = sim.CostTable{Scale: 1, DiskIO: 2 * time.Millisecond, Quantum: time.Microsecond}
	})
	a := tc.clients[0]
	stats := tc.sys.Stats()

	w := a.Begin()
	writeVal(t, w, objID(9, 0), "v")
	mustCommit(t, w)

	// w's commit forced records through the group committer (a lone force
	// counts as a led one). Drive the log directly for a multi-member
	// cohort: four concurrent forces on the slow disk, where two that
	// arrive during another's write share the next one.
	waitForCounter(t, stats, sim.CtrWALGroupForces, 1, 5*time.Second)
	for i := 0; i < 20 && stats.Get(sim.CtrWALGroupJoins) == 0; i++ {
		var wg sync.WaitGroup
		for j := 0; j < 4; j++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				tc.srv.slog.CommitForce(lock.TxID{Site: "gc", Seq: 1})
			}()
		}
		wg.Wait()
	}
	if stats.Get(sim.CtrWALGroupJoins) == 0 {
		t.Error("concurrent forces never shared a group-commit disk write")
	}
	add(stats)
}

// scenarioDetach gracefully detaches a client that cached several pages:
// the evictions queue purge notices, the detach flushes them to the owner,
// and the purge lifecycle counters balance — every notice sent is applied
// exactly once.
func scenarioDetach(t *testing.T, add func(*sim.Stats)) {
	tc := newCluster(t, PSAA, 2, 8)
	a := tc.clients[0]
	for pg := uint32(0); pg < 4; pg++ {
		x := a.Begin()
		readVal(t, x, objID(pg, 0))
		mustCommit(t, x)
	}
	stats := tc.sys.Stats()
	// The flush is a request: Detach returns once the owner has applied
	// it, so the counters balance with no wait.
	a.Detach()
	sent := stats.Get(sim.CtrPurgeSent)
	if sent < 4 {
		t.Errorf("detach sent %d purge notices, want >= 4", sent)
	}
	if applied := stats.Get(sim.CtrPurgeApplied); applied != sent {
		t.Errorf("purge notices applied=%d, sent=%d after detach", applied, sent)
	}
	add(stats)
}

// scenarioAdvisor drives the PS-AH history advisor's three decision
// counters: false-sharing rounds until escalation is suppressed and
// callbacks demote to object grain, then a quiet write streak on a
// private page until a write upgrades to page grain.
func scenarioAdvisor(t *testing.T, add func(*sim.Stats)) {
	tc := newCluster(t, PSAH, 2, 8)
	a, b := tc.clients[0], tc.clients[1]
	for i := 0; i < 6; i++ {
		ta := a.Begin()
		writeVal(t, ta, objID(0, 0), "a"+itoa(i))
		tb := b.Begin()
		writeVal(t, tb, objID(0, 1), "b"+itoa(i))
		mustCommit(t, ta)
		mustCommit(t, tb)
	}
	streak := a.Begin()
	for i := 0; i < 5; i++ {
		writeVal(t, streak, objID(4, uint16(i%4)), "s"+itoa(i))
	}
	mustCommit(t, streak)
	for _, c := range []string{sim.CtrAdvisorEscSuppressed, sim.CtrAdvisorObjectGrainCB, sim.CtrAdvisorPageGrainWrites} {
		if tc.sys.Stats().Get(c) == 0 {
			t.Errorf("advisor scenario left %s at zero", c)
		}
	}
	add(tc.sys.Stats())
}

// scenarioTCP runs a commit round-trip over the real TCP fabric (loopback,
// single process) and then severs every socket touching a client, driving
// the connection-lifecycle counters: CtrTCPConns on dial/accept and
// CtrTCPReconnects when the keepers redial after the blip.
func scenarioTCP(t *testing.T, add func(*sim.Stats)) {
	tc := newCluster(t, PSAA, 1, 4, func(c *Config) {
		c.Transport = transport.TCPFactory(transport.TCPOptions{
			ReconnectMin: 2 * time.Millisecond,
			ReconnectMax: 50 * time.Millisecond,
		})
	})
	a := tc.clients[0]
	x := a.Begin()
	writeVal(t, x, objID(0, 0), "over-tcp")
	mustCommit(t, x)

	stats := tc.sys.Stats()
	if stats.Get(sim.CtrTCPConns) == 0 {
		t.Error("commit over TCP established no connections")
	}
	tcp := tc.sys.Net().(*transport.TCP)
	if n := tcp.DropConnections(a.Name()); n == 0 {
		t.Error("DropConnections severed nothing")
	}
	waitForCounter(t, stats, sim.CtrTCPReconnects, 1, 10*time.Second)

	// The fabric heals: a fresh commit flows over redialed sockets.
	y := a.Begin()
	writeVal(t, y, objID(0, 1), "after-blip")
	mustCommit(t, y)
	add(stats)
}
