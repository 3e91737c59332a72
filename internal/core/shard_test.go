package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"adaptivecc/internal/lock"
	"adaptivecc/internal/obs"
	"adaptivecc/internal/placement"
	"adaptivecc/internal/sim"
	"adaptivecc/internal/storage"
	"adaptivecc/internal/wal"
)

// shardCluster builds numShards owner peers ("s1".."sN"), shard si owning
// volume i of numPages pages, plus client peers owning nothing — the
// smallest fleet whose cross-shard transactions need a real second commit
// phase.
type shardCluster struct {
	sys     *System
	shards  []*Peer
	clients []*Peer
}

func newShardCluster(t *testing.T, proto Protocol, numShards, numClients, numPages int, opts ...func(*Config)) *shardCluster {
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
	sc := &shardCluster{sys: sys}
	for i := 1; i <= numShards; i++ {
		vol := storage.NewVolume(storage.VolumeID(i), cfg.Costs, stats)
		if _, err := vol.CreateFile(1, 0, uint32(numPages), cfg.ObjectsPerPage, cfg.ObjectSize); err != nil {
			t.Fatal(err)
		}
		sys.Directory().AddExtent(storage.VolumeID(i), 1, 0, uint32(numPages))
		p, err := sys.AddPeer(fmt.Sprintf("s%d", i), vol)
		if err != nil {
			t.Fatal(err)
		}
		sc.shards = append(sc.shards, p)
	}
	for i := 0; i < numClients; i++ {
		c, err := sys.AddPeer(fmt.Sprintf("c%d", i+1))
		if err != nil {
			t.Fatal(err)
		}
		sc.clients = append(sc.clients, c)
	}
	t.Cleanup(sys.Close)
	return sc
}

// shardObj addresses slot `slot` of page `page` in shard vol's single file.
func shardObj(vol storage.VolumeID, page uint32, slot uint16) storage.ItemID {
	return storage.ObjectItem(vol, 1, page, slot)
}

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, d time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCrossShardCommitTwoPhase commits a transaction spanning two shards
// and checks the full 2PC footprint: one prepare per shard, a recorded
// commit decision at the coordinator (the shard owning the first-written
// item), no prepared-but-undecided residue, and the values visible to a
// second client on both shards.
func TestCrossShardCommitTwoPhase(t *testing.T) {
	tc := newShardCluster(t, PSAA, 2, 2, 4, resilientCfg)
	stats := tc.sys.Stats()

	x := tc.clients[0].Begin()
	writeVal(t, x, shardObj(1, 0, 0), "alpha")
	writeVal(t, x, shardObj(2, 0, 0), "beta")
	mustCommit(t, x)

	if got := stats.Get(sim.Ctr2PCPrepares); got != 2 {
		t.Errorf("2pc_prepares = %d, want 2 (one per shard)", got)
	}
	// Coordinator = owner of the first-written item = s1.
	if d := tc.shards[0].slog.DecisionOf(x.ID()); d != wal.DecisionCommit {
		t.Errorf("coordinator decision = %v, want commit", d)
	}
	for _, s := range tc.shards {
		if n := s.slog.PreparedCount(); n != 0 {
			t.Errorf("%s left %d prepared transactions after commit", s.Name(), n)
		}
	}

	y := tc.clients[1].Begin()
	if got := readVal(t, y, shardObj(1, 0, 0)); got != "alpha" {
		t.Errorf("shard 1 reads %q, want alpha", got)
	}
	if got := readVal(t, y, shardObj(2, 0, 0)); got != "beta" {
		t.Errorf("shard 2 reads %q, want beta", got)
	}
	mustCommit(t, y)
}

// TestSingleShardCommitSkipsSecondPhase pins the parity guarantee: a
// transaction whose updates all land on one shard must not pay a prepare
// record or a decide round even in a multi-shard fleet.
func TestSingleShardCommitSkipsSecondPhase(t *testing.T) {
	tc := newShardCluster(t, PSAA, 2, 1, 4, resilientCfg)

	x := tc.clients[0].Begin()
	writeVal(t, x, shardObj(1, 0, 0), "solo")
	writeVal(t, x, shardObj(1, 1, 0), "solo2")
	mustCommit(t, x)

	if got := tc.sys.Stats().Get(sim.Ctr2PCPrepares); got != 0 {
		t.Errorf("2pc_prepares = %d on a single-shard commit, want 0", got)
	}
	if d := tc.shards[0].slog.DecisionOf(x.ID()); d != wal.DecisionUnknown {
		t.Errorf("single-shard commit recorded a 2PC decision (%v)", d)
	}
}

// TestMisdirectedRequestRejected routes every request to the wrong shard
// via a deliberately corrupt placement map, swapped in after the fleet is
// built: the server must answer with the typed misdirection error, which
// must survive the wire.
func TestMisdirectedRequestRejected(t *testing.T) {
	tc := newShardCluster(t, PSAA, 2, 1, 4)
	swap := placement.NewTable()
	swap.SetVolume(1, "s2") // wrong on purpose: s1 owns volume 1
	swap.SetVolume(2, "s1")
	tc.sys.place = swap

	x := tc.clients[0].Begin()
	_, err := x.Read(shardObj(1, 0, 0))
	if !errors.Is(err, placement.ErrMisdirected) {
		t.Fatalf("misdirected read: %v, want placement.ErrMisdirected", err)
	}
	err = x.Write(shardObj(2, 0, 0), []byte("v"))
	if !errors.Is(err, placement.ErrMisdirected) {
		t.Fatalf("misdirected write: %v, want placement.ErrMisdirected", err)
	}
	_ = x.Abort()
}

// TestResolverPresumesAbortOnSilentHome wedges a cross-shard commit
// between its phases forever: both participants hold prepared
// transactions whose decide round never comes. The background resolver
// must settle them — the coordinator records abort for its own aged
// prepare, the other shard learns abort from a status query — and the
// late decide must then fail instead of splitting the fate.
func TestResolverPresumesAbortOnSilentHome(t *testing.T) {
	watchdog(t, time.Minute, func() {
		wedge := make(chan struct{})
		entered := make(chan struct{}, 1)
		tc := newShardCluster(t, PSAA, 2, 1, 4, func(c *Config) {
			// In-doubt resolution fires after 16×RPCTimeout = 320ms; the
			// lock-wait ceiling stays below the 39×RPCTimeout retry budget.
			c.RPCTimeout = 20 * time.Millisecond
			c.FixedTimeout = 500 * time.Millisecond
			c.TwoPCGate = func(home string, _ lock.TxID) {
				select {
				case entered <- struct{}{}:
				default:
				}
				<-wedge
			}
		})
		stats := tc.sys.Stats()

		done := make(chan error, 1)
		x := tc.clients[0].Begin()
		writeVal(t, x, shardObj(1, 2, 0), "doomed")
		writeVal(t, x, shardObj(2, 2, 0), "doomed")
		go func() { done <- x.Commit() }()
		<-entered

		waitUntil(t, 10*time.Second, func() bool {
			return tc.shards[0].slog.PreparedCount() == 0 && tc.shards[1].slog.PreparedCount() == 0
		}, "resolver to settle both prepared transactions")
		if got := stats.Get(sim.Ctr2PCPresumedAborts); got == 0 {
			t.Error("2pc_presumed_aborts = 0 after resolver settled in-doubt transactions")
		}
		if d := tc.shards[0].slog.DecisionOf(x.ID()); d != wal.DecisionAbort {
			t.Errorf("coordinator decision = %v, want abort", d)
		}

		// Release the wedged home: its decide must be refused, the commit
		// must fail, and the write must not be visible anywhere.
		close(wedge)
		if err := <-done; err == nil {
			t.Fatal("commit succeeded after the coordinator presumed abort")
		}
		y := tc.clients[0].Begin()
		if got := readVal(t, y, shardObj(1, 2, 0)); got == "doomed" {
			t.Error("aborted cross-shard write visible on shard 1")
		}
		if got := readVal(t, y, shardObj(2, 2, 0)); got == "doomed" {
			t.Error("aborted cross-shard write visible on shard 2")
		}
		mustCommit(t, y)
	})
}

// preparedAcrossShards builds a two-shard fleet and drives one
// transaction homed at c1 through the prepare round by hand: each shard
// holds a prepared record writing "v" to page 2, slot 0 of its volume,
// with s1 as coordinator. The timings are TestResolverPresumesAbortOnSilentHome's.
func preparedAcrossShards(t *testing.T) (*shardCluster, lock.TxID) {
	t.Helper()
	tc := newShardCluster(t, PSAA, 2, 2, 4, func(c *Config) {
		c.RPCTimeout = 20 * time.Millisecond
		c.FixedTimeout = 500 * time.Millisecond
	})
	home := tc.clients[0]
	id := home.Begin().ID()
	for i, s := range tc.shards {
		obj := shardObj(storage.VolumeID(i+1), 2, 0)
		before, err := s.srvObjectBytes(obj, obs.SpanContext{})
		if err != nil {
			t.Fatal(err)
		}
		rec := wal.Record{Tx: id, Object: obj, Before: before, After: []byte("v")}
		if _, err := home.call(s.Name(), obs.SpanContext{}, prepareReq{Tx: id, Records: []wal.Record{rec}, Coord: "s1"}); err != nil {
			t.Fatalf("prepare at %s: %v", s.Name(), err)
		}
	}
	return tc, id
}

// crashHomeExpectCommitted crashes the home of preparedAcrossShards'
// transaction, waits until neither shard holds it in doubt, and requires
// its write on both shards.
func crashHomeExpectCommitted(t *testing.T, tc *shardCluster) {
	t.Helper()
	if err := tc.sys.CrashPeer(tc.clients[0].Name()); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 10*time.Second, func() bool {
		return tc.shards[0].slog.PreparedCount() == 0 && tc.shards[1].slog.PreparedCount() == 0
	}, "both shards to settle the prepared transaction")
	y := tc.clients[1].Begin()
	for i, s := range tc.shards {
		if got := readVal(t, y, shardObj(storage.VolumeID(i+1), 2, 0)); got != "v" {
			t.Errorf("%s holds %q after the home crash, want the committed %q", s.Name(), got, "v")
		}
	}
	mustCommit(t, y)
}

// TestCoordinatorCommitSurvivesHomeCrash records the commit decision at
// the coordinator and crashes the home before any finish. Crash
// reclamation must not presume abort for a transaction the coordinator's
// own log decided: s1 keeps the write, and s2 learns the fate from s1.
func TestCoordinatorCommitSurvivesHomeCrash(t *testing.T) {
	watchdog(t, time.Minute, func() {
		tc, id := preparedAcrossShards(t)
		if _, err := tc.clients[0].call("s1", obs.SpanContext{}, decideReq{Tx: id, Commit: true}); err != nil {
			t.Fatalf("decide: %v", err)
		}
		crashHomeExpectCommitted(t, tc)
		if d := tc.shards[0].slog.DecisionOf(id); d != wal.DecisionCommit {
			t.Errorf("coordinator decision = %v, want commit", d)
		}
	})
}

// TestParticipantAsksLiveCoordinatorAfterHomeCrash lets the finish(commit)
// reach s1 only, then crashes the home. s2 holds a prepared transaction
// whose coordinator is alive and committed it: only the coordinator
// decides it, so s2 must not presume abort but commit once its resolver
// asks s1.
func TestParticipantAsksLiveCoordinatorAfterHomeCrash(t *testing.T) {
	watchdog(t, time.Minute, func() {
		tc, id := preparedAcrossShards(t)
		home := tc.clients[0]
		if _, err := home.call("s1", obs.SpanContext{}, decideReq{Tx: id, Commit: true}); err != nil {
			t.Fatalf("decide: %v", err)
		}
		if _, err := home.call("s1", obs.SpanContext{}, finishReq{Tx: id, Commit: true}); err != nil {
			t.Fatalf("finish at s1: %v", err)
		}
		crashHomeExpectCommitted(t, tc)
	})
}

// TestLockWaitTimeoutRule pins the one lock-wait timeout rule at every
// RPC scale: a zero Config waits forever, a positive FixedTimeout is used
// as is, and otherwise the adaptive heuristic rules — cold, it returns its
// ceiling, which derives from RPCTimeout and so ends every lock wait inside
// the 39×RPCTimeout retry budget of the request parked on it.
func TestLockWaitTimeoutRule(t *testing.T) {
	for _, rpc := range []time.Duration{
		10 * time.Millisecond, 100 * time.Millisecond, 250 * time.Millisecond,
		500 * time.Millisecond, 2 * time.Second,
	} {
		t.Run(rpc.String(), func(t *testing.T) {
			peer := func(cfg Config) *Peer {
				cfg.RPCTimeout = rpc
				sys := NewSystem(cfg)
				t.Cleanup(sys.Close)
				p, err := sys.AddPeer("p")
				if err != nil {
					t.Fatal(err)
				}
				return p
			}
			if got := peer(Config{}).waitTimeout(); got != 0 {
				t.Errorf("zero Config: timeout %v, want 0 (wait forever)", got)
			}
			if got := peer(Config{UseTimeouts: true, FixedTimeout: 5 * time.Second}).waitTimeout(); got != 5*time.Second {
				t.Errorf("FixedTimeout 5s: timeout %v, want 5s", got)
			}
			p := peer(Config{UseTimeouts: true})
			ceil := p.waits.Timeout()
			if got := p.waitTimeout(); got != ceil {
				t.Errorf("UseTimeouts alone: timeout %v, want the adaptive tracker's %v", got, ceil)
			}
			if budget := 39 * rpc; ceil >= budget {
				t.Errorf("cold adaptive timeout %v, want below the %v retry budget", ceil, budget)
			}
			p.waits.Observe(time.Millisecond)
			if got := p.waitTimeout(); got != p.waits.Timeout() || got >= ceil {
				t.Errorf("warmed timeout %v, want the tracker's %v below ceiling %v", got, p.waits.Timeout(), ceil)
			}
		})
	}
}

// TestCrossShardDeadlockResolvesByAdaptiveTimeout builds the deadlock no
// single shard can see: transaction A holds an EX lock on shard 1 and
// wants one on shard 2; B holds shard 2's and wants shard 1's. Each
// shard's waits-for graph has one edge and no cycle, so local detection
// stays silent; the adaptive lock-wait timeout must break the cycle. The
// trackers are warmed first, so the firing timeout is the mean+stddev
// heuristic, not the cold-start ceiling (30×RPCTimeout).
func TestCrossShardDeadlockResolvesByAdaptiveTimeout(t *testing.T) {
	watchdog(t, time.Minute, func() {
		tc := newShardCluster(t, PSAA, 2, 2, 4, resilientCfg, func(c *Config) {
			c.FixedTimeout = 0 // the adaptive heuristic
		})
		ceil := waitCeilRPCs * tc.sys.Config().RPCTimeout
		stats := tc.sys.Stats()
		c1, c2 := tc.clients[0], tc.clients[1]
		objA := shardObj(1, 0, 0)
		objB := shardObj(2, 0, 0)

		// Warm the wait trackers with short real conflicts so the adaptive
		// timeout derives from history instead of the ceiling.
		for i := 0; i < 6; i++ {
			h := c1.Begin()
			writeVal(t, h, objA, "warm")
			writeVal(t, h, objB, "warm")
			first := objA // even rounds conflict at shard 1, odd at shard 2
			if i%2 == 1 {
				first = objB
			}
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				w := c2.Begin()
				if err := w.Write(first, []byte("warm2")); err == nil {
					_ = w.Commit()
				} else {
					_ = w.Abort()
				}
			}()
			time.Sleep(20 * time.Millisecond)
			mustCommit(t, h)
			wg.Wait()
		}
		for _, s := range tc.shards {
			if s.waits.Count() == 0 {
				t.Fatalf("%s observed no lock waits during warmup", s.Name())
			}
			if got := s.waits.Timeout(); got >= ceil {
				t.Fatalf("%s adaptive timeout %v still at the %v ceiling", s.Name(), got, ceil)
			}
		}

		deadlocksBefore := stats.Get(sim.CtrDeadlockAborts)
		timeoutsBefore := stats.Get(sim.CtrTimeoutAborts)

		a := c1.Begin()
		b := c2.Begin()
		writeVal(t, a, objA, "A") // A holds shard 1
		writeVal(t, b, objB, "B") // B holds shard 2

		var wg sync.WaitGroup
		errs := make([]error, 2)
		wg.Add(2)
		start := time.Now()
		go func() { defer wg.Done(); errs[0] = a.Write(objB, []byte("A")) }()
		go func() { defer wg.Done(); errs[1] = b.Write(objA, []byte("B")) }()
		wg.Wait()
		if took := time.Since(start); took >= ceil {
			t.Errorf("deadlock took %v to break, want the warmed heuristic below the %v ceiling", took, ceil)
		}

		aborted := 0
		for _, err := range errs {
			if err != nil {
				if !errors.Is(err, lock.ErrTimeout) {
					t.Errorf("deadlocked write failed with %v, want lock.ErrTimeout", err)
				}
				aborted++
			}
		}
		if aborted == 0 {
			t.Fatal("cross-shard deadlock resolved with neither writer timing out")
		}
		if got := stats.Get(sim.CtrTimeoutAborts); got == timeoutsBefore {
			t.Error("timeout_aborts did not move")
		}
		if got := stats.Get(sim.CtrDeadlockAborts); got != deadlocksBefore {
			t.Error("local deadlock detection fired on a cross-shard cycle it cannot see")
		}
		_ = a.Abort()
		_ = b.Abort()

		// The survivor (if any) can finish once the victim released.
		z := c1.Begin()
		writeVal(t, z, objA, "done")
		writeVal(t, z, objB, "done")
		mustCommit(t, z)
	})
}
