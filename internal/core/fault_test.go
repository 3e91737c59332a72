package core

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"adaptivecc/internal/consistency"
	"adaptivecc/internal/lock"
	"adaptivecc/internal/obs"
	"adaptivecc/internal/obs/audit"
	"adaptivecc/internal/obs/critpath"
	"adaptivecc/internal/sim"
	"adaptivecc/internal/storage"
	"adaptivecc/internal/transport"
	"adaptivecc/internal/verify"
)

// resilientCfg shortens the RPC discipline's timeouts enough for tests.
// The lock timeout stays below the total retry budget (39×RPCTimeout) so a
// blocked server request resolves before its client abandons the call.
func resilientCfg(c *Config) {
	c.RPCTimeout = 100 * time.Millisecond
	c.FixedTimeout = 2 * time.Second
}

// watchdog fails the test with full stacks if fn does not return in time —
// a hung protocol under faults must be diagnosable, not a CI timeout.
func watchdog(t *testing.T, d time.Duration, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(d):
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		t.Fatalf("hung after %v:\n%s", d, buf[:n])
	}
}

// faultPlanFor builds the injection plan of one matrix cell.
func faultPlanFor(kind string) *transport.FaultPlan {
	switch kind {
	case "drop":
		return &transport.FaultPlan{Seed: 11, DropProb: 0.05}
	case "dup":
		return &transport.FaultPlan{Seed: 12, DupProb: 0.15}
	case "delay":
		return &transport.FaultPlan{Seed: 13, DelayProb: 0.15, Delay: 2 * time.Millisecond}
	case "crash", "shardcrash":
		return nil // runtime crash, no message faults
	default:
		panic("unknown fault kind " + kind)
	}
}

func parseProtocol(t *testing.T, s string) Protocol {
	p, err := consistency.Parse(s)
	if err != nil {
		t.Fatalf("FAULT_PROTOCOL: %v", err)
	}
	return p
}

// TestFaultMatrix runs the serializability oracle under injected faults for
// every {fault kind} x {protocol} cell. By default every cell runs briefly;
// CI narrows to one cell via FAULT_KIND / FAULT_PROTOCOL and scales the
// load up. Whatever the fabric does — losing, duplicating, or reordering
// messages, or killing a peer outright — the committed history must stay
// serializable and no worker may hang. The dup kind runs once more on a
// cluster built from a Config that names no resilience setting at all,
// the plan injected into the running fabric: dedup is the RPC path, not a
// mode a fault plan switches on.
func TestFaultMatrix(t *testing.T) {
	kinds := []string{"drop", "dup", "delay", "crash", "shardcrash"}
	protos := []Protocol{PS, PSOO, PSOA, PSAA, PSAH}
	txsPerClient := 12
	if k := os.Getenv("FAULT_KIND"); k != "" {
		kinds = []string{k}
		txsPerClient = 30
	}
	if p := os.Getenv("FAULT_PROTOCOL"); p != "" {
		protos = []Protocol{parseProtocol(t, p)}
	}
	for _, kind := range kinds {
		for _, proto := range protos {
			t.Run(kind+"/"+proto.String(), func(t *testing.T) {
				watchdog(t, 4*time.Minute, func() {
					if kind == "shardcrash" {
						runShardCrashCell(t, proto, txsPerClient)
						return
					}
					runFaultCell(t, kind, proto, txsPerClient, true)
				})
			})
		}
		if kind == "dup" {
			// One protocol is enough for the extra input: the last of the
			// run (PS-AH by default, or the one FAULT_PROTOCOL names).
			proto := protos[len(protos)-1]
			t.Run(kind+"/"+proto.String()+"/zero-config", func(t *testing.T) {
				watchdog(t, 4*time.Minute, func() {
					runFaultCell(t, kind, proto, txsPerClient, false)
				})
			})
		}
		if kind == "dup" || kind == "delay" {
			// These message faults run once more with a client pool smaller
			// than the four pages the workers touch, so evictions, early log
			// shipping, purge races and re-fetches meet the fault: on PS-AA,
			// or the protocol FAULT_PROTOCOL names. drop has no such input
			// yet: with it, PS-AA trips the auditor's adaptive-solo check
			// about as often as the drop/PS-AA cell does (ROADMAP 1(b)).
			proto := PSAA
			if os.Getenv("FAULT_PROTOCOL") != "" {
				proto = protos[0]
			}
			t.Run(kind+"/"+proto.String()+"/evicting", func(t *testing.T) {
				watchdog(t, 4*time.Minute, func() {
					runFaultCell(t, kind, proto, txsPerClient, true, func(c *Config) { c.ClientPoolPages = 2 })
				})
			})
		}
	}
}

// runShardCrashCell is the sharded fleet's crash cell: workers run
// cross-shard transactions against two owner peers while a pinned client
// is crashed exactly between its commit's prepare and decide phases. The
// survivors must reclaim the prepared-but-undecided transaction by
// presumed abort (no shard left in doubt), the committed history must stay
// serializable across shards, and no worker may hang.
func runShardCrashCell(t *testing.T, proto Protocol, txsPerClient int) {
	victim := "c3"
	wedge := make(chan struct{})
	entered := make(chan struct{}, 1)
	opts := []func(*Config){resilientCfg, func(c *Config) {
		c.TwoPCGate = func(home string, _ lock.TxID) {
			if home == victim {
				select {
				case entered <- struct{}{}:
				default:
				}
				<-wedge
			}
		}
	}}
	var aud *audit.Auditor
	if os.Getenv("FAULT_AUDIT") != "off" {
		aud = audit.New()
		opts = append(opts, func(c *Config) { c.Audit = aud })
	}
	// Page 3 of each shard is reserved for the victim's wedged transaction;
	// the workers touch pages 0-2.
	tc := newShardCluster(t, proto, 2, 3, 4, opts...)
	stats := tc.sys.Stats()
	hist := verify.NewHistory()
	decode := func(raw []byte) verify.Version {
		return verify.Version{Writer: string(bytes.TrimRight(raw, "\x00"))}
	}

	workers := tc.clients[:2]
	var wg sync.WaitGroup
	committed := make([]int, len(workers))
	for ci, c := range workers {
		wg.Add(1)
		go func(ci int, p *Peer) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(ci)*11 + 5))
			for n := 0; n < txsPerClient; n++ {
				// Every transaction touches both shards, so each commit is a
				// genuine two-phase one.
				objs := []storage.ItemID{
					shardObj(1, uint32(rng.Intn(3)), uint16(rng.Intn(4))),
					shardObj(2, uint32(rng.Intn(3)), uint16(rng.Intn(4))),
				}
				for {
					x := p.Begin()
					rec := verify.TxRecord{Name: x.ID().String()}
					failed := false
					for _, obj := range objs {
						raw, err := x.Read(obj)
						if err != nil {
							failed = true
							break
						}
						op := verify.Op{Object: obj.String(), Read: decode(raw), DidRead: true}
						if rng.Intn(2) == 0 {
							if err := x.Write(obj, []byte(rec.Name)); err != nil {
								failed = true
								break
							}
							op.Wrote = true
						}
						rec.Ops = append(rec.Ops, op)
					}
					if !failed && x.Commit() == nil {
						hist.Commit(rec)
						committed[ci]++
						break
					}
					_ = x.Abort()
					time.Sleep(time.Duration(rng.Intn(3)+1) * time.Millisecond)
				}
			}
		}(ci, c)
	}

	// The victim's cross-shard commit reaches the gate with both shards
	// prepared; the crash lands exactly between the two phases.
	pin := tc.clients[2].Begin()
	if err := pin.Write(shardObj(1, 3, 0), []byte("doomed")); err != nil {
		t.Fatalf("pin write: %v", err)
	}
	if err := pin.Write(shardObj(2, 3, 0), []byte("doomed")); err != nil {
		t.Fatalf("pin write: %v", err)
	}
	pinDone := make(chan error, 1)
	go func() { pinDone <- pin.Commit() }()
	<-entered
	if err := tc.sys.CrashPeer(victim); err != nil {
		t.Fatal(err)
	}
	close(wedge)
	<-pinDone

	stopSweep := make(chan struct{})
	var sweepWG sync.WaitGroup
	if aud != nil {
		sweepWG.Add(1)
		go func() {
			defer sweepWG.Done()
			tick := time.NewTicker(75 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stopSweep:
					return
				case <-tick.C:
					aud.Sweep()
				}
			}
		}()
	}
	wg.Wait()
	if aud != nil {
		close(stopSweep)
		sweepWG.Wait()
	}

	for ci := range workers {
		if committed[ci] != txsPerClient {
			t.Errorf("worker %s committed %d/%d", workers[ci].Name(), committed[ci], txsPerClient)
		}
	}
	if err := hist.Check(); err != nil {
		var cyc *verify.CycleError
		if errors.As(err, &cyc) {
			t.Fatalf("%s under a shard-fleet crash produced a NON-SERIALIZABLE history: %v", proto, cyc.Cycle)
		}
		t.Fatalf("history check: %v", err)
	}

	// The reclaim assertions: the prepared-but-undecided transaction must
	// be gone from every survivor, counted as a presumed abort, and its
	// write must be invisible.
	// The participant that is not the coordinator settles in its resolver,
	// which drops the prepared record just before it releases the locks:
	// reclaiming is done when both are gone.
	waitUntil(t, 10*time.Second, func() bool {
		for _, s := range tc.shards {
			if s.slog.PreparedCount() != 0 || len(s.Locks().TxsBySite(victim)) != 0 {
				return false
			}
		}
		return true
	}, "survivors to reclaim the crashed home's prepared transaction")
	if stats.Get(sim.Ctr2PCPrepares) == 0 {
		t.Error("2pc_prepares = 0: the fleet never ran a cross-shard commit")
	}
	if stats.Get(sim.Ctr2PCPresumedAborts) == 0 {
		t.Error("2pc_presumed_aborts = 0: the wedged transaction was not presumed aborted")
	}
	if stats.Get(sim.CtrCrashRecoveries) == 0 {
		t.Error("peer crashed but no survivor reclaimed anything")
	}
	for _, p := range tc.sys.Peers() {
		if p.Name() == victim {
			continue
		}
		if txs := p.Locks().TxsBySite(victim); len(txs) != 0 {
			t.Errorf("%s still holds locks of crashed %s: %v", p.Name(), victim, txs)
		}
	}
	reader := tc.clients[0].Begin()
	for _, obj := range []storage.ItemID{shardObj(1, 3, 0), shardObj(2, 3, 0)} {
		raw, err := reader.Read(obj)
		if err != nil {
			t.Fatalf("post-crash read %v: %v", obj, err)
		}
		if string(bytes.TrimRight(raw, "\x00")) == "doomed" {
			t.Errorf("prepared-but-undecided write visible at %v after reclaim", obj)
		}
	}
	mustCommit(t, reader)

	if aud != nil {
		aud.Check()
		if n := aud.Total(); n != 0 {
			t.Errorf("%s under a shard-fleet crash violated consistency invariants:\n%s", proto, aud.Report())
		}
	}
}

// runFaultCell runs one matrix cell. A tuned cell shortens the timeouts
// (resilientCfg); an untuned one builds the cluster from newCluster's plain
// Config. Either way the fault plan is injected into the fabric once the
// cluster is built. extra options follow the tuning.
func runFaultCell(t *testing.T, kind string, proto Protocol, txsPerClient int, tuned bool, extra ...func(*Config)) {
	var opts []func(*Config)
	plan := faultPlanFor(kind)
	if tuned {
		opts = append(opts, resilientCfg)
	}
	opts = append(opts, extra...)
	// FAULT_TRANSPORT=tcp runs the cell over the real TCP fabric on
	// loopback: the same fault decisions, plus real socket teardown on
	// crash. Retry/dedup and presumed-abort reclamation must hold on
	// actual connections, not just the simulated fabric.
	if os.Getenv("FAULT_TRANSPORT") == "tcp" {
		opts = append(opts, func(c *Config) {
			c.Transport = transport.TCPFactory(transport.TCPOptions{
				ReconnectMin: 2 * time.Millisecond,
				ReconnectMax: 100 * time.Millisecond,
			})
		})
	}
	// CI sets FAULT_TRACE_OUT on one cell to archive a Perfetto-loadable
	// trace of the run as a build artifact.
	traceOut := os.Getenv("FAULT_TRACE_OUT")
	if traceOut != "" {
		opts = append(opts, func(c *Config) { c.Obs = obs.Config{Enabled: true} })
	}
	// Every cell runs under the invariant auditor (FAULT_AUDIT=off opts
	// out): whatever the fabric does to the messages, the consistency
	// invariants must hold — sweeping *while* the workers run, not only at
	// quiescence.
	var aud *audit.Auditor
	if os.Getenv("FAULT_AUDIT") != "off" {
		aud = audit.New()
		opts = append(opts, func(c *Config) { c.Audit = aud })
	}
	// Page 4 is reserved for the crash cell's pinned transaction; the
	// oracle's workers touch pages 0-3 only.
	tc := newCluster(t, proto, 3, 5, opts...)
	if plan != nil {
		tc.sys.Net().InjectFaults(*plan)
	}
	stats := tc.sys.Stats()
	hist := verify.NewHistory()
	decode := func(raw []byte) verify.Version {
		return verify.Version{Writer: string(bytes.TrimRight(raw, "\x00"))}
	}

	crashTarget := ""
	if kind == "crash" {
		crashTarget = tc.clients[len(tc.clients)-1].Name()
	}

	var wg sync.WaitGroup
	committed := make([]int, len(tc.clients))
	for ci, c := range tc.clients {
		wg.Add(1)
		go func(ci int, p *Peer) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(ci)*7 + 3))
			for n := 0; n < txsPerClient; n++ {
				objs := make(map[storage.ItemID]bool)
				for len(objs) < 2+rng.Intn(2) {
					objs[objID(uint32(rng.Intn(4)), uint16(rng.Intn(4)))] = true
				}
				for {
					if tc.sys.Net().Crashed(p.Name()) {
						return // this worker's peer died; survivors carry on
					}
					x := p.Begin()
					rec := verify.TxRecord{Name: x.ID().String()}
					failed := false
					for obj := range objs {
						raw, err := x.Read(obj)
						if err != nil {
							failed = true
							break
						}
						op := verify.Op{Object: obj.String(), Read: decode(raw), DidRead: true}
						if rng.Intn(2) == 0 {
							if err := x.Write(obj, []byte(rec.Name)); err != nil {
								failed = true
								break
							}
							op.Wrote = true
						}
						rec.Ops = append(rec.Ops, op)
					}
					if !failed && x.Commit() == nil {
						hist.Commit(rec)
						committed[ci]++
						break
					}
					_ = x.Abort()
					time.Sleep(time.Duration(rng.Intn(3)+1) * time.Millisecond)
				}
			}
		}(ci, c)
	}

	if kind == "crash" {
		// Pin state at the victim so the reclaim provably has work: an open
		// transaction holding a server EX lock on the reserved page.
		victim, _ := tc.sys.Peer(crashTarget)
		pin := victim.Begin()
		if err := pin.Write(objID(4, 0), []byte("doomed")); err != nil {
			t.Fatalf("pin write: %v", err)
		}
		time.Sleep(200 * time.Millisecond) // let the workers mingle
		if err := tc.sys.CrashPeer(crashTarget); err != nil {
			t.Fatal(err)
		}
	}

	stopSweep := make(chan struct{})
	var sweepWG sync.WaitGroup
	if aud != nil {
		sweepWG.Add(1)
		go func() {
			defer sweepWG.Done()
			tick := time.NewTicker(75 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stopSweep:
					return
				case <-tick.C:
					aud.Sweep()
				}
			}
		}()
	}
	wg.Wait()
	if aud != nil {
		close(stopSweep)
		sweepWG.Wait()
	}

	for ci := range tc.clients {
		name := tc.clients[ci].Name()
		if name == crashTarget {
			continue
		}
		if committed[ci] != txsPerClient {
			t.Errorf("worker %s committed %d/%d", name, committed[ci], txsPerClient)
		}
	}
	if err := hist.Check(); err != nil {
		var cyc *verify.CycleError
		if errors.As(err, &cyc) {
			t.Fatalf("%s under %s faults produced a NON-SERIALIZABLE history: %v", proto, kind, cyc.Cycle)
		}
		t.Fatalf("history check: %v", err)
	}

	// The injected fault must actually have been exercised, and the
	// resilience counter that answers it must have moved.
	if tc.sys.cfg.ClientPoolPages < 4 && stats.Get(sim.CtrPurgeSent) == 0 {
		t.Error("the client pools are smaller than the pages touched but sent no purge notice")
	}
	switch kind {
	case "drop":
		if stats.Get(sim.CtrFaultDrops) == 0 {
			t.Error("no messages dropped")
		}
		if stats.Get(sim.CtrRetries) == 0 {
			t.Error("drops injected but no request was retried")
		}
	case "dup":
		if stats.Get(sim.CtrFaultDups) == 0 {
			t.Error("no messages duplicated")
		}
		if stats.Get(sim.CtrDupSuppressed) == 0 {
			t.Error("duplicates injected but none suppressed")
		}
	case "delay":
		if stats.Get(sim.CtrFaultDelays) == 0 {
			t.Error("no messages delayed")
		}
	case "crash":
		if stats.Get(sim.CtrCrashRecoveries) == 0 {
			t.Error("peer crashed but no survivor reclaimed anything")
		}
		// The victim's transactions must have left no locks at any survivor
		// (its own lock manager died with it).
		for _, p := range tc.sys.Peers() {
			if p.Name() == crashTarget {
				continue
			}
			if txs := p.Locks().TxsBySite(crashTarget); len(txs) != 0 {
				t.Errorf("%s still holds locks of crashed %s: %v", p.Name(), crashTarget, txs)
			}
		}
	}

	// The online auditor must end the cell with a clean slate: a final
	// exact sweep at quiescence, then zero violations across the run.
	if aud != nil {
		aud.Check()
		if n := aud.Total(); n != 0 {
			t.Errorf("%s under %s faults violated consistency invariants:\n%s", proto, kind, aud.Report())
		}
	}

	if traceOut != "" {
		set := tc.sys.Obs()
		if set == nil {
			t.Fatal("FAULT_TRACE_OUT set but observability is off")
		}
		f, err := os.Create(traceOut)
		if err != nil {
			t.Fatalf("trace out: %v", err)
		}
		events := set.TraceEvents()
		if err := obs.WriteChromeTrace(f, events); err != nil {
			t.Fatalf("trace out: %v", err)
		}
		if err := f.Close(); err != nil {
			t.Fatalf("trace out: %v", err)
		}
		t.Logf("wrote %d trace events to %s (%d dropped by ring bound)", len(events), traceOut, set.DroppedEvents())
	}
	// CI archives the commit critical-path breakdown next to the trace.
	if cpOut := os.Getenv("FAULT_CRITPATH_OUT"); cpOut != "" {
		set := tc.sys.Obs()
		if set == nil {
			t.Fatal("FAULT_CRITPATH_OUT set but observability is off")
		}
		bd := critpath.Analyze(set.TraceEvents())
		if err := os.WriteFile(cpOut, []byte(bd.Table()), 0o644); err != nil {
			t.Fatalf("critpath out: %v", err)
		}
		t.Logf("wrote critical-path breakdown (%d commits) to %s", bd.Commits, cpOut)
	}
}

// TestCrashReclaimUnblocksSurvivors crashes a client that holds a server
// EX lock and cached copies, with a second request of its own parked in
// the server's lock queue: that request must come back with an error
// rather than wait for a reply the fenced fabric will never deliver, and a
// surviving client must then be able to write the same object without
// waiting for any timeout-driven cleanup. Both hold for a cluster whose
// Config names no resilience setting at all.
func TestCrashReclaimUnblocksSurvivors(t *testing.T) {
	for _, in := range []struct {
		name string
		opts []func(*Config)
	}{
		{"tuned", []func(*Config){resilientCfg}},
		{"zero-config", nil},
	} {
		t.Run(in.name, func(t *testing.T) {
			watchdog(t, time.Minute, func() {
				tc := newCluster(t, PSAA, 2, 10, in.opts...)
				c1, c2 := tc.clients[0], tc.clients[1]

				base := c2.Begin()
				writeVal(t, base, objID(3, 1), "base")
				mustCommit(t, base)

				hold := c1.Begin()
				writeVal(t, hold, objID(3, 1), "zombie") // EX at srv, never committed

				blocker := c2.Begin()
				writeVal(t, blocker, objID(4, 0), "held")
				parked := make(chan error, 1)
				go func() { parked <- c1.Begin().Write(objID(4, 0), []byte("never")) }()
				waitUntil(t, 10*time.Second, func() bool {
					return len(tc.srv.Locks().TxsBySite("c1")) == 2
				}, "c1's second request to reach srv's lock table")

				if err := tc.sys.CrashPeer("c1"); err != nil {
					t.Fatal(err)
				}
				if err := <-parked; err == nil {
					t.Error("request parked at srv succeeded after its peer crashed")
				}
				mustCommit(t, blocker)

				x := c2.Begin()
				if got := readVal(t, x, objID(3, 1)); got != "base" {
					t.Errorf("read %q after crash, want base (uncommitted write leaked)", got)
				}
				writeVal(t, x, objID(3, 1), "after")
				mustCommit(t, x)

				if got := tc.sys.Stats().Get(sim.CtrCrashRecoveries); got == 0 {
					t.Error("crash_recoveries = 0")
				}
				if txs := tc.srv.Locks().TxsBySite("c1"); len(txs) != 0 {
					t.Errorf("server still holds locks of crashed c1: %v", txs)
				}
				_ = hold // the crashed peer's handle is dead with it
			})
		})
	}
}

// TestCrashUndoesShippedRecords ships a transaction's log records to the
// owner early (as a dirty-page eviction would), then crashes the client
// before commit: the owner must undo the redone updates from the records'
// before-images, so survivors read the last committed value.
func TestCrashUndoesShippedRecords(t *testing.T) {
	watchdog(t, time.Minute, func() {
		tc := newCluster(t, PSAA, 2, 10, resilientCfg)
		c1, c2 := tc.clients[0], tc.clients[1]

		base := c2.Begin()
		writeVal(t, base, objID(5, 2), "base")
		mustCommit(t, base)

		x := c1.Begin()
		writeVal(t, x, objID(5, 2), "uncommitted")
		// Early log shipping (§3.3): the owner redoes the records into its
		// buffer and keeps them active pending the transaction's fate.
		recs := x.takeRecordsFor(pageID(5))
		if len(recs) == 0 {
			t.Fatal("no log records generated")
		}
		if _, err := c1.call("srv", obs.SpanContext{}, prepareReq{Tx: x.ID(), Records: recs}); err != nil {
			t.Fatal(err)
		}
		if n := tc.srv.slog.ActiveRecords(x.ID()); n == 0 {
			t.Fatal("owner holds no active records after prepare")
		}

		if err := tc.sys.CrashPeer("c1"); err != nil {
			t.Fatal(err)
		}
		if n := tc.srv.slog.ActiveRecords(x.ID()); n != 0 {
			t.Errorf("owner still holds %d active records of the dead client", n)
		}

		r := c2.Begin()
		if got := readVal(t, r, objID(5, 2)); got != "base" {
			t.Errorf("read %q, want base (shipped uncommitted update not undone)", got)
		}
		mustCommit(t, r)
	})
}

// TestEarlyFlushUnderLoss drops the purge flush that carries a
// transaction's early records. Dropped once, it is retried like any
// request, and the commit keeps the write of the evicted page. Dropped
// past the retry budget, it may never have reached the owner, so Commit
// fails, and after Abort the owner holds the last committed value.
func TestEarlyFlushUnderLoss(t *testing.T) {
	for _, tt := range []struct {
		name   string
		rpc    time.Duration
		toMsg  uint64 // end of the drop window; 0 drops every retry too
		commit bool
		want   string
	}{
		{"dropped-once", 100 * time.Millisecond, 2, true, "written"},
		{"past-retry-budget", 20 * time.Millisecond, 0, false, "committed"},
	} {
		t.Run(tt.name, func(t *testing.T) {
			watchdog(t, time.Minute, func() {
				tc := newCluster(t, PSAA, 1, 10, func(c *Config) {
					c.RPCTimeout = tt.rpc
					c.ClientPoolPages = 1
				})
				c1 := tc.clients[0]

				seed := c1.Begin()
				writeVal(t, seed, objID(0, 0), "committed")
				mustCommit(t, seed)

				x := c1.Begin()
				writeVal(t, x, objID(0, 0), "written")
				// c1's next message to the owner is the read of page 1,
				// whose reply evicts the dirty page 0; the one after it is
				// the flush.
				tc.sys.Net().InjectFaults(transport.FaultPlan{Partitions: []transport.Partition{
					{From: "c1", To: "srv", FromMsg: 1, ToMsg: tt.toMsg},
				}})
				readVal(t, x, objID(1, 0))
				tc.sys.Net().InjectFaults(transport.FaultPlan{})
				if err := x.Commit(); tt.commit && err != nil {
					t.Fatal(err)
				} else if !tt.commit {
					if err == nil {
						t.Fatal("commit after a failed flush succeeded")
					}
					if err := x.Abort(); err != nil {
						t.Fatal(err)
					}
				}

				y := c1.Begin()
				if got := readVal(t, y, objID(0, 0)); got != tt.want {
					t.Errorf("value at the owner = %q, want %q", got, tt.want)
				}
				mustCommit(t, y)
			})
		})
	}
}

// TestRPCTimeoutAbortsCleanly cuts a client off from the owner: its call
// must fail with ErrRPCTimeout after bounded retries instead of hanging,
// and after the link heals the client works again.
func TestRPCTimeoutAbortsCleanly(t *testing.T) {
	watchdog(t, time.Minute, func() {
		tc := newCluster(t, PSAA, 1, 10, func(c *Config) {
			c.RPCTimeout = 20 * time.Millisecond
		})
		c1 := tc.clients[0]
		stats := tc.sys.Stats()

		tc.sys.Net().PartitionLink("c1", "srv")
		x := c1.Begin()
		_, err := x.Read(objID(1, 0))
		if !errors.Is(err, ErrRPCTimeout) {
			t.Fatalf("read through partition: %v, want ErrRPCTimeout", err)
		}
		tc.sys.Net().HealLink("c1", "srv")
		_ = x.Abort()

		if got := stats.Get(sim.CtrTimeoutsFired); got < rpcMaxRetries+1 {
			t.Errorf("timeouts_fired = %d, want >= %d (initial + every retry)", got, rpcMaxRetries+1)
		}
		if got := stats.Get(sim.CtrRetries); got != rpcMaxRetries {
			t.Errorf("retries = %d, want %d", got, rpcMaxRetries)
		}

		y := c1.Begin()
		if got := readVal(t, y, objID(1, 0)); len(got) == 0 {
			_ = got // zero-filled object; reaching here is the point
		}
		mustCommit(t, y)
	})
}

// TestCallbackTimeoutAbortsWriter cuts the owner off from a caching client
// mid-callback: the blocked write must abort with a timeout instead of
// hanging, and succeed once the link heals.
func TestCallbackTimeoutAbortsWriter(t *testing.T) {
	watchdog(t, time.Minute, func() {
		tc := newCluster(t, PSOA, 2, 10, func(c *Config) {
			c.RPCTimeout = 75 * time.Millisecond // callback stall = 4× = 300ms
		})
		c1, c2 := tc.clients[0], tc.clients[1]

		warm := c2.Begin()
		readVal(t, warm, objID(2, 0)) // c2 now caches page 2
		mustCommit(t, warm)

		tc.sys.Net().PartitionLink("srv", "c2") // callbacks to c2 vanish
		x := c1.Begin()
		err := x.Write(objID(2, 0), []byte("v"))
		if !errors.Is(err, lock.ErrTimeout) {
			t.Fatalf("write with unreachable caching client: %v, want lock.ErrTimeout", err)
		}
		_ = x.Abort()
		if got := tc.sys.Stats().Get(sim.CtrTimeoutsFired); got == 0 {
			t.Error("timeouts_fired = 0, want callback-round timeout")
		}

		tc.sys.Net().HealLink("srv", "c2")
		y := c1.Begin()
		writeVal(t, y, objID(2, 0), "v2")
		mustCommit(t, y)

		z := c2.Begin()
		if got := readVal(t, z, objID(2, 0)); got != "v2" {
			t.Errorf("c2 reads %q after heal, want v2", got)
		}
		mustCommit(t, z)
	})
}

// TestDeadClientFencedAfterStalls: with DeadClientStalls set, a client
// that stays silent through consecutive zero-progress callback-round
// stalls is declared dead and its copy-table residue reclaimed, so later
// writers stop stalling on it — with no explicit CrashPeer call and no
// heal. This is shored's protection against SIGKILLed clients whose
// cached copies would otherwise poison every subsequent callback round
// against the same pages, forever.
func TestDeadClientFencedAfterStalls(t *testing.T) {
	watchdog(t, time.Minute, func() {
		tc := newCluster(t, PSOA, 2, 10, func(c *Config) {
			c.RPCTimeout = 40 * time.Millisecond // callback stall = 4× = 160ms
			c.DeadClientStalls = 2
		})
		c1, c2 := tc.clients[0], tc.clients[1]

		warm := c2.Begin()
		readVal(t, warm, objID(2, 0)) // c2 now caches page 2
		mustCommit(t, warm)

		tc.sys.Net().PartitionLink("srv", "c2") // c2 goes silent for good

		deadline := time.Now().Add(20 * time.Second)
		committed := false
		for time.Now().Before(deadline) {
			x := c1.Begin()
			if err := x.Write(objID(2, 0), []byte("v")); err != nil {
				_ = x.Abort()
				continue
			}
			if x.Commit() == nil {
				committed = true
				break
			}
		}
		if !committed {
			t.Fatal("writer never got past the silent caching client: fencing did not reclaim its copies")
		}
		if got := tc.sys.Stats().Get(sim.CtrCrashRecoveries); got == 0 {
			t.Error("crash_recoveries = 0, want dead-client reclaim")
		}
		if !tc.sys.Net().Crashed("c2") {
			t.Error("silent client not fenced at the transport")
		}
	})
}

// TestAnsweringClientNotFenced pins that fencing counts consecutive
// silent rounds only: a client that misses one callback round, answers the
// next, and later misses one more has a streak of one, not two, and stays
// a member of the fleet at DeadClientStalls 2.
func TestAnsweringClientNotFenced(t *testing.T) {
	watchdog(t, time.Minute, func() {
		tc := newCluster(t, PSOA, 2, 10, func(c *Config) {
			c.RPCTimeout = 40 * time.Millisecond // callback stall = 4× = 160ms
			c.DeadClientStalls = 2
		})
		c1, c2 := tc.clients[0], tc.clients[1]
		cache := func() {
			x := c2.Begin()
			readVal(t, x, objID(2, 0))
			mustCommit(t, x)
		}
		// write runs c1's write of the object c2 caches; silent cuts the
		// callback's link, so the round stalls and the write fails.
		write := func(silent bool) {
			if silent {
				tc.sys.Net().PartitionLink("srv", "c2")
				defer tc.sys.Net().HealLink("srv", "c2")
			}
			x := c1.Begin()
			err := x.Write(objID(2, 0), []byte("v"))
			if err == nil {
				err = x.Commit()
			} else {
				_ = x.Abort()
			}
			if silent != (err != nil) {
				t.Fatalf("write past a silent=%v client: err = %v", silent, err)
			}
		}

		cache()
		write(true)  // streak 1
		write(false) // c2 acks: streak reset
		cache()
		write(true) // streak 1 again, below the threshold
		if tc.sys.Net().Crashed("c2") {
			t.Fatal("client fenced although it answered between its two silent rounds")
		}
		if got := tc.sys.Stats().Get(sim.CtrCrashRecoveries); got != 0 {
			t.Errorf("crash_recoveries = %d, want 0", got)
		}
	})
}

// TestFaultFreeRunsUntouched pins the bit-identity guarantee: a system
// built without a fault plan must not move any resilience counter.
func TestFaultFreeRunsUntouched(t *testing.T) {
	tc := newCluster(t, PSAA, 2, 10)
	a, b := tc.clients[0], tc.clients[1]
	x := a.Begin()
	writeVal(t, x, objID(1, 1), "v")
	mustCommit(t, x)
	y := b.Begin()
	readVal(t, y, objID(1, 1))
	mustCommit(t, y)

	for _, ctr := range []string{
		sim.CtrRetries, sim.CtrTimeoutsFired, sim.CtrDupSuppressed,
		sim.CtrCrashRecoveries, sim.CtrFaultDrops, sim.CtrFaultDups,
		sim.CtrFaultDelays, sim.CtrCrashDrops,
	} {
		if v := tc.sys.Stats().Get(ctr); v != 0 {
			t.Errorf("%s = %d on a fault-free run", ctr, v)
		}
	}
}
