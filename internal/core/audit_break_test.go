package core

import (
	"fmt"
	"testing"
	"time"

	"adaptivecc/internal/lock"
	"adaptivecc/internal/obs"
	"adaptivecc/internal/obs/audit"
)

// These tests deliberately break the protocol — one invariant at a time —
// and assert that the online auditor catches exactly the damage inflicted:
// the targeted invariant trips and every other counter stays zero. They
// are the auditor's ground truth: a checker that cannot see seeded
// corruption would pass every clean run vacuously.

// newAuditCluster builds a cluster with the invariant auditor attached
// (which implies the observability pipeline).
func newAuditCluster(t *testing.T, proto Protocol, numClients, numPages int) (*testCluster, *audit.Auditor) {
	t.Helper()
	aud := audit.New()
	tc := newCluster(t, proto, numClients, numPages, func(cfg *Config) {
		cfg.Audit = aud
	})
	return tc, aud
}

// expectOnly asserts that exactly `want` tripped (n times) and every other
// invariant stayed clean.
func expectOnly(t *testing.T, aud *audit.Auditor, want audit.Invariant, n int64) {
	t.Helper()
	for iv := audit.Invariant(0); iv < audit.NumInvariants; iv++ {
		got := aud.Violations(iv)
		switch {
		case iv == want && got != n:
			t.Errorf("%s: got %d violations, want %d\nreport:\n%s", iv, got, n, aud.Report())
		case iv != want && got != 0:
			t.Errorf("%s: got %d violations, want 0\nreport:\n%s", iv, got, aud.Report())
		}
	}
	if t.Failed() && want < audit.NumInvariants {
		t.Logf("first %s dump: %s", want, aud.First(want))
	}
}

func TestAuditCleanRunNoViolations(t *testing.T) {
	tc, aud := newAuditCluster(t, PSAA, 2, 4)
	c1, c2 := tc.clients[0], tc.clients[1]

	x1 := c1.Begin()
	writeVal(t, x1, objID(0, 0), "a")
	mustCommit(t, x1)

	x2 := c2.Begin()
	if got := readVal(t, x2, objID(0, 0)); got != "a" {
		t.Fatalf("read %q, want %q", got, "a")
	}
	writeVal(t, x2, objID(1, 0), "b")
	mustCommit(t, x2)

	aud.Sweep()
	aud.Check()
	if n := aud.Total(); n != 0 {
		t.Fatalf("clean run reported %d violations:\n%s", n, aud.Report())
	}
}

// TestAuditCatchesDoubleEX force-grants a second EX lock beside an
// existing one (with intact ancestor chains, so only single-ex can trip).
func TestAuditCatchesDoubleEX(t *testing.T) {
	tc, aud := newAuditCluster(t, PSAA, 1, 4)
	obj := objID(0, 0)
	t1 := lock.TxID{Site: "evil", Seq: 1}
	t2 := lock.TxID{Site: "evil", Seq: 2}
	for _, tx := range []lock.TxID{t1, t2} {
		for _, anc := range obj.Ancestors() {
			tc.srv.locks.ForceGrant(tx, anc, lock.IX)
		}
		tc.srv.locks.ForceGrant(tx, obj, lock.EX)
	}
	aud.Check()
	expectOnly(t, aud, audit.InvSingleEX, 1)
}

// TestAuditCatchesLostCopyEntry erases the owner's copy-table entry for a
// page a client still caches with available objects.
func TestAuditCatchesLostCopyEntry(t *testing.T) {
	tc, aud := newAuditCluster(t, PSAA, 1, 4)
	c1 := tc.clients[0]

	x := c1.Begin()
	_ = readVal(t, x, objID(0, 0))
	mustCommit(t, x)

	page := pageID(0)
	if !tc.srv.ct.hasCopy(page, "c1") {
		t.Fatal("setup: owner has no copy entry for c1")
	}
	tc.srv.ct.removeCopy(page, "c1", 0) // install 0 forces removal
	aud.Check()
	expectOnly(t, aud, audit.InvAvailCopies, 1)
}

// TestAuditCatchesAdaptiveWithRemoteCopy registers a second caching client
// in the copy table while an adaptive page lock is standing.
func TestAuditCatchesAdaptiveWithRemoteCopy(t *testing.T) {
	tc, aud := newAuditCluster(t, PSAA, 2, 4)
	c1 := tc.clients[0]

	x := c1.Begin()
	writeVal(t, x, objID(0, 0), "a") // sole caching client: escalates to adaptive
	page := pageID(0)
	if !c1.locks.IsAdaptive(x.ID(), page) {
		t.Fatal("setup: write did not escalate to an adaptive page lock")
	}
	if _, err := tc.srv.ship(page, "c2", false, obs.SpanContext{}); err != nil { // c2 never receives the page
		t.Fatal(err)
	}
	aud.Check()
	expectOnly(t, aud, audit.InvAdaptiveSolo, 1)
	mustCommit(t, x)
}

// TestAuditCatchesForgottenAck makes the next callback round complete
// "ok" without one client's acknowledgment: c1's ack is cut on the wire,
// and c1 is struck from the round's waiting set, which wakes the round.
func TestAuditCatchesForgottenAck(t *testing.T) {
	tc, aud := newAuditCluster(t, PSAA, 2, 4)
	c1, c2 := tc.clients[0], tc.clients[1]

	x1 := c1.Begin()
	_ = readVal(t, x1, objID(0, 0)) // c1 caches the page
	mustCommit(t, x1)

	tc.sys.Net().PartitionLink("c1", "srv")
	defer tc.sys.Net().HealLink("c1", "srv")
	forgot := make(chan error, 1)
	go func() { forgot <- forgetAck(tc.srv, "c1") }()
	x2 := c2.Begin()
	writeVal(t, x2, objID(0, 0), "b") // callback round to c1 forgets its ack
	mustCommit(t, x2)
	if err := <-forgot; err != nil {
		t.Fatal(err)
	}

	if aud.Violations(audit.InvCallbackAcks) == 0 {
		t.Fatalf("forgotten ack not reported:\n%s", aud.Report())
	}
	for iv := audit.Invariant(0); iv < audit.NumInvariants; iv++ {
		if iv != audit.InvCallbackAcks && aud.Violations(iv) != 0 {
			t.Errorf("%s tripped unexpectedly:\n%s", iv, aud.Report())
		}
	}
}

// forgetAck waits for srv's callback round, strikes client from the clients
// it waits on, and wakes the round, which then ends without that client's
// ack.
func forgetAck(srv *Peer, client string) error {
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		srv.mu.Lock()
		var op *cbOp
		for _, o := range srv.cbOps {
			op = o
		}
		srv.mu.Unlock()
		if op != nil && op.clearWaiting(client) {
			op.events <- cbEvent{}
			return nil
		}
	}
	return fmt.Errorf("no callback round waited on %s", client)
}

// TestAuditCatchesMissingAncestors force-grants a bare EX object lock with
// no intention locks above it.
func TestAuditCatchesMissingAncestors(t *testing.T) {
	tc, aud := newAuditCluster(t, PSAA, 1, 4)
	tc.srv.locks.ForceGrant(lock.TxID{Site: "evil", Seq: 7}, objID(0, 0), lock.EX)
	aud.Check()
	expectOnly(t, aud, audit.InvLockAncestors, 1)
}

// TestAuditHookIdleWhenDisarmed runs the forgotten-ack scenario without
// forgetting the ack: the same workload must audit clean, proving the
// forgotten ack (not the workload) is what trips the invariant above.
func TestAuditHookIdleWhenDisarmed(t *testing.T) {
	tc, aud := newAuditCluster(t, PSAA, 2, 4)
	c1, c2 := tc.clients[0], tc.clients[1]

	x1 := c1.Begin()
	_ = readVal(t, x1, objID(0, 0))
	mustCommit(t, x1)

	x2 := c2.Begin()
	writeVal(t, x2, objID(0, 0), "b")
	mustCommit(t, x2)

	aud.Check()
	if n := aud.Total(); n != 0 {
		t.Fatalf("disarmed run reported %d violations:\n%s", n, aud.Report())
	}
}
