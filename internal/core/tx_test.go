package core

import (
	"errors"
	"slices"
	"testing"

	"adaptivecc/internal/lock"
	"adaptivecc/internal/sim"
	"adaptivecc/internal/storage"
	"adaptivecc/internal/wal"
)

// The tests below pin the bookkeeping of a local transaction's record:
// identity, lifecycle, spread set and log cache.

func TestRegistryIssuesUniqueIDs(t *testing.T) {
	tc := newCluster(t, PSAA, 1, 4)
	a := tc.clients[0]
	t1, t2 := a.Begin(), a.Begin()
	if t1.ID() == t2.ID() {
		t.Fatalf("duplicate IDs: %v", t1.ID())
	}
	if t1.ID().Site != "c1" || t1.ID().Seq != 1 || t2.ID().Seq != 2 {
		t.Errorf("IDs = %v, %v", t1.ID(), t2.ID())
	}
	if a.liveTx(t1.ID()) != t1 || a.liveTx(t2.ID()) != t2 {
		t.Error("begun transactions not live")
	}
	mustCommit(t, t1)
	if a.liveTx(t1.ID()) != nil {
		t.Error("committed transaction still live")
	}
	// Sequences are per site.
	if s := tc.srv.Begin(); s.ID() != (lock.TxID{Site: "srv", Seq: 1}) {
		t.Errorf("srv's first ID = %v", s.ID())
	}
	mustCommit(t, t2)
}

func TestLifecycle(t *testing.T) {
	tc := newCluster(t, PSAA, 1, 4)
	x := tc.clients[0].Begin()
	recs, err := x.beginCommit()
	if err != nil || len(recs) != 0 {
		t.Fatalf("begin commit: %v, %v", recs, err)
	}
	if _, err := x.Read(objID(0, 0)); !errors.Is(err, ErrTxNotActive) {
		t.Errorf("Read while committing err = %v", err)
	}
	if err := x.Write(objID(0, 0), []byte("v")); !errors.Is(err, ErrTxNotActive) {
		t.Errorf("Write while committing err = %v", err)
	}
	if err := x.LockItem(pageID(0), lock.SH); !errors.Is(err, ErrTxNotActive) {
		t.Errorf("LockItem while committing err = %v", err)
	}
	if err := x.spreadTo("srv"); !errors.Is(err, ErrTxNotActive) {
		t.Errorf("spread while committing err = %v", err)
	}
	if err := x.Commit(); !errors.Is(err, ErrTxNotActive) {
		t.Errorf("second Commit err = %v", err)
	}
	if err := x.Abort(); err != nil {
		t.Fatalf("Abort while committing: %v", err)
	}
	if err := x.Abort(); !errors.Is(err, ErrTxNotActive) {
		t.Errorf("Abort after Abort err = %v", err)
	}
}

func TestSpreadSet(t *testing.T) {
	tc := newCluster(t, PSAA, 1, 4)
	x := tc.clients[0].Begin()
	for _, o := range []string{"s2", "s1", "s3", "s2", "s1"} {
		if err := x.spreadTo(o); err != nil {
			t.Fatal(err)
		}
	}
	if want := []string{"s1", "s2", "s3"}; !slices.Equal(x.spread, want) {
		t.Errorf("spread = %v, want %v", x.spread, want)
	}
	_ = x.Abort()
}

// logRec appends one update of object (page, slot) to x's log cache.
func logRec(x *Tx, page uint32, slot uint16, after string) {
	x.logUpdate(objID(page, slot), nil, []byte(after))
}

func afters(recs []wal.Record) []string {
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = string(r.After)
	}
	return out
}

func TestCacheAppendTakeDiscard(t *testing.T) {
	tc := newCluster(t, PSAA, 1, 4)
	a := tc.clients[0]
	x, y := a.Begin(), a.Begin()
	before := tc.sys.Stats().Get(sim.CtrLogRecords)
	logRec(x, 1, 0, "a0")
	logRec(x, 2, 1, "a1")
	logRec(y, 1, 0, "b0")
	if got := tc.sys.Stats().Get(sim.CtrLogRecords) - before; got != 3 {
		t.Errorf("log records counter = %d, want 3", got)
	}
	recs, err := x.beginCommit()
	if err != nil {
		t.Fatal(err)
	}
	if got := afters(recs); !slices.Equal(got, []string{"a0", "a1"}) {
		t.Fatalf("taken records = %v", got)
	}
	if len(x.recs) != 0 {
		t.Error("records remain after the take")
	}
	if got := afters(y.recs); !slices.Equal(got, []string{"b0"}) {
		t.Errorf("other transaction's records = %v", got)
	}
}

func TestCacheTakeForPage(t *testing.T) {
	tc := newCluster(t, PSAA, 1, 4)
	x := tc.clients[0].Begin()
	logRec(x, 1, 0, "p1a")
	logRec(x, 2, 0, "p2")
	logRec(x, 1, 3, "p1b")

	got := x.takeRecordsFor(storage.PageItem(1, 1, 1))
	if !slices.Equal(afters(got), []string{"p1a", "p1b"}) {
		t.Fatalf("takeRecordsFor = %v", afters(got))
	}
	x.flushDone(false) // the take counts a flush in flight until it is done
	rest, err := x.beginCommit()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(afters(rest), []string{"p2"}) {
		t.Fatalf("rest = %v", afters(rest))
	}
}

// TestAbortUndoesRepeatedLocalWrite aborts a transaction that wrote an
// object of its own peer twice: the undo must leave the value from before
// the first write, not the first write's.
func TestAbortUndoesRepeatedLocalWrite(t *testing.T) {
	tc := newCluster(t, PSAA, 1, 4)
	obj := objID(0, 0)
	r := tc.srv.Begin()
	orig := readVal(t, r, obj)
	mustCommit(t, r)

	x := tc.srv.Begin()
	writeVal(t, x, obj, "a")
	writeVal(t, x, obj, "b")
	if err := x.Abort(); err != nil {
		t.Fatal(err)
	}
	y := tc.srv.Begin()
	if got := readVal(t, y, obj); got != orig {
		t.Errorf("after abort %v holds %q, want %q", obj, got, orig)
	}
	mustCommit(t, y)
}

// TestFailedCommitUndoesLocalWrites commits a cross-shard transaction
// homed at shard s1 after s2 has crashed, so the prepare at s2 fails
// whether or not s1's own prepare ran first. The write s1 installed in its
// own buffer must be undone either way. The fleet is rebuilt a few times
// because the two prepares go out in no fixed order.
func TestFailedCommitUndoesLocalWrites(t *testing.T) {
	for i := 0; i < 6; i++ {
		tc := newShardCluster(t, PSAA, 2, 0, 4)
		s1 := tc.shards[0]
		obj := shardObj(1, 0, 0)
		r := s1.Begin()
		orig := readVal(t, r, obj)
		mustCommit(t, r)

		x := s1.Begin()
		writeVal(t, x, obj, "v")
		writeVal(t, x, shardObj(2, 0, 0), "v")
		if err := tc.sys.CrashPeer("s2"); err != nil {
			t.Fatal(err)
		}
		if err := x.Commit(); err == nil {
			t.Fatal("commit succeeded with a crashed participant")
		}
		y := s1.Begin()
		if got := readVal(t, y, obj); got != orig {
			t.Fatalf("run %d: after the failed commit %v holds %q, want %q", i, obj, got, orig)
		}
		mustCommit(t, y)
	}
}
