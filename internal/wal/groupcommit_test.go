package wal

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"adaptivecc/internal/lock"
	"adaptivecc/internal/sim"
	"adaptivecc/internal/storage"
)

// newGroupLog returns a stable log with its image enabled, on a log disk
// whose every write takes diskIO of real time, plus the stats its counters
// land in.
func newGroupLog(diskIO time.Duration) (*StableLog, *sim.Stats) {
	stats := sim.NewStats()
	costs := sim.CostTable{Scale: 1, DiskIO: diskIO, Quantum: time.Microsecond}
	l := NewStableLog(storage.NewDisk("logdisk-test", costs, stats))
	l.EnableImage()
	return l, stats
}

func gcObj(page uint32, slot uint16) storage.ItemID {
	return storage.ObjectItem(1, 1, page, slot)
}

// coveredForce runs force and fails t unless a log-disk write that began
// after the call had completed by the time it returned. The disk counts a
// write when it begins (disk_writes); the group committer counts it when
// it completes, before the next write can begin (wal_group_forces).
func coveredForce(t *testing.T, stats *sim.Stats, force func()) {
	t.Helper()
	begun := stats.Get(sim.CtrDiskWrites)
	force()
	if done := stats.Get(sim.CtrWALGroupForces); done <= begun {
		t.Errorf("force returned after %d completed writes; %d had begun before its call", done, begun)
	}
}

// waitFor polls cond until it holds, failing t after a few seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(50 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestGroupCommitLoneForceWritesAtOnce: with no other force in flight,
// every kind of log force issues exactly one disk write of its own, a
// cohort of one that it led.
func TestGroupCommitLoneForceWritesAtOnce(t *testing.T) {
	l, stats := newGroupLog(2 * time.Millisecond)
	var cohorts []int
	l.SetForceObserver(func(c int) { cohorts = append(cohorts, c) })
	tx := lock.TxID{Site: "lone", Seq: 1}
	rec := Record{Tx: tx, Object: gcObj(1, 0), Before: []byte("a"), After: []byte("b")}
	forces := []struct {
		name  string
		force func()
	}{
		{"append", func() { l.Append([]Record{rec}) }},
		{"prepare", func() { l.Prepare(tx, "coord") }},
		{"commit", func() { l.Commit(tx) }},
		{"decide", func() {
			if err := l.Decide(lock.TxID{Site: "lone", Seq: 2}, true); err != nil {
				t.Fatal(err)
			}
		}},
		{"status", func() { l.ResolveStatus(lock.TxID{Site: "lone", Seq: 3}) }},
		{"shutdown", func() { l.Force() }},
	}
	for i, f := range forces {
		coveredForce(t, stats, f.force)
		if got := stats.Get(sim.CtrDiskWrites); got != int64(i+1) {
			t.Errorf("%s: %d log-disk writes after %d lone forces", f.name, got, i+1)
		}
		if len(cohorts) != i+1 || cohorts[i] != 1 {
			t.Errorf("%s: observed cohorts %v, want a new cohort of 1", f.name, cohorts)
		}
	}
	if fi := l.CommitForce(tx); fi != (ForceInfo{Cohort: 1, Led: true}) {
		t.Errorf("lone force reported %+v, want cohort 1, led", fi)
	}
	if joins := stats.Get(sim.CtrWALGroupJoins); joins != 0 {
		t.Errorf("%d lone forces joined a batch", joins)
	}
}

// TestGroupCommitLoneForceAllocatesNothing: on a zero-cost disk a force
// never waits, so the committer's fast path must not allocate.
func TestGroupCommitLoneForceAllocatesNothing(t *testing.T) {
	l := NewStableLog(storage.NewDisk("logdisk-zero", sim.DefaultCosts(0), sim.NewStats()))
	tx := lock.TxID{Site: "zero", Seq: 1}
	if a := testing.AllocsPerRun(1000, func() { l.CommitForce(tx) }); a != 0 {
		t.Errorf("lone commit force allocates %.1f times, want 0", a)
	}
	if a := testing.AllocsPerRun(1000, func() { l.Force() }); a != 0 {
		t.Errorf("lone force allocates %.1f times, want 0", a)
	}
}

// TestGroupCommitSharesNextWrite issues forces while a write is in
// progress: all of them are covered by the one write that follows it, led
// by the first of them.
func TestGroupCommitSharesNextWrite(t *testing.T) {
	const waiting = 6
	l, stats := newGroupLog(50 * time.Millisecond)

	first := make(chan ForceInfo, 1)
	go func() { first <- l.Force() }()
	waitFor(t, "the first write to begin", func() bool { return stats.Get(sim.CtrDiskWrites) == 1 })

	infos := make([]ForceInfo, waiting)
	var wg sync.WaitGroup
	for i := range infos {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			txid := lock.TxID{Site: fmt.Sprintf("w%d", i), Seq: 1}
			coveredForce(t, stats, func() { infos[i] = l.CommitForce(txid) })
		}()
	}
	wg.Wait()

	if fi := <-first; fi != (ForceInfo{Cohort: 1, Led: true}) {
		t.Errorf("first force reported %+v, want a cohort of 1 it led", fi)
	}
	if got := stats.Get(sim.CtrDiskWrites); got != 2 {
		t.Errorf("%d log-disk writes, want 2: the first and one shared by the %d waiting forces", got, waiting)
	}
	led := 0
	for i, fi := range infos {
		if fi.Cohort != waiting {
			t.Errorf("waiting force %d reported cohort %d, want %d", i, fi.Cohort, waiting)
		}
		if fi.Led {
			led++
		}
	}
	if led != 1 {
		t.Errorf("%d waiting forces led the shared write, want 1", led)
	}
	if joins := stats.Get(sim.CtrWALGroupJoins); joins != waiting-1 {
		t.Errorf("wal_group_joins = %d, want %d", joins, waiting-1)
	}
}

// TestGroupCommitAbsorbsConcurrentForces runs N committers through the
// group committer and checks the accounting: every force call either led
// a write or joined one, the log disk saw exactly one write per led force,
// and no force returned before a write that began after its call.
func TestGroupCommitAbsorbsConcurrentForces(t *testing.T) {
	const committers = 8
	l, stats := newGroupLog(time.Millisecond)

	var wg sync.WaitGroup
	for i := 0; i < committers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			txid := lock.TxID{Site: fmt.Sprintf("c%d", i), Seq: 1}
			rec := Record{Tx: txid, Object: gcObj(uint32(i), 0), Before: []byte("old"), After: []byte("new")}
			coveredForce(t, stats, func() { l.Append([]Record{rec}) })
			coveredForce(t, stats, func() { l.Commit(txid) })
		}()
	}
	wg.Wait()

	forces := stats.Get(sim.CtrWALGroupForces)
	joins := stats.Get(sim.CtrWALGroupJoins)
	if forces+joins != 2*committers {
		t.Errorf("forces %d + joins %d != %d force calls", forces, joins, 2*committers)
	}
	if got := stats.Get(sim.CtrDiskWrites); got != forces {
		t.Errorf("log disk writes = %d, want one per led force (%d)", got, forces)
	}
}

// TestGroupCommitCrashMidBatchReplay crashes an owner in the middle of
// group-committed traffic: several transactions commit concurrently
// through the group committer, one more ships its records but dies before
// its commit record is forced. Replaying the log image must recover every
// committed transaction's updates and presume the undecided one aborted —
// batching forces must never widen the window in which a committed
// transaction can be lost.
func TestGroupCommitCrashMidBatchReplay(t *testing.T) {
	const committers = 6
	l, stats := newGroupLog(time.Millisecond)

	var wg sync.WaitGroup
	for i := 0; i < committers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			txid := lock.TxID{Site: fmt.Sprintf("c%d", i), Seq: 1}
			rec := Record{Tx: txid, Object: gcObj(uint32(i), 0), Before: []byte("old"), After: []byte(fmt.Sprintf("v%d", i))}
			l.Append([]Record{rec})
			l.Commit(txid)
		}()
	}
	wg.Wait()

	// The loser ships records (appended under the same group committer)
	// but the crash comes before its commit record.
	loser := lock.TxID{Site: "loser", Seq: 9}
	l.Append([]Record{{Tx: loser, Object: gcObj(50, 0), Before: []byte("keep"), After: []byte("lost")}})

	img := l.ImageBytes() // the crash snapshot of the log disk

	res, err := Replay(img)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < committers; i++ {
		want := fmt.Sprintf("v%d", i)
		if got := string(res.State[gcObj(uint32(i), 0)]); got != want {
			t.Errorf("committed update of c%d lost: state = %q, want %q", i, got, want)
		}
	}
	if _, ok := res.State[gcObj(50, 0)]; ok {
		t.Error("uncommitted update applied by replay")
	}
	if len(res.Losers) != 1 || res.Losers[0] != loser {
		t.Errorf("losers = %v, want exactly [%v] (presumed abort)", res.Losers, loser)
	}
	if forces, joins := stats.Get(sim.CtrWALGroupForces), stats.Get(sim.CtrWALGroupJoins); forces+joins != 2*committers+1 {
		t.Errorf("forces %d + joins %d != %d force calls", forces, joins, 2*committers+1)
	}

	// A torn tail — the machine died during the batch's disk write — must
	// not take committed transactions with it.
	res2, err := Replay(img[:len(img)-3])
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Truncated {
		t.Error("torn tail not reported")
	}
	for i := 0; i < committers; i++ {
		want := fmt.Sprintf("v%d", i)
		if got := string(res2.State[gcObj(uint32(i), 0)]); got != want {
			t.Errorf("committed update of c%d lost to the torn tail: %q", i, got)
		}
	}
}

// TestGroupCommitForceObserver checks the batch-size observer feed: every
// led disk write reports its cohort exactly once, and the cohorts sum to
// the total number of force calls (each call either led or joined).
func TestGroupCommitForceObserver(t *testing.T) {
	l, stats := newGroupLog(time.Millisecond)
	var mu sync.Mutex
	var cohorts []int
	l.SetForceObserver(func(c int) {
		mu.Lock()
		cohorts = append(cohorts, c)
		mu.Unlock()
	})

	const committers = 6
	var wg sync.WaitGroup
	for i := 0; i < committers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			txid := lock.TxID{Site: fmt.Sprintf("o%d", i), Seq: 1}
			rec := Record{Tx: txid, Object: gcObj(uint32(i), 0), Before: []byte("x"), After: []byte("y")}
			l.Append([]Record{rec})
			l.Commit(txid)
		}()
	}
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	forces := stats.Get(sim.CtrWALGroupForces)
	joins := stats.Get(sim.CtrWALGroupJoins)
	if int64(len(cohorts)) != forces {
		t.Errorf("observer fired %d times, want once per led force (%d)", len(cohorts), forces)
	}
	sum := int64(0)
	for _, c := range cohorts {
		if c < 1 {
			t.Errorf("observed cohort %d < 1", c)
		}
		sum += int64(c)
	}
	if sum != forces+joins {
		t.Errorf("cohorts sum to %d, want every force call covered (%d)", sum, forces+joins)
	}
}
