package wal

import (
	"testing"

	"adaptivecc/internal/lock"
	"adaptivecc/internal/sim"
	"adaptivecc/internal/storage"
)

var (
	txA = lock.TxID{Site: "A", Seq: 1}
	txB = lock.TxID{Site: "B", Seq: 1}
)

func rec(tx lock.TxID, page uint32, slot uint16, after string) Record {
	return Record{
		Tx:     tx,
		Object: storage.ObjectItem(1, 1, page, slot),
		After:  []byte(after),
	}
}

func TestStableLogAssignsLSNs(t *testing.T) {
	l := NewStableLog(nil)
	out := l.Append([]Record{rec(txA, 1, 0, "x"), rec(txA, 1, 1, "y")})
	if out[0].LSN != 1 || out[1].LSN != 2 {
		t.Fatalf("LSNs = %d, %d", out[0].LSN, out[1].LSN)
	}
	if l.NextLSN() != 3 || l.Size() != 2 {
		t.Errorf("NextLSN=%d Size=%d", l.NextLSN(), l.Size())
	}
	if l.Append(nil) != nil {
		t.Error("empty append returned records")
	}
}

func TestStableLogCommitReleasesUndo(t *testing.T) {
	l := NewStableLog(nil)
	l.Append([]Record{rec(txA, 1, 0, "x")})
	if got := l.ActiveRecords(txA); got != 1 {
		t.Fatalf("ActiveRecords = %d", got)
	}
	l.Commit(txA)
	if got := l.ActiveRecords(txA); got != 0 {
		t.Errorf("ActiveRecords after commit = %d", got)
	}
	if got := l.Abort(txA); len(got) != 0 {
		t.Errorf("Abort after commit returned %v", got)
	}
}

func TestStableLogAbortReturnsReverse(t *testing.T) {
	l := NewStableLog(nil)
	r1 := rec(txA, 1, 0, "first")
	r1.Before = []byte("old0")
	r2 := rec(txA, 1, 1, "second")
	r2.Before = []byte("old1")
	l.Append([]Record{r1, r2})
	undo := l.Abort(txA)
	if len(undo) != 2 {
		t.Fatalf("undo = %v", undo)
	}
	if string(undo[0].After) != "second" || string(undo[1].After) != "first" {
		t.Errorf("undo order wrong: %v, %v", string(undo[0].After), string(undo[1].After))
	}
	if string(undo[0].Before) != "old1" {
		t.Errorf("before image = %q", undo[0].Before)
	}
}

func TestStableLogChargesDisk(t *testing.T) {
	stats := sim.NewStats()
	disk := storage.NewDisk("log", sim.DefaultCosts(0), stats)
	l := NewStableLog(disk)
	l.Append([]Record{rec(txA, 1, 0, "x"), rec(txA, 1, 1, "y")})
	if got := stats.Get(sim.CtrDiskWrites); got != 1 {
		t.Errorf("disk writes after batched append = %d, want 1 (group force)", got)
	}
	l.Commit(txA)
	if got := stats.Get(sim.CtrDiskWrites); got != 2 {
		t.Errorf("disk writes after commit = %d, want 2", got)
	}
}
