package main

import (
	"math"
	"testing"
)

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	spans := []span{
		{kind: spanTxn, parent: -1, txn: 1, start: 0, end: 100},
		{kind: spanAttempt, parent: 0, txn: 1, start: 10, end: 40},
		{kind: spanRead, parent: 1, txn: 1, start: 12, end: 20},
		{kind: spanRead, parent: 1, txn: 1, start: 18, end: 30}, // overlaps its sibling by 2
		{kind: spanBackoff, parent: 0, txn: 1, start: 40, end: 60},
		{kind: spanAttempt, parent: 0, txn: 1, start: 60, end: 120}, // runs past its parent
	}
	got := selfTimes(spans)
	want := []int64{
		100 - 30 - 20 - 40, // the last attempt is clipped to the parent's end
		30 - 18,            // children cover [12,30) once, not 8+12
		8, 12, 20, 60,
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestTimeSharesSumToOne(t *testing.T) {
	spans := []span{
		// Transaction 1 is detailed: one abort, a back-off, then a commit.
		{kind: spanTxn, parent: -1, txn: 1, start: 0, end: 1000},
		{kind: spanAttempt, parent: 0, txn: 1, start: 0, end: 300},
		{kind: spanLookup, parent: 1, txn: 1, start: 0, end: 10},
		{kind: spanRead, parent: 1, txn: 1, start: 10, end: 110},
		{kind: spanWrite, parent: 1, txn: 1, start: 120, end: 250},
		{kind: spanAbort, parent: 1, txn: 1, start: 250, end: 300},
		{kind: spanBackoff, parent: 0, txn: 1, start: 300, end: 500},
		{kind: spanAttempt, parent: 0, txn: 1, start: 500, end: 990},
		{kind: spanRead, parent: 7, txn: 1, start: 500, end: 600},
		{kind: spanWrite, parent: 7, txn: 1, start: 600, end: 700},
		{kind: spanCommit, parent: 7, txn: 1, start: 700, end: 990},
		// Transaction 2 has no per-object spans and must not count.
		{kind: spanTxn, parent: -1, txn: 2, start: 1000, end: 5000},
		{kind: spanAttempt, parent: 11, txn: 2, start: 1000, end: 5000},
		{kind: spanCommit, parent: 12, txn: 2, start: 4000, end: 5000},
	}
	self, wall := detailedTime(spans)
	if wall != 1000 {
		t.Fatalf("detailed wall = %d, want 1000", wall)
	}
	read, write, commit, backoff, other := timeShares(self, wall)
	if read != 0.2 || write != 0.23 || commit != 0.29 || backoff != 0.2 {
		t.Errorf("shares: read %v write %v commit %v backoff %v", read, write, commit, backoff)
	}
	if sum := read + write + commit + backoff + other; math.Abs(sum-1) > 1e-12 {
		t.Errorf("shares sum to %v", sum)
	}
	// other = lookup 10 + abort 50 + the attempts' and the transaction's own 20.
	if math.Abs(other-0.08) > 1e-12 {
		t.Errorf("other = %v, want 0.08", other)
	}
}

func TestNilSpanLogRecordsNothing(t *testing.T) {
	var l *spanLog
	if i := l.begin(spanRead, -1, 1); i != -1 {
		t.Errorf("begin on nil log = %d", i)
	}
	l.finish(-1) // must not panic
}
