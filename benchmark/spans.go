package main

import (
	"bufio"
	"fmt"
	"io"
	"time"
)

// spanKind names a call the driver makes. The driver records spans only
// around its own calls into the system; spans inside the program are a
// later issue.
type spanKind uint8

const (
	spanTxn     spanKind = iota // first Begin to final outcome, re-executions and back-off included
	spanAttempt                 // one execution of the reference string, Begin to Commit or Abort
	spanLookup                  // storage.Directory.LookupObject
	spanRead                    // core.Tx.Read
	spanWrite                   // core.Tx.Write
	spanCommit                  // core.Tx.Commit
	spanAbort                   // core.Tx.Abort
	spanBackoff                 // the sleep between an abort and the re-execution
	numSpanKinds
)

var spanNames = [numSpanKinds]string{"txn", "attempt", "lookup", "read", "write", "commit", "abort", "backoff"}

// span is one timed call. parent indexes the same log (-1 for a root);
// spans of one transaction share txn.
type span struct {
	kind       spanKind
	parent     int32
	txn        uint32
	start, end int64 // ns since the log's epoch
}

// spanLog is one application's in-memory trace. Each application appends
// to its own log from its own goroutine, so no lock is needed. A nil log
// records nothing, which is how tracing is off.
type spanLog struct {
	epoch time.Time
	spans []span
}

func (l *spanLog) begin(kind spanKind, parent int32, txn uint32) int32 {
	if l == nil {
		return -1
	}
	l.spans = append(l.spans, span{kind: kind, parent: parent, txn: txn, start: int64(time.Since(l.epoch))})
	return int32(len(l.spans) - 1)
}

func (l *spanLog) finish(i int32) {
	if l != nil {
		l.spans[i].end = int64(time.Since(l.epoch))
	}
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its child spans cover (overlapping children are not counted twice).
// Spans must be in start order, which is the order begin appends them in.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	covered := make([]int64, len(spans)) // per span: end of the child time already subtracted
	for i, s := range spans {
		self[i] = s.end - s.start
		covered[i] = s.start
		if s.parent < 0 {
			continue
		}
		p := s.parent
		lo, hi := max(s.start, covered[p]), min(s.end, spans[p].end)
		if hi > lo {
			self[p] -= hi - lo
			covered[p] = hi
		}
	}
	return self
}

// detailedTime sums, over the detailed transactions in spans (those with a
// read, write or lookup span recorded), the self time of every span kind
// and the transactions' wall time.
func detailedTime(spans []span) (self [numSpanKinds]int64, wall int64) {
	detailed := make(map[uint32]bool)
	for _, s := range spans {
		if s.kind == spanRead || s.kind == spanWrite || s.kind == spanLookup {
			detailed[s.txn] = true
		}
	}
	for i, t := range selfTimes(spans) {
		s := spans[i]
		if !detailed[s.txn] {
			continue
		}
		self[s.kind] += t
		if s.kind == spanTxn {
			wall += s.end - s.start
		}
	}
	return self, wall
}

// timeShares splits transaction wall time into the self time of reads,
// writes, commits and back-off, and everything else: lookups, aborts and
// the driver's own loop. The five shares sum to 1.
func timeShares(self [numSpanKinds]int64, wall int64) (read, write, commit, backoff, other float64) {
	w := float64(wall)
	read = float64(self[spanRead]) / w
	write = float64(self[spanWrite]) / w
	commit = float64(self[spanCommit]) / w
	backoff = float64(self[spanBackoff]) / w
	return read, write, commit, backoff, 1 - read - write - commit - backoff
}

// durationsOf returns the durations, in ns, of every span of kind.
func durationsOf(spans []span, kind spanKind) []float64 {
	var out []float64
	for _, s := range spans {
		if s.kind == kind {
			out = append(out, float64(s.end-s.start))
		}
	}
	return out
}

// writeSpans dumps the logs as CSV, one span per line, for offline study.
func writeSpans(w io.Writer, logs []*spanLog) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "app,index,name,parent,txn,start_ns,end_ns")
	for app, l := range logs {
		for i, s := range l.spans {
			fmt.Fprintf(bw, "%d,%d,%s,%d,%d,%d,%d\n", app, i, spanNames[s.kind], s.parent, s.txn, s.start, s.end)
		}
	}
	return bw.Flush()
}
