// Protocol-fingerprint parity: a fixed, fully sequential script of reads,
// writes, commits and one abort is executed under every protocol, and the
// resulting counter snapshot is compared field by field against a golden
// fingerprint captured before the consistency-policy refactor. The script
// has no concurrency and no lock waits, so every counter it drives is
// deterministic; any change to what a protocol ships, calls back, locks,
// escalates, or logs shows up as a fingerprint diff.
//
// Regenerate the goldens (only when a behavior change is intended):
//
//	PARITY_UPDATE=1 go test ./internal/core -run TestProtocolFingerprintParity
package core

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"adaptivecc/internal/sim"
)

// parityCounters is the fingerprint schema: every counter the script can
// deterministically drive. Counters that must stay zero (lock waits, races,
// resilience machinery) are included so a refactor that introduces blocking
// or retries on this script fails loudly.
var parityCounters = []string{
	sim.CtrMessages,
	sim.CtrPageTransfers,
	sim.CtrReadRequests,
	sim.CtrWriteRequests,
	sim.CtrCallbacks,
	sim.CtrCallbackBlocked,
	sim.CtrCallbackRounds,
	sim.CtrCallbackRaces,
	sim.CtrDeescalations,
	sim.CtrAdaptiveGrants,
	sim.CtrEscalationSaved,
	sim.CtrLocalHits,
	sim.CtrCommits,
	sim.CtrAborts,
	sim.CtrObjectReads,
	sim.CtrObjectWrites,
	sim.CtrLogRecords,
	sim.CtrDiskReads,
	sim.CtrDiskWrites,
	sim.CtrRedoPageReads,
	sim.CtrLockWaits,
}

// runParityScript executes the fixed reference script and returns the
// final counter snapshot. The script is strictly sequential: at most one
// transaction is active per step except the final section, where the two
// concurrent transactions touch different objects and therefore never
// block under any object-granularity protocol (the section is skipped for
// PS, whose page-grain locks would serialize it).
func runParityScript(t *testing.T, proto Protocol, opts ...func(*Config)) map[string]int64 {
	t.Helper()
	tc := newCluster(t, proto, 2, 12, opts...)
	a, b := tc.clients[0], tc.clients[1]

	// Cold read of two objects on one page.
	t1 := a.Begin()
	readVal(t, t1, objID(0, 0))
	readVal(t, t1, objID(0, 1))
	mustCommit(t, t1)

	// Cache-hit read, then two writes on a second page.
	t2 := a.Begin()
	readVal(t, t2, objID(0, 0))
	writeVal(t, t2, objID(1, 0), "p1s0")
	writeVal(t, t2, objID(1, 1), "p1s1")
	mustCommit(t, t2)

	// The other client reads the committed update.
	t3 := b.Begin()
	if got := readVal(t, t3, objID(1, 0)); got != "p1s0" {
		t.Fatalf("b reads %q, want p1s0", got)
	}
	mustCommit(t, t3)

	// The other client writes a page the first still caches: callback.
	t4 := b.Begin()
	writeVal(t, t4, objID(0, 0), "b0")
	mustCommit(t, t4)

	// Second write to the called-back page. Under pure object callbacks the
	// first client's page copy survived the object invalidation (its ack
	// said still-cached), so it is called back again; under page-first
	// callbacks the whole-page purge already dropped the copy entry and no
	// second callback is sent. This is what separates PS-OO from PS-OA.
	t4b := b.Begin()
	writeVal(t, t4b, objID(0, 1), "b1")
	mustCommit(t, t4b)

	// The called-back client re-reads both objects.
	t5 := a.Begin()
	if got := readVal(t, t5, objID(0, 0)); got != "b0" {
		t.Fatalf("a reads %q after callback, want b0", got)
	}
	if got := readVal(t, t5, objID(0, 1)); got != "b1" {
		t.Fatalf("a reads %q after callback, want b1", got)
	}
	mustCommit(t, t5)

	// An aborted write, then the other client reads past it.
	t6 := a.Begin()
	writeVal(t, t6, objID(3, 0), "doomed")
	if err := t6.Abort(); err != nil {
		t.Fatal(err)
	}
	t7 := b.Begin()
	if got := readVal(t, t7, objID(3, 0)); got == "doomed" {
		t.Fatal("aborted value visible")
	}
	mustCommit(t, t7)

	// Concurrent transactions on different objects of one page: drives the
	// adaptive grant + deescalation pair under PS-AA and stays conflict-free
	// under the other object-granularity protocols. Page-grain PS would
	// block here, so the section is skipped for it.
	if proto != PS {
		t8 := a.Begin()
		writeVal(t, t8, objID(4, 0), "a4")
		t9 := b.Begin()
		readVal(t, t9, objID(4, 1))
		mustCommit(t, t9)
		mustCommit(t, t8)
	}

	snap := tc.sys.Stats().Snapshot()
	out := make(map[string]int64, len(parityCounters))
	for _, c := range parityCounters {
		out[c] = snap[c]
	}
	return out
}

func parityGoldenPath() string {
	return filepath.Join("testdata", "parity_fingerprints.txt")
}

// formatFingerprint renders one protocol's fingerprint as a single line:
// "<proto> ctr=value ctr=value ..." with counters in schema order.
func formatFingerprint(proto Protocol, fp map[string]int64) string {
	var b strings.Builder
	b.WriteString(proto.String())
	for _, c := range parityCounters {
		fmt.Fprintf(&b, " %s=%d", c, fp[c])
	}
	return b.String()
}

// parseFingerprints loads the golden file into protocol-name -> counters.
func parseFingerprints(t *testing.T, data string) map[string]map[string]int64 {
	t.Helper()
	out := make(map[string]map[string]int64)
	for _, line := range strings.Split(strings.TrimSpace(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		fp := make(map[string]int64, len(fields)-1)
		for _, f := range fields[1:] {
			k, v, ok := strings.Cut(f, "=")
			if !ok {
				t.Fatalf("golden line %q: bad field %q", line, f)
			}
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				t.Fatalf("golden line %q: %v", line, err)
			}
			fp[k] = n
		}
		out[fields[0]] = fp
	}
	return out
}

// TestProtocolFingerprintParity is the refactor's behavior-preservation
// oracle: for each of the paper's five protocols the reference script must
// reproduce the pre-refactor counter fingerprint exactly.
func TestProtocolFingerprintParity(t *testing.T) {
	protos := []Protocol{PS, PSOO, PSOA, PSAA, OS}

	if os.Getenv("PARITY_UPDATE") != "" {
		var lines []string
		lines = append(lines,
			"# Golden protocol fingerprints for TestProtocolFingerprintParity.",
			"# Regenerate: PARITY_UPDATE=1 go test ./internal/core -run TestProtocolFingerprintParity")
		for _, proto := range protos {
			lines = append(lines, formatFingerprint(proto, runParityScript(t, proto)))
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(parityGoldenPath(), []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", parityGoldenPath())
		return
	}

	data, err := os.ReadFile(parityGoldenPath())
	if err != nil {
		t.Fatalf("missing golden fingerprints (run with PARITY_UPDATE=1 to create): %v", err)
	}
	golden := parseFingerprints(t, string(data))

	for _, proto := range protos {
		proto := proto
		t.Run(proto.String(), func(t *testing.T) {
			want, ok := golden[proto.String()]
			if !ok {
				t.Fatalf("no golden fingerprint for %s", proto)
			}
			got := runParityScript(t, proto)
			for _, c := range parityCounters {
				if got[c] != want[c] {
					t.Errorf("counter %s = %d, golden %d", c, got[c], want[c])
				}
			}
			if t.Failed() {
				t.Logf("got:  %s", formatFingerprint(proto, got))
				t.Logf("want: %s", formatFingerprint(proto, want))
			}
		})
	}

	// Every protocol must have a distinct fingerprint: if two collapse to
	// the same counters the script has stopped discriminating and a policy
	// regression could hide behind another protocol's golden line.
	seen := make(map[string]string)
	for _, proto := range protos {
		line := formatFingerprint(proto, golden[proto.String()])
		key := strings.TrimPrefix(line, proto.String())
		if other, dup := seen[key]; dup {
			t.Errorf("protocols %s and %s share a fingerprint; script no longer discriminates", other, proto)
		}
		seen[key] = proto.String()
	}
}

// semanticParityCounters are the counters the transport swap may never
// change: what the protocol decided (commits, aborts, data touched, records
// shipped, pages moved). The shape counters (messages, disk writes, lock
// waits) are deliberately excluded.
var semanticParityCounters = []string{
	sim.CtrCommits,
	sim.CtrAborts,
	sim.CtrObjectReads,
	sim.CtrObjectWrites,
	sim.CtrLocalHits,
	sim.CtrLogRecords,
	sim.CtrPageTransfers,
}
