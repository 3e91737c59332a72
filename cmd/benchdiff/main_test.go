package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeReport(t *testing.T, name, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const oldReport = `{
  "date": "2026-08-01T00:00:00Z", "commit": "aaaa111",
  "benchmarks": [
    {"name": "BenchmarkA", "iterations": 1000, "ns/op": 100},
    {"name": "BenchmarkB", "iterations": 1000, "ns/op": 200},
    {"name": "BenchmarkGone", "iterations": 10, "ns/op": 5}
  ]
}`

func TestNoRegressionPasses(t *testing.T) {
	oldPath := writeReport(t, "old.json", oldReport)
	newPath := writeReport(t, "new.json", `{
	  "date": "2026-08-02T00:00:00Z", "commit": "bbbb222",
	  "benchmarks": [
	    {"name": "BenchmarkA", "iterations": 1000, "ns/op": 110},
	    {"name": "BenchmarkB", "iterations": 1000, "ns/op": 150},
	    {"name": "BenchmarkNew", "iterations": 5, "ns/op": 42}
	  ]
	}`)
	if err := run([]string{oldPath, newPath}, os.Stdout); err != nil {
		t.Fatalf("10%% slower + one faster + one new should pass: %v", err)
	}
}

func TestRegressionFails(t *testing.T) {
	oldPath := writeReport(t, "old.json", oldReport)
	newPath := writeReport(t, "new.json", `{
	  "date": "2026-08-02T00:00:00Z", "commit": "cccc333",
	  "benchmarks": [
	    {"name": "BenchmarkA", "iterations": 1000, "ns/op": 130},
	    {"name": "BenchmarkB", "iterations": 1000, "ns/op": 200}
	  ]
	}`)
	err := run([]string{oldPath, newPath}, os.Stdout)
	if err == nil {
		t.Fatal("30% regression passed the 15% gate")
	}
	if !strings.Contains(err.Error(), "BenchmarkA") {
		t.Errorf("error does not name the regressed benchmark: %v", err)
	}
	if !strings.Contains(err.Error(), "aaaa111..cccc333") {
		t.Errorf("error does not name the commit span the regression lies in: %v", err)
	}
}

func TestCommitSpan(t *testing.T) {
	cases := []struct {
		old, new, want string
	}{
		{"aaaa111", "cccc333", " between commits aaaa111..cccc333 (inclusive of cccc333)"},
		{"aaaa111", "aaaa111", " at commit aaaa111"},
		{"unknown", "unknown", ""},
		{"", "", ""},
		{"unknown", "cccc333", " between commits unknown..cccc333 (inclusive of cccc333)"},
	}
	for _, c := range cases {
		if got := commitSpan(c.old, c.new); got != c.want {
			t.Errorf("commitSpan(%q, %q) = %q, want %q", c.old, c.new, got, c.want)
		}
	}
}

func TestThresholdFlag(t *testing.T) {
	oldPath := writeReport(t, "old.json", oldReport)
	newPath := writeReport(t, "new.json", `{
	  "benchmarks": [{"name": "BenchmarkA", "iterations": 1000, "ns/op": 130}]
	}`)
	if err := run([]string{"-threshold", "0.5", oldPath, newPath}, os.Stdout); err != nil {
		t.Fatalf("30%% regression should pass a 50%% threshold: %v", err)
	}
}

// runCaptured runs benchdiff with output captured to a temp file.
func runCaptured(t *testing.T, args []string) (string, error) {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	runErr := run(args, f)
	data, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(data), runErr
}

func TestPercentileSectionRendered(t *testing.T) {
	oldPath := writeReport(t, "old.json", `{
	  "benchmarks": [
	    {"name": "BenchmarkFig06Observed", "iterations": 1, "ns/op": 100, "p50-lockwait-ms": 1.5, "p99-lockwait-ms": 12}
	  ]
	}`)
	newPath := writeReport(t, "new.json", `{
	  "benchmarks": [
	    {"name": "BenchmarkFig06Observed", "iterations": 1, "ns/op": 105, "p50-lockwait-ms": 1.8, "p99-lockwait-ms": 14}
	  ]
	}`)
	out, err := runCaptured(t, []string{oldPath, newPath})
	if err != nil {
		t.Fatalf("informational percentiles must not gate: %v", err)
	}
	if !strings.Contains(out, "latency percentiles") {
		t.Errorf("percentile section missing:\n%s", out)
	}
	if !strings.Contains(out, "p50-lockwait-ms 1.5 -> 1.8") {
		t.Errorf("p50 values not reported:\n%s", out)
	}
	if !strings.Contains(out, "p99-lockwait-ms 12 -> 14") {
		t.Errorf("p99 values not reported:\n%s", out)
	}
}

func TestPercentileSectionDegradesGracefully(t *testing.T) {
	// Percentiles only in the new report (or absent entirely) must not
	// produce the section, keeping plain diffs identical to before.
	oldPath := writeReport(t, "old.json", oldReport)
	newPath := writeReport(t, "new.json", `{
	  "benchmarks": [
	    {"name": "BenchmarkA", "iterations": 1000, "ns/op": 100, "p50-lockwait-ms": 1.5}
	  ]
	}`)
	out, err := runCaptured(t, []string{oldPath, newPath})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "latency percentiles") {
		t.Errorf("one-sided percentiles rendered a section:\n%s", out)
	}
}

func TestAllocGateExactVsRelative(t *testing.T) {
	// Fixed-work benchmarks (small allocs/op) are gated at +0 exactly; the
	// wall-clock figure sweeps (millions of allocs/op, proportional to how
	// much work the measurement window fit) only fail past -threshold.
	oldPath := writeReport(t, "old.json", `{
	  "benchmarks": [
	    {"name": "BenchmarkMicro", "iterations": 1000, "ns/op": 100, "allocs/op": 6},
	    {"name": "BenchmarkFig06Sweep", "iterations": 1, "ns/op": 100, "allocs/op": 4000000}
	  ]
	}`)
	noisy := writeReport(t, "noisy.json", `{
	  "benchmarks": [
	    {"name": "BenchmarkMicro", "iterations": 1000, "ns/op": 100, "allocs/op": 6},
	    {"name": "BenchmarkFig06Sweep", "iterations": 1, "ns/op": 100, "allocs/op": 4200000}
	  ]
	}`)
	if err := run([]string{oldPath, noisy}, os.Stdout); err != nil {
		t.Fatalf("5%% sweep-allocation drift should pass the relative gate: %v", err)
	}
	leak := writeReport(t, "leak.json", `{
	  "benchmarks": [
	    {"name": "BenchmarkMicro", "iterations": 1000, "ns/op": 100, "allocs/op": 7},
	    {"name": "BenchmarkFig06Sweep", "iterations": 1, "ns/op": 100, "allocs/op": 4000000}
	  ]
	}`)
	err := run([]string{oldPath, leak}, os.Stdout)
	if err == nil {
		t.Fatal("6 -> 7 allocs/op on a fixed-work benchmark passed the exact gate")
	}
	if !strings.Contains(err.Error(), "BenchmarkMicro") {
		t.Errorf("error does not name the leaking benchmark: %v", err)
	}
	blowup := writeReport(t, "blowup.json", `{
	  "benchmarks": [
	    {"name": "BenchmarkMicro", "iterations": 1000, "ns/op": 100, "allocs/op": 6},
	    {"name": "BenchmarkFig06Sweep", "iterations": 1, "ns/op": 100, "allocs/op": 5000000}
	  ]
	}`)
	err = run([]string{oldPath, blowup}, os.Stdout)
	if err == nil {
		t.Fatal("25% sweep-allocation growth passed the 15% relative gate")
	}
	if !strings.Contains(err.Error(), "BenchmarkFig06Sweep") {
		t.Errorf("error does not name the regressed sweep: %v", err)
	}
}

const pgateOldReport = `{
  "benchmarks": [
    {"name": "BenchmarkFig06Observed", "iterations": 1, "ns/op": 100,
     "p50-lockwait-ms": 1.5, "p99-lockwait-ms": 10, "p99-callback-ms": 20}
  ]
}`

func TestPGateFailsOnP99Regression(t *testing.T) {
	oldPath := writeReport(t, "old.json", pgateOldReport)
	newPath := writeReport(t, "new.json", `{
	  "benchmarks": [
	    {"name": "BenchmarkFig06Observed", "iterations": 1, "ns/op": 100,
	     "p50-lockwait-ms": 9.9, "p99-lockwait-ms": 16, "p99-callback-ms": 21}
	  ]
	}`)
	out, err := runCaptured(t, []string{"-pgate", "40", oldPath, newPath})
	if err == nil {
		t.Fatal("60% p99 regression passed a 40% gate")
	}
	if !strings.Contains(err.Error(), "p99-lockwait-ms") {
		t.Errorf("error does not name the regressed percentile: %v", err)
	}
	if strings.Contains(err.Error(), "p99-callback-ms") {
		t.Errorf("5%% p99 growth flagged by a 40%% gate: %v", err)
	}
	if strings.Contains(err.Error(), "p50") {
		t.Errorf("p50 must stay informational even under -pgate: %v", err)
	}
	if !strings.Contains(out, "FAIL") {
		t.Errorf("gated regression not flagged in the table:\n%s", out)
	}
}

func TestPGateWithinThresholdPasses(t *testing.T) {
	oldPath := writeReport(t, "old.json", pgateOldReport)
	newPath := writeReport(t, "new.json", `{
	  "benchmarks": [
	    {"name": "BenchmarkFig06Observed", "iterations": 1, "ns/op": 100,
	     "p50-lockwait-ms": 1.6, "p99-lockwait-ms": 13, "p99-callback-ms": 19}
	  ]
	}`)
	if err := run([]string{"-pgate", "40", oldPath, newPath}, os.Stdout); err != nil {
		t.Fatalf("30%% p99 growth should pass a 40%% gate: %v", err)
	}
}

func TestPGateOffByDefault(t *testing.T) {
	// The exact scenario that fails under -pgate must pass without it:
	// percentiles are informational unless the gate is requested.
	oldPath := writeReport(t, "old.json", pgateOldReport)
	newPath := writeReport(t, "new.json", `{
	  "benchmarks": [
	    {"name": "BenchmarkFig06Observed", "iterations": 1, "ns/op": 100,
	     "p50-lockwait-ms": 9.9, "p99-lockwait-ms": 16, "p99-callback-ms": 21}
	  ]
	}`)
	out, err := runCaptured(t, []string{oldPath, newPath})
	if err != nil {
		t.Fatalf("ungated percentile regression failed the diff: %v", err)
	}
	if strings.Contains(out, "FAIL") {
		t.Errorf("ungated diff flagged a percentile FAIL:\n%s", out)
	}
}

func TestIsPercentileMetric(t *testing.T) {
	yes := []string{"p50-lockwait-ms", "p99-callback-ms", "p90-x"}
	no := []string{"ns/op", "tps:fig6", "p-lockwait", "p50", "pages/op", "B/op"}
	for _, k := range yes {
		if !isPercentileMetric(k) {
			t.Errorf("%q should be a percentile metric", k)
		}
	}
	for _, k := range no {
		if isPercentileMetric(k) {
			t.Errorf("%q should not be a percentile metric", k)
		}
	}
}

func TestBadUsage(t *testing.T) {
	if err := run([]string{"only-one.json"}, os.Stdout); err == nil {
		t.Error("single argument accepted")
	}
	if err := run([]string{"nope1.json", "nope2.json"}, os.Stdout); err == nil {
		t.Error("missing files accepted")
	}
}
