// Command benchdiff compares two JSON reports of `go test -bench` results
// and fails when a benchmark regressed. Its producer (bench.sh), the
// checked-in BENCH_N.json baselines and the CI bench-regression job that
// ran it are retired in favour of benchmark/ + BENCHMARK.json; the command
// itself is next (ROADMAP item 3e).
//
// Usage:
//
//	benchdiff [-threshold 0.15] [-metric ns/op] [-allocslack 0] [-pgate 40] old.json new.json
//
// Benchmarks present in only one report are listed but never fatal (new
// benchmarks appear, old ones get renamed). Custom throughput metrics
// (tps:*) are reported for information only: wall-clock figure numbers on
// shared CI runners are too noisy to gate on. allocs/op is gated
// alongside the time metric whenever both reports carry it: fixed-work
// microbenchmarks have deterministic allocation counts, so ANY growth
// beyond -allocslack (default 0) allocations per op is fatal, while
// wall-clock-windowed sweeps (baseline allocs/op above allocExactMax,
// where the count merely tracks how much work the window fit) fall back
// to the relative -threshold gate. Latency
// percentiles are informational by default; -pgate <pct> opts in to
// failing when any p99-* percentile regresses by more than that
// percentage (tail latencies are the noisiest numbers a shared runner
// produces, so the gate is opt-in and its threshold deliberately separate
// from -threshold).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

type report struct {
	Date       string       `json:"date"`
	Commit     string       `json:"commit"`
	Benchmarks []benchEntry `json:"benchmarks"`
}

type benchEntry struct {
	Name       string
	Iterations int64
	Metrics    map[string]float64
}

// UnmarshalJSON flattens the bench.sh entry layout, where every key other
// than name/iterations is a metric.
func (b *benchEntry) UnmarshalJSON(data []byte) error {
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	b.Metrics = make(map[string]float64)
	for k, v := range raw {
		switch k {
		case "name":
			if err := json.Unmarshal(v, &b.Name); err != nil {
				return err
			}
		case "iterations":
			if err := json.Unmarshal(v, &b.Iterations); err != nil {
				return err
			}
		default:
			var f float64
			if err := json.Unmarshal(v, &f); err != nil {
				return fmt.Errorf("metric %q: %w", k, err)
			}
			b.Metrics[k] = f
		}
	}
	if b.Name == "" {
		return fmt.Errorf("benchmark entry without a name")
	}
	return nil
}

func load(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}
}

func run(args []string, out *os.File) error {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	threshold := fs.Float64("threshold", 0.15, "fatal regression fraction (0.15 = 15% slower)")
	metric := fs.String("metric", "ns/op", "metric to gate on (lower is better)")
	allocSlack := fs.Float64("allocslack", 0, "allowed allocs/op growth before failing (-1 disables the allocation gate)")
	pgate := fs.Float64("pgate", 0, "fatal p99 regression percent (40 = fail when a p99-* metric grows >40%; 0 disables)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: benchdiff [flags] old.json new.json")
	}
	oldRep, err := load(fs.Arg(0))
	if err != nil {
		return err
	}
	newRep, err := load(fs.Arg(1))
	if err != nil {
		return err
	}

	oldBy := make(map[string]benchEntry, len(oldRep.Benchmarks))
	for _, b := range oldRep.Benchmarks {
		oldBy[b.Name] = b
	}
	names := make([]string, 0, len(newRep.Benchmarks))
	newBy := make(map[string]benchEntry, len(newRep.Benchmarks))
	for _, b := range newRep.Benchmarks {
		names = append(names, b.Name)
		newBy[b.Name] = b
	}
	sort.Strings(names)

	fmt.Fprintf(out, "old: %s (%s)\nnew: %s (%s)\n\n",
		fs.Arg(0), oldRep.Commit, fs.Arg(1), newRep.Commit)

	var regressions []string
	for _, name := range names {
		nb := newBy[name]
		ob, ok := oldBy[name]
		if !ok {
			fmt.Fprintf(out, "  NEW   %-40s %s=%g\n", name, *metric, nb.Metrics[*metric])
			continue
		}
		ov, okOld := ob.Metrics[*metric]
		nv, okNew := nb.Metrics[*metric]
		if !okOld || !okNew || ov == 0 {
			fmt.Fprintf(out, "  SKIP  %-40s (no %s in both reports)\n", name, *metric)
			continue
		}
		delta := (nv - ov) / ov
		status := "ok"
		if delta > *threshold {
			status = "FAIL"
			regressions = append(regressions,
				fmt.Sprintf("%s: %s %.4g -> %.4g (%+.1f%%)", name, *metric, ov, nv, delta*100))
		} else if delta < -*threshold {
			status = "faster"
		}
		fmt.Fprintf(out, "  %-5s %-40s %s %.4g -> %.4g (%+.1f%%)\n",
			status, name, *metric, ov, nv, delta*100)
	}
	gone := make([]string, 0)
	for name := range oldBy {
		if _, ok := newBy[name]; !ok {
			gone = append(gone, name)
		}
	}
	sort.Strings(gone)
	for _, name := range gone {
		fmt.Fprintf(out, "  GONE  %s\n", name)
	}

	aRegressions := printAllocs(out, names, oldBy, newBy, *allocSlack, *threshold)
	pRegressions := printPercentiles(out, names, oldBy, newBy, *pgate)

	span := commitSpan(oldRep.Commit, newRep.Commit)
	if len(regressions) > 0 {
		return fmt.Errorf("%d benchmark(s) regressed more than %.0f%%%s:\n  %s",
			len(regressions), *threshold*100, span, joinLines(regressions))
	}
	if len(aRegressions) > 0 {
		return fmt.Errorf("%d benchmark(s) gained allocations%s:\n  %s",
			len(aRegressions), span, joinLines(aRegressions))
	}
	if len(pRegressions) > 0 {
		return fmt.Errorf("%d p99 percentile(s) regressed more than %.0f%%%s:\n  %s",
			len(pRegressions), *pgate, span, joinLines(pRegressions))
	}
	fmt.Fprintf(out, "\nno regression beyond %.0f%%\n", *threshold*100)
	return nil
}

// allocExactMax separates the two kinds of benchmark the reports carry.
// Fixed-work benchmarks (the lock microbenchmarks: 0–6 allocs/op) have
// deterministic allocation counts, so any growth beyond the absolute
// slack is a real leak. The figure sweeps instead run a wall-clock
// measurement window, so the work done per "op" — and with it the total
// allocation count, millions per run — tracks machine speed: two runs of
// the same binary differ by a percent or two. Entries whose baseline
// allocs/op exceeds this cutoff are therefore gated relatively, at the
// same threshold as ns/op, rather than at +0.
const allocExactMax = 10_000

// printAllocs gates the allocs/op metric. For fixed-work benchmarks
// (baseline allocs/op ≤ allocExactMax) allocation counts are deterministic
// — unlike wall-clock time, they do not wobble with runner load — so the
// gate is absolute: allocs/op growing by more than slack fails, however
// small the growth looks as a percentage. Work-proportional sweeps above
// the cutoff are gated at the relative threshold instead (see
// allocExactMax). Reports predating -benchmem simply lack the metric and
// are skipped, so old-vs-new diffs keep working. slack < 0 disables the
// gate.
func printAllocs(out *os.File, names []string, oldBy, newBy map[string]benchEntry, slack, threshold float64) []string {
	if slack < 0 {
		return nil
	}
	header := false
	var regressions []string
	for _, name := range names {
		ob, ok := oldBy[name]
		if !ok {
			continue
		}
		nb := newBy[name]
		ov, okOld := ob.Metrics["allocs/op"]
		nv, okNew := nb.Metrics["allocs/op"]
		if !okOld || !okNew {
			continue
		}
		if !header {
			fmt.Fprintf(out, "\nallocations (gate: +%g allocs/op exact, +%.0f%% above %d):\n",
				slack, threshold*100, allocExactMax)
			header = true
		}
		limit := ov + slack
		if ov > allocExactMax {
			limit = ov * (1 + threshold)
		}
		status := "ok"
		if nv > limit {
			status = "FAIL"
			regressions = append(regressions,
				fmt.Sprintf("%s: allocs/op %g -> %g", name, ov, nv))
		} else if nv < ov {
			status = "fewer"
		}
		fmt.Fprintf(out, "  %-5s %-40s allocs/op %g -> %g\n", status, name, ov, nv)
	}
	return regressions
}

// printPercentiles reports latency percentile metrics (names like
// "p50-lockwait-ms") carried by observability benchmarks. The section is
// informational by default — percentiles on shared runners are too noisy
// to gate on — and appears only when both reports carry a percentile for
// the same benchmark, so diffs of reports without them render exactly as
// before. With pgate > 0, p99-* metrics that grew by more than pgate
// percent are returned as gating regressions (and flagged FAIL); lower
// percentiles stay informational at any setting.
func printPercentiles(out *os.File, names []string, oldBy, newBy map[string]benchEntry, pgate float64) []string {
	header := false
	var regressions []string
	for _, name := range names {
		ob, ok := oldBy[name]
		if !ok {
			continue
		}
		nb := newBy[name]
		keys := make([]string, 0)
		for k := range nb.Metrics {
			if !isPercentileMetric(k) {
				continue
			}
			if _, both := ob.Metrics[k]; both {
				keys = append(keys, k)
			}
		}
		if len(keys) == 0 {
			continue
		}
		sort.Strings(keys)
		if !header {
			if pgate > 0 {
				fmt.Fprintf(out, "\nlatency percentiles (p99 gate: %.0f%%):\n", pgate)
			} else {
				fmt.Fprintf(out, "\nlatency percentiles (informational):\n")
			}
			header = true
		}
		for _, k := range keys {
			ov, nv := ob.Metrics[k], nb.Metrics[k]
			status := "info"
			if pgate > 0 && strings.HasPrefix(k, "p99-") && ov > 0 && (nv-ov)/ov*100 > pgate {
				status = "FAIL"
				regressions = append(regressions,
					fmt.Sprintf("%s: %s %.4g -> %.4g (%+.1f%%)", name, k, ov, nv, (nv-ov)/ov*100))
			}
			fmt.Fprintf(out, "  %-5s %-40s %s %.4g -> %.4g\n", status, name, k, ov, nv)
		}
	}
	return regressions
}

// isPercentileMetric matches metric names of the form pNN-...
func isPercentileMetric(k string) bool {
	if len(k) < 2 || k[0] != 'p' {
		return false
	}
	i := 1
	for i < len(k) && k[i] >= '0' && k[i] <= '9' {
		i++
	}
	return i > 1 && i < len(k) && k[i] == '-'
}

// commitSpan renders the commit range a regression must lie in, so the
// gate's failure message points straight at the suspect commits
// (bench.sh stamps each report with `git rev-parse --short HEAD`, or
// "unknown" outside a checkout).
func commitSpan(oldCommit, newCommit string) string {
	if oldCommit == "" {
		oldCommit = "unknown"
	}
	if newCommit == "" {
		newCommit = "unknown"
	}
	if oldCommit == "unknown" && newCommit == "unknown" {
		return ""
	}
	if oldCommit == newCommit {
		return fmt.Sprintf(" at commit %s", newCommit)
	}
	return fmt.Sprintf(" between commits %s..%s (inclusive of %s)",
		oldCommit, newCommit, newCommit)
}

func joinLines(lines []string) string {
	s := ""
	for i, l := range lines {
		if i > 0 {
			s += "\n  "
		}
		s += l
	}
	return s
}
