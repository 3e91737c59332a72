// Command benchmark is the repository's benchmark: it spawns the real
// shored page server on loopback TCP, drives it through
// internal/shoreclient with closed-loop applications, and prints
// end-to-end metrics (timed runs, tracing off) and per-layer metrics
// (traced runs and probes) for five workloads. See README.md.
//
// Usage (from this directory, or through run.sh from anywhere):
//
//	go run .                                  # every workload, timed then traced, plus probes
//	go run . -smoke                           # the same with 1 s windows
//	go run . -repeat 3                        # three full passes, then medians and spreads
//	go run . -workload tcp-hotcold -seed 7 -seconds 10 -trace 0
//
// The last form is what BENCHMARK.json's command runs: one workload, and
// as the last line of output one JSON object with the metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"
)

const (
	benchProcs   = 2               // GOMAXPROCS here and in every shored
	setupsPerRun = 3               // a timed run sets up this often and reports the median as setup_s
	tracedWindow = 8 * time.Second // traced window of the full report
)

// benchEnv is what every run needs from the surroundings.
type benchEnv struct {
	root      string // the adaptivecc module root
	workDir   string // scratch for this invocation, removed on exit
	shoredBin string
	buildTime time.Duration

	// children is every running shored, so that an interrupt or a fatal
	// error can kill them all: no orphan may outlive the benchmark.
	mu       sync.Mutex
	children map[*shored]bool
}

func (env *benchEnv) track(s *shored, running bool) {
	env.mu.Lock()
	defer env.mu.Unlock()
	if running {
		env.children[s] = true
	} else {
		delete(env.children, s)
	}
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		workloadName = fs.String("workload", "", "run only this workload and end with one JSON line (the BENCHMARK.json contract)")
		seed         = fs.Int64("seed", 1, "seeds the reference-string generators, shored -seed and shoreclient's path selection")
		seconds      = fs.Int("seconds", 0, "measured seconds per run (default: each workload's own window; 10 with -workload)")
		trace        = fs.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics of a timed run, 1 the per-layer metrics of a traced run")
		smoke        = fs.Bool("smoke", false, "every workload with 1 s windows and tiny probes: a quick end-to-end check")
		repeat       = fs.Int("repeat", 1, "run the full report this many times and print medians, quartiles and spreads")
		spansOut     = fs.String("spans-out", "", "write the spans of traced runs to this CSV file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || *repeat < 1 || *seconds < 0 {
		fmt.Fprintln(os.Stderr, "benchmark: bad arguments; see -help")
		return 2
	}
	runtime.GOMAXPROCS(benchProcs)

	env, err := newEnv()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	// No orphan may survive: children die with an interrupt, with a panic
	// on this goroutine, and (Pdeathsig) with this process.
	defer env.cleanup()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		env.cleanup()
		os.Exit(130)
	}()

	if *workloadName != "" {
		w, ok := workloadByName(*workloadName)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workloadName)
			return 2
		}
		if *seconds == 0 {
			*seconds = 10
		}
		// The contract gives a run 180 s; a wedged system must not hang it.
		limit := 90*time.Second + 2*time.Duration(*seconds)*time.Second
		time.AfterFunc(limit, func() { env.fatal(fmt.Errorf("run exceeded %v", limit)) })
		return runOne(env, w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *spansOut)
	}
	return runAll(env, *seed, time.Duration(*seconds)*time.Second, *smoke, *repeat, *spansOut)
}

// cleanup kills every child still running and removes the scratch
// directory.
func (env *benchEnv) cleanup() {
	env.mu.Lock()
	running := make([]*shored, 0, len(env.children))
	for s := range env.children {
		running = append(running, s)
	}
	env.mu.Unlock()
	for _, s := range running {
		s.kill()
	}
	os.RemoveAll(env.workDir)
}

// fatal ends a run that is beyond saving, from whichever goroutine found
// it so.
func (env *benchEnv) fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark: fatal:", err)
	env.cleanup()
	os.Exit(1)
}

func newEnv() (*benchEnv, error) {
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	// Everything the benchmark writes stays under .bench_build in the
	// checkout, which .gitignore names.
	base := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(filepath.Join(base, "bin"), 0o755); err != nil {
		return nil, err
	}
	env := &benchEnv{root: root, children: make(map[*shored]bool)}
	if env.shoredBin, env.buildTime, err = buildShored(root, filepath.Join(base, "bin")); err != nil {
		return nil, err
	}
	if env.workDir, err = os.MkdirTemp(base, "run-"); err != nil {
		return nil, err
	}
	return env, nil
}

// header prints what a reader needs to compare two reports.
func header(env *benchEnv, seed int64) {
	commit := "unknown"
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = env.root
	if out, err := cmd.Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	fmt.Printf("benchmark: commit %s, %s, GOMAXPROCS=%d, nproc=%d, seed %d, shored built in %.2f s\n",
		commit, runtime.Version(), benchProcs, runtime.NumCPU(), seed, env.buildTime.Seconds())
	fmt.Printf("load model: closed loop, %d applications, zero think time, PS-AA, %d pages x %d objects, %d-byte pages\n",
		numApps, dbPages, objectsPerPage, pageSize)
}

// jsonMetric is one entry of the result line's "metrics" object.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne is the BENCHMARK.json contract: one workload, one JSON result as
// the last line. A timed run reports the end-to-end metrics; a traced run
// splits its seconds between an untraced and a traced window (their
// throughput ratio is the tracing overhead), runs the probes and reports
// the per-layer metrics.
func runOne(env *benchEnv, w workloadSpec, seed int64, window time.Duration, traced bool, spansOut string) int {
	header(env, seed)
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{Metrics: make(map[string]jsonMetric)}

	var rep workloadReport
	var err error
	defs := endToEnd
	if traced {
		defs = perLayer()
		rep, err = measureWorkload(env, w, seed, window/2, window/2, 1, spansOut)
		if err == nil {
			for name, x := range runProbes(1) {
				rep.layer[name] = x
			}
		}
	} else {
		rep, err = measureWorkload(env, w, seed, window, 0, setupsPerRun, "")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	rep.print()
	for _, d := range defs {
		x := rep.timed[d.name].median
		if traced {
			x = rep.layer[d.name]
		}
		out.Metrics[d.name] = jsonMetric{Value: x, Unit: d.unit}
	}
	out.Correct = len(rep.violations) == 0
	out.Attempted, out.Failed = rep.attempted, rep.failed
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(line))
	if !out.Correct || out.Failed > 0 {
		return 1
	}
	return 0
}

// workloadReport is one workload's measurements from one pass.
type workloadReport struct {
	workload   string
	timed      map[string]summary // end-to-end metrics: median of slices (of set-ups for setup_s) with quartiles
	layer      values             // nil unless a traced window ran
	attempted  int
	failed     int
	violations []string
	historyLen int
	historyErr error
}

// measureWorkload runs a timed window of length timed and, when traced is
// positive, a traced window of that length on a fresh deployment.
func measureWorkload(env *benchEnv, w workloadSpec, seed int64, timed, traced time.Duration, setups int, spansOut string) (workloadReport, error) {
	rep := workloadReport{workload: w.name}
	res, setupS, err := measure(env, w, seed, timed, false, setups)
	if err != nil {
		return rep, err
	}
	rep.attempted, rep.failed, rep.violations = res.attempted, res.failed, res.violations
	if rep.timed, err = timedValues(res, setupS); err != nil {
		return rep, fmt.Errorf("%s: %w", w.name, err)
	}
	if traced <= 0 {
		return rep, nil
	}
	tres, _, err := measure(env, w, seed, traced, true, 1)
	if err != nil {
		return rep, err
	}
	rep.attempted += tres.attempted
	rep.failed += tres.failed
	rep.violations = append(rep.violations, tres.violations...)
	rep.historyLen, rep.historyErr = tres.historyLen, tres.historyErr
	if rep.layer, err = tracedValues(tres, rep.timed["commits_per_s"].median); err != nil {
		return rep, fmt.Errorf("%s: %w", w.name, err)
	}
	if spansOut != "" {
		f, err := os.Create(spansOut)
		if err != nil {
			return rep, err
		}
		if err := errors.Join(writeSpans(f, tres.logs), f.Close()); err != nil {
			return rep, fmt.Errorf("spans-out: %w", err)
		}
	}
	return rep, nil
}

// print writes the workload's metrics by name with their units.
func (r workloadReport) print() {
	fmt.Printf("\n== %s\n", r.workload)
	for _, d := range endToEnd {
		s := r.timed[d.name]
		fmt.Printf("  %-38s %12.4f %-9s  (q1 %.4f, q3 %.4f, n=%d)\n", d.name, s.median, d.unit, s.q1, s.q3, s.n)
	}
	ratio := 0.0
	if r.attempted > 0 {
		ratio = float64(r.failed) / float64(r.attempted)
	}
	fmt.Printf("  %-38s %12.4f %-9s  (%d failed of %d attempted)\n", "failed_ratio", ratio, "ratio", r.failed, r.attempted)
	if r.layer != nil {
		verdict := "serializable"
		if r.historyErr != nil {
			verdict = fmt.Sprintf("NOT SERIALIZABLE: %.300s", r.historyErr.Error())
		}
		fmt.Printf("  -- traced window: history of %d transactions is %s\n", r.historyLen, verdict)
		for _, d := range perLayer() {
			if x, ok := r.layer[d.name]; ok {
				fmt.Printf("  %-38s %12.4f %s\n", d.name, x, d.unit)
			}
		}
	}
	for _, v := range r.violations {
		fmt.Printf("  VIOLATION: %s\n", v)
	}
}

// runAll is the full report: every workload timed and traced, the probes,
// and the reconciliation of layers against the end-to-end numbers; with
// repeat > 1, the medians and spreads over the passes.
func runAll(env *benchEnv, seed int64, window time.Duration, smoke bool, repeat int, spansOut string) int {
	header(env, seed)
	failed := false
	var passes [][]workloadReport
	var probePasses []values
	for pass := 0; pass < repeat; pass++ {
		if repeat > 1 {
			fmt.Printf("\n#### pass %d of %d\n", pass+1, repeat)
		}
		var reports []workloadReport
		for _, w := range workloads {
			timed, traced := w.window, tracedWindow
			if window > 0 {
				timed = window
			}
			if smoke {
				timed, traced = time.Second, time.Second
			}
			rep, err := measureWorkload(env, w, seed, timed, traced, setupsPerRun, spansOut)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
			rep.print()
			failed = failed || len(rep.violations) > 0 || rep.failed > 0
			reports = append(reports, rep)
		}
		scale := 1.0
		if smoke {
			scale = 0.01
		}
		probes := runProbes(scale)
		fmt.Printf("\n== probes\n")
		for _, d := range probeMetrics {
			fmt.Printf("  %-38s %12.4f %s\n", d.name, probes[d.name], d.unit)
		}
		reconcile(reports, probes)
		passes = append(passes, reports)
		probePasses = append(probePasses, probes)
	}
	if repeat > 1 {
		printRepeat(passes, probePasses)
	}
	if failed {
		fmt.Println("\nFAILED: a correctness gate tripped or a transaction failed; see VIOLATION lines above")
		return 1
	}
	return 0
}

// reconcile checks that the layers add up: on each TCP workload, the
// client's messages per commit times half a small round trip should sit
// beside the latency the wire adds over the in-process fabric.
func reconcile(reports []workloadReport, probes values) {
	by := make(map[string]workloadReport)
	for _, r := range reports {
		by[r.workload] = r
	}
	simP50 := by["sim-hotcold"].timed["txn_p50_ms"].median
	fmt.Printf("\n== reconciliation (messages/commit x transport.tcp_rtt_small_us/2, beside txn_p50_ms)\n")
	for _, r := range reports {
		if !strings.HasPrefix(r.workload, "tcp-") || r.layer == nil {
			continue
		}
		wire := r.layer["transport.messages_per_commit"] * probes["transport.tcp_rtt_small_us"] / 2 / 1000
		line := fmt.Sprintf("  %-16s %7.1f msgs/commit -> %8.2f ms on the wire; txn_p50_ms %8.2f", r.workload,
			r.layer["transport.messages_per_commit"], wire, r.timed["txn_p50_ms"].median)
		if r.workload == "tcp-hotcold" {
			line += fmt.Sprintf("; minus sim-hotcold %.2f ms = %.2f ms", simP50, r.timed["txn_p50_ms"].median-simP50)
		}
		fmt.Println(line)
	}
}

// printRepeat prints, per metric, the median, quartiles and relative
// spread over the passes; its output at -repeat 3 fixed the bounds in
// BENCHMARK.json.
func printRepeat(passes [][]workloadReport, probePasses []values) {
	fmt.Printf("\n#### over %d passes: median (q1, q3) spread=(q3-q1)/median\n", len(passes))
	line := func(name, unit string, xs []float64) {
		s := summarize(xs)
		fmt.Printf("  %-38s %12.4f %-9s (q1 %.4f, q3 %.4f) spread %.3f\n", name, s.median, unit, s.q1, s.q3, s.spread())
	}
	for wi, w := range workloads {
		fmt.Printf("\n== %s\n", w.name)
		for _, d := range endToEnd {
			var xs []float64
			for _, p := range passes {
				xs = append(xs, p[wi].timed[d.name].median)
			}
			line(d.name, d.unit, xs)
		}
		for _, d := range perLayer() {
			var xs []float64
			for _, p := range passes {
				if x, ok := p[wi].layer[d.name]; ok {
					xs = append(xs, x)
				}
			}
			if len(xs) > 0 {
				line(d.name, d.unit, xs)
			}
		}
	}
	fmt.Printf("\n== probes\n")
	for _, d := range probeMetrics {
		var xs []float64
		for _, p := range probePasses {
			xs = append(xs, p[d.name])
		}
		line(d.name, d.unit, xs)
	}
}
