// Command shorebench regenerates the paper's evaluation figures (6–15,
// plus the post-paper figure 16): for each figure it sweeps the write
// probability for every protocol the paper plots and prints the
// throughput series, plus the configuration tables (Table 1 and Table 2).
//
// Usage:
//
//	shorebench -list-config              # print Tables 1 and 2
//	shorebench -fig 6                    # reproduce one figure
//	shorebench -all                      # reproduce all figures
//	shorebench -fig 6 -scale 0.25 -measure 20s -small
//	shorebench -fig 6 -protocol psah     # restrict the sweep to one protocol
//	shorebench -fig 6 -obs               # add latency percentile tables
//	shorebench -fig 6 -critpath          # commit critical-path breakdown
//	shorebench -fig 6 -audit             # online protocol-invariant auditor
//	shorebench -fig 6 -traceout t.json   # write a Chrome/Perfetto trace
//	shorebench -all -metrics :8377       # live expvar + Prometheus surface
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"adaptivecc/internal/consistency"
	"adaptivecc/internal/core"
	"adaptivecc/internal/harness"
	"adaptivecc/internal/obs"
	"adaptivecc/internal/obs/export"
	"adaptivecc/internal/transport"
)

// parseProtocols parses a comma-separated protocol list ("psah,ps-aa").
func parseProtocols(s string) ([]core.Protocol, error) {
	var out []core.Protocol
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		p, err := consistency.Parse(part)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty -protocol list")
	}
	return out, nil
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "shorebench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("shorebench", flag.ContinueOnError)
	var (
		listConfig = fs.Bool("list-config", false, "print Table 1 and Table 2 and exit")
		figNum     = fs.Int("fig", 0, "figure number to reproduce (6-16)")
		protoStr   = fs.String("protocol", "", "restrict figures to these protocols (comma-separated, e.g. psah,ps-aa)")
		all        = fs.Bool("all", false, "reproduce all figures")
		small      = fs.Bool("small", false, "use the scaled-down platform (faster, 1200 pages, 4 apps)")
		scale      = fs.Float64("scale", 0, "time scale override (1.0 = paper milliseconds)")
		warmup     = fs.Duration("warmup", 2*time.Second, "warmup per data point (wall clock)")
		measure    = fs.Duration("measure", 8*time.Second, "measurement window per data point (wall clock)")
		quiet      = fs.Bool("quiet", false, "suppress per-point progress")
		dropRate   = fs.Float64("droprate", 0, "message drop probability (0 = reliable fabric, the paper's setting)")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = fs.String("memprofile", "", "write a heap profile to this file on exit")
		obsOn      = fs.Bool("obs", false, "enable observability: latency histograms and percentile tables")
		critPath   = fs.Bool("critpath", false, "attribute each point's commit latency to protocol phases (implies -obs)")
		auditOn    = fs.Bool("audit", false, "run the online protocol-invariant auditor; exit nonzero on violations (implies -obs)")
		metricsAt  = fs.String("metrics", "", "serve live metrics at this address (/metrics Prometheus text, /debug/vars expvar); implies -obs")
		traceOut   = fs.String("traceout", "", "write a Chrome trace-event JSON file of the run (open in Perfetto); implies -obs")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
		defer func() {
			runtime.GC() // flush dead objects so the profile shows live heap
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "shorebench: memprofile:", err)
			}
			f.Close()
		}()
	}

	plat := harness.DefaultPlatform()
	if *small {
		plat = harness.SmallPlatform()
	}
	if *scale > 0 {
		plat.TimeScale = *scale
	}
	if *metricsAt != "" || *traceOut != "" {
		*obsOn = true
	}
	plat.Observe = *obsOn
	plat.CritPath = *critPath
	plat.Audit = *auditOn

	if *metricsAt != "" {
		bound, err := export.Serve(*metricsAt, "", nil, "shorebench", nil, false)
		if err != nil {
			return err
		}
		fmt.Printf("metrics at http://%s/metrics (Prometheus) and /debug/vars (expvar)\n", bound)
	}

	if *listConfig {
		fmt.Print(harness.RenderTable1(plat))
		fmt.Println()
		fmt.Print(harness.RenderTable2(plat))
		return nil
	}

	var figs []harness.Figure
	switch {
	case *all:
		figs = harness.Figures()
	case *figNum != 0:
		f, ok := harness.FigureByNumber(*figNum)
		if !ok {
			return fmt.Errorf("no figure %d (valid: 6-16)", *figNum)
		}
		figs = []harness.Figure{f}
	default:
		fs.Usage()
		return fmt.Errorf("one of -list-config, -fig, or -all is required")
	}

	if *protoStr != "" {
		want, err := parseProtocols(*protoStr)
		if err != nil {
			return err
		}
		for i := range figs {
			var kept []core.Protocol
			for _, p := range figs[i].Protocols {
				for _, w := range want {
					if p == w {
						kept = append(kept, p)
						break
					}
				}
			}
			if len(kept) == 0 {
				// The figure does not normally plot the requested protocols;
				// run them anyway so any figure can be probed under any
				// protocol (e.g. -fig 6 -protocol psah before PS-AH was
				// added to the figure's default set).
				kept = want
			}
			figs[i].Protocols = kept
		}
	}

	progress := func(line string) { fmt.Println("  " + line) }
	if *quiet {
		progress = nil
	}
	var trace []obs.Event
	var auditViolations int64
	for _, fig := range figs {
		if *dropRate > 0 {
			fig.Faults = &transport.FaultPlan{Seed: plat.Seed, DropProb: *dropRate}
			fmt.Printf("== Figure %d: %s [%s] (%.2g%% message loss)\n",
				fig.Number, fig.Title, fig.Mode, *dropRate*100)
		} else {
			fmt.Printf("== Figure %d: %s [%s]\n", fig.Number, fig.Title, fig.Mode)
		}
		res, err := harness.RunFigure(fig, plat, *warmup, *measure, progress)
		if err != nil {
			return err
		}
		fmt.Println()
		fmt.Print(res.Render())
		fmt.Printf("expected shape: %s\n\n", fig.Expectation)
		for _, s := range res.Series {
			for _, p := range s.Points {
				auditViolations += p.AuditViolations
			}
		}
		if *traceOut != "" {
			for _, ev := range res.Trace {
				ev.Site = fmt.Sprintf("fig%d/%s", fig.Number, ev.Site)
				trace = append(trace, ev)
			}
		}
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return fmt.Errorf("traceout: %w", err)
		}
		if err := obs.WriteChromeTrace(f, trace); err != nil {
			f.Close()
			return fmt.Errorf("traceout: %w", err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("traceout: %w", err)
		}
		fmt.Printf("wrote %d trace events to %s (open in https://ui.perfetto.dev)\n", len(trace), *traceOut)
	}
	if *auditOn {
		if auditViolations > 0 {
			return fmt.Errorf("invariant audit: %d violations (see reports above)", auditViolations)
		}
		fmt.Println("invariant audit: clean")
	}
	return nil
}
