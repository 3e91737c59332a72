// Command shoreload runs a single ad-hoc workload against a chosen
// protocol and configuration, printing throughput, abort rate, per-commit
// operation counts, and the full counter set. It is the knob-turning tool
// for exploring the system outside the fixed figure definitions.
//
// Usage:
//
//	shoreload -proto PS-AA -workload HOTCOLD -write 0.2 -mode cs
//	shoreload -proto PS -workload UNIFORM -write 0.1 -mode peers -high
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"adaptivecc/internal/consistency"
	"adaptivecc/internal/harness"
	"adaptivecc/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "shoreload:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("shoreload", flag.ContinueOnError)
	var (
		protoStr = fs.String("proto", "PS-AA", "protocol: PS, PS-OO, PS-OA, PS-AA, PS-AH, OS")
		wkStr    = fs.String("workload", "HOTCOLD", "workload: HOTCOLD, UNIFORM, HICON, PRIVATE, HOTSPOT")
		modeStr  = fs.String("mode", "cs", "configuration: cs (client-server) or peers")
		write    = fs.Float64("write", 0.2, "per-object write probability")
		high     = fs.Bool("high", false, "high page locality (transSize 30, 8-16 objects/page)")
		small    = fs.Bool("small", false, "scaled-down platform")
		scale    = fs.Float64("scale", 0, "time scale override")
		warmup   = fs.Duration("warmup", 2*time.Second, "warmup window")
		measure  = fs.Duration("measure", 8*time.Second, "measurement window")
		counters = fs.Bool("counters", false, "dump all counter deltas")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	proto, err := consistency.Parse(*protoStr)
	if err != nil {
		return err
	}
	kind, err := workload.ParseKind(*wkStr)
	if err != nil {
		return err
	}
	mode := harness.ClientServer
	if strings.HasPrefix(strings.ToLower(*modeStr), "peer") {
		mode = harness.PeerServers
	}

	plat := harness.DefaultPlatform()
	if *small {
		plat = harness.SmallPlatform()
	}
	if *scale > 0 {
		plat.TimeScale = *scale
	}

	exp := harness.Experiment{
		Name:         "shoreload",
		Workload:     kind,
		HighLocality: *high,
		WriteProb:    *write,
		Protocol:     proto,
		Mode:         mode,
		Warmup:       *warmup,
		Measure:      *measure,
	}
	res, err := harness.Run(exp, plat)
	if err != nil {
		return err
	}

	fmt.Printf("%s %s write=%.2f locality=%s mode=%s\n",
		proto, kind, *write, locality(*high), mode)
	fmt.Printf("  throughput      %8.2f tx/s (paper time)\n", res.Throughput)
	fmt.Printf("  commits/aborts  %8d / %d\n", res.Commits, res.Aborts)
	fmt.Printf("  msgs/commit     %8.1f\n", res.MessagesPerCommit)
	fmt.Printf("  callbacks/commit%8.2f\n", res.CallbacksPerCommit)
	fmt.Printf("  disk IO/commit  %8.1f\n", res.DiskIOPerCommit)
	if *counters {
		fmt.Println("  counters:")
		for _, name := range harness.SortedCounterNames(res) {
			if res.Counters[name] != 0 {
				fmt.Printf("    %-22s %d\n", name, res.Counters[name])
			}
		}
	}
	return nil
}

func locality(high bool) string {
	if high {
		return "high(30x8-16)"
	}
	return "low(90x1-7)"
}
