// Command shored is the standalone page server: one server-role peer
// serving a volume over the TCP transport fabric. shorecli (or any
// shoreclient-based program) connects to it and runs transactions against
// the served database; the consistency protocol, callbacks, 2PC, and WAL
// all run exactly as on the simulated fabric.
//
// Usage:
//
//	shored                                   # PS-AA, 1200 pages, 127.0.0.1:7455
//	shored -addr 127.0.0.1:0 -addr-file a    # ephemeral port, written to file a
//	shored -protocol ps -pages 4800          # protocol and database size
//	shored -metrics :8377                    # Prometheus /metrics + expvar
//	shored -shard 1/2 -pages 1200            # shard 1 of a 2-server fleet (pages 0-599)
//
// With -shard i/N the server is one shard of an N-server fleet: it serves
// volume i holding the i-th equal slice of the total page count, under the
// default name "srv<i>". Clients route each page to its owning shard and
// run cross-shard commits through two-phase commit; -peers gives this
// shard the other shards' addresses so it can resolve in-doubt prepared
// transactions by asking their coordinator directly.
//
// On SIGINT/SIGTERM the server shuts down gracefully: the fabric drains
// in-flight requests and queued frames, the WAL is forced so every
// acknowledged commit is stable, and a final counter summary is printed
// along with the count of prepared-but-undecided transactions (zero on a
// clean fleet shutdown).
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"adaptivecc/internal/consistency"
	"adaptivecc/internal/core"
	"adaptivecc/internal/obs"
	"adaptivecc/internal/obs/audit"
	"adaptivecc/internal/obs/critpath"
	"adaptivecc/internal/obs/export"
	"adaptivecc/internal/placement"
	"adaptivecc/internal/sim"
	"adaptivecc/internal/storage"
	"adaptivecc/internal/transport"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "shored:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("shored", flag.ContinueOnError)
	var (
		addr       = fs.String("addr", "127.0.0.1:7455", "TCP listen address (use :0 for an ephemeral port)")
		addrFile   = fs.String("addr-file", "", "write the bound listen address to this file (for -addr :0)")
		name       = fs.String("name", "", "server peer name (default \"srv\", or \"srv<i>\" with -shard; clients must use the same name)")
		shardSpec  = fs.String("shard", "", "serve shard i of an N-server fleet as \"i/N\": volume i, the i-th equal slice of -pages")
		peersSpec  = fs.String("peers", "", "other shards as comma-separated name=addr pairs (for cross-shard status queries)")
		protoStr   = fs.String("protocol", "PS-AA", "consistency protocol (PS, PS-OO, PS-OA, PS-AA, PS-AH, OS)")
		volume     = fs.Uint("volume", 1, "served volume ID")
		pages      = fs.Uint("pages", 1200, "database size in pages")
		objsPage   = fs.Int("objects-per-page", 20, "objects per page")
		pageSize   = fs.Int("page-size", 4096, "page size in bytes")
		serverPool = fs.Int("server-pool", 0, "server buffer pool in pages (default pages/2)")
		numPaths   = fs.Int("num-paths", 3, "independent FIFO paths per peer pair (clients must match)")
		seed       = fs.Int64("seed", 1, "path-selection seed")
		rpcTimeout = fs.Duration("rpc-timeout", 500*time.Millisecond, "request attempt timeout (retry/dedup recovers socket loss)")
		deadStalls = fs.Int("dead-client-stalls", 3, "consecutive silent callback-round stalls before a client is declared dead and its state reclaimed (0 disables)")
		obsOn      = fs.Bool("obs", false, "enable observability: latency histograms and trace rings")
		metricsAt  = fs.String("metrics", "", "serve live introspection at this address (/metrics Prometheus text, /debug/vars expvar, /debug/obs/snapshot, /debug/pprof); implies -obs")
		metricsOut = fs.String("metrics-addr-file", "", "write the bound introspection address to this file (for -metrics :0)")
		auditOn    = fs.Bool("audit", false, "attach the online consistency-invariant auditor; implies -obs")
		traceOut   = fs.String("traceout", "", "write a Chrome trace-event JSON file on shutdown (open in Perfetto); implies -obs")
		cpOut      = fs.String("critpath", "", "write the commit critical-path breakdown on shutdown; implies -obs")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *rpcTimeout <= 0 {
		return fmt.Errorf("bad -rpc-timeout %v: must be positive (retry, dedup and callback timeouts all derive from it)", *rpcTimeout)
	}
	proto, err := consistency.Parse(*protoStr)
	if err != nil {
		return err
	}

	// -shard i/N: this process serves volume i holding the i-th equal
	// slice of the fleet's total page count (remainder pages land on the
	// last shard, matching the client's split of the same -pages value).
	shardIdx, shardN := 0, 0
	servedPages := uint32(*pages)
	if *shardSpec != "" {
		if _, err := fmt.Sscanf(*shardSpec, "%d/%d", &shardIdx, &shardN); err != nil || shardIdx < 1 || shardN < 1 || shardIdx > shardN {
			return fmt.Errorf("bad -shard %q: want i/N with 1 <= i <= N", *shardSpec)
		}
		if servedPages, err = placement.EqualSlice(uint32(*pages), shardN, shardIdx-1); err != nil {
			return fmt.Errorf("bad -shard %s: %w", *shardSpec, err)
		}
		*volume = uint(shardIdx)
		if *name == "" {
			*name = fmt.Sprintf("srv%d", shardIdx)
		}
	}
	if *name == "" {
		*name = "srv"
	}
	remotes := map[string]string{}
	if *peersSpec != "" {
		for _, pair := range strings.Split(*peersSpec, ",") {
			pair = strings.TrimSpace(pair)
			if pair == "" {
				continue
			}
			k, v, ok := strings.Cut(pair, "=")
			if !ok || k == "" || v == "" {
				return fmt.Errorf("bad -peers entry %q: want name=addr", pair)
			}
			remotes[k] = v
		}
	}
	if *metricsAt != "" || *traceOut != "" || *cpOut != "" || *auditOn {
		*obsOn = true
	}
	if *obsOn {
		// Span ids ride protocol messages to other processes; namespace
		// this process's allocator so a fleet collector can join
		// cross-process parent/child spans without collisions.
		obs.RandomizeSpanIDs()
	}

	costs := sim.DefaultCosts(0) // real wire: no simulated latency on top
	pool := *serverPool
	if pool == 0 {
		pool = int(servedPages) / 2
	}
	cfg := core.Config{
		Protocol:         proto,
		Costs:            costs,
		ObjectsPerPage:   *objsPage,
		ObjectSize:       *pageSize / *objsPage,
		ServerPoolPages:  pool,
		ClientPoolPages:  64, // server-role only; no local applications
		NumPaths:         *numPaths,
		Seed:             *seed,
		UseTimeouts:      true,
		FixedTimeout:     5 * time.Second,
		RPCTimeout:       *rpcTimeout,
		DeadClientStalls: *deadStalls,
		Obs:              obs.Config{Enabled: *obsOn},
		Transport:        transport.TCPFactory(transport.TCPOptions{ListenAddr: *addr, Remotes: remotes}),
	}
	var auditor *audit.Auditor
	if *auditOn {
		auditor = audit.New()
		cfg.Audit = auditor
	}
	sys, err := core.NewSystemFabric(cfg)
	if err != nil {
		return err
	}

	vol := storage.NewVolume(storage.VolumeID(*volume), costs, sys.Stats())
	if _, err := vol.CreateFile(1, 0, servedPages, *objsPage, cfg.ObjectSize); err != nil {
		return err
	}
	sys.Directory().AddExtent(storage.VolumeID(*volume), 1, 0, servedPages)
	srv, err := sys.AddPeer(*name, vol)
	if err != nil {
		return err
	}

	bound := sys.Net().(*transport.TCP).Addr()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound), 0o644); err != nil {
			return fmt.Errorf("addr-file: %w", err)
		}
	}
	if shardN > 0 {
		fmt.Printf("shored: %s serving shard %d/%d (volume %d, %d of %d pages, %d objs/page) on %s as %q\n",
			proto, shardIdx, shardN, *volume, servedPages, *pages, *objsPage, bound, *name)
	} else {
		fmt.Printf("shored: %s serving volume %d (%d pages, %d objs/page) on %s as %q\n",
			proto, *volume, *pages, *objsPage, bound, *name)
	}

	if *metricsAt != "" {
		bound, err := export.Serve(*metricsAt, *metricsOut, sys.Obs(), "shored:"+*name, auditor, true)
		if err != nil {
			return err
		}
		fmt.Printf("shored: introspection at http://%s/metrics, /debug/vars, /debug/obs/snapshot, /debug/pprof\n", bound)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	s := <-sig
	fmt.Printf("shored: %v — draining in-flight work\n", s)

	// Graceful shutdown: Close drains in-flight handler invocations and
	// flushes queued frames onto live sockets; the WAL force then makes
	// every acknowledged commit stable before the process exits.
	sys.Close()
	srv.ForceWAL()
	// The in-doubt residue: prepared cross-shard transactions whose
	// decide/finish never arrived. Zero on a clean fleet shutdown; the e2e
	// harness greps this line.
	fmt.Printf("shored: prepared-undecided transactions: %d\n", srv.PreparedUndecided())
	if auditor != nil {
		auditor.Sweep() // quiesced: the confirmation passes are exact
		if auditor.Total() > 0 {
			fmt.Print(auditor.Report())
		}
	}
	if set := sys.Obs(); set != nil {
		if *traceOut != "" {
			if err := writeTrace(*traceOut, set); err != nil {
				return err
			}
		}
		if *cpOut != "" {
			bd := critpath.Analyze(set.TraceEvents())
			if err := os.WriteFile(*cpOut, []byte(bd.Table()), 0o644); err != nil {
				return fmt.Errorf("critpath: %w", err)
			}
		}
	}
	printSummary(sys.Stats())
	return nil
}

// writeTrace dumps the trace ring as Chrome trace-event JSON.
func writeTrace(path string, set *obs.Set) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("traceout: %w", err)
	}
	if err := obs.WriteChromeTrace(f, set.TraceEvents()); err != nil {
		f.Close()
		return fmt.Errorf("traceout: %w", err)
	}
	return f.Close()
}

// printSummary renders the nonzero counters, sorted, as the shutdown
// report.
func printSummary(stats *sim.Stats) {
	snap := stats.Snapshot()
	keys := make([]string, 0, len(snap))
	for k, v := range snap {
		if v != 0 {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	fmt.Println("shored: final counters:")
	for _, k := range keys {
		fmt.Printf("  %-24s %d\n", k, snap[k])
	}
}
