// Command shorecli runs the paper's workloads against a remote shored
// server over real TCP: each application is a client-role peer executing
// workload transactions (reads, writes, commit; re-execute on abort)
// exactly as the in-process harness does, but with every protocol message
// crossing a socket.
//
// Usage:
//
//	shorecli -addr 127.0.0.1:7455                      # HOTCOLD, 2 apps, 50 txs each
//	shorecli -addr ... -workload hotspot -apps 4       # false-sharing workload
//	shorecli -addr ... -protocol ps -txs 200           # must match the server's protocol
//	shorecli -addr ... -name-prefix d                  # second process: distinct peer names
//	shorecli -addr a1,a2                               # 2-shard fleet (shored -shard 1/2, 2/2)
//
// A comma-separated -addr connects to a sharded fleet: address i is shard
// i (shored -shard i/N), named "srv<i>" and serving volume i with the
// i-th equal slice of -pages. Transactions spanning shards commit through
// cross-shard two-phase commit transparently.
//
// Exits nonzero if any application fails to commit its transaction quota
// or a connection-level transport error surfaced on any peer.
package main

import (
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"sync"
	"time"

	"adaptivecc/internal/consistency"
	"adaptivecc/internal/core"
	"adaptivecc/internal/obs"
	"adaptivecc/internal/obs/export"
	"adaptivecc/internal/placement"
	"adaptivecc/internal/shoreclient"
	"adaptivecc/internal/sim"
	"adaptivecc/internal/storage"
	"adaptivecc/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "shorecli:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("shorecli", flag.ContinueOnError)
	var (
		addr       = fs.String("addr", "", "shored server address, or comma-separated shard addresses in shard order (required)")
		srvName    = fs.String("server-name", "srv", "server peer name (single server only; must match shored -name)")
		commitHold = fs.Duration("commit-hold", 0, "pause every cross-shard commit this long between prepare and decide (crash-drill fault injection)")
		protoStr   = fs.String("protocol", "PS-AA", "consistency protocol (must match the server)")
		wlStr      = fs.String("workload", "hotcold", "workload kind (hotcold, uniform, hicon, private, hotspot)")
		highLoc    = fs.Bool("high-locality", false, "high page locality setting (30 pages, 8-16 objects per page)")
		writeProb  = fs.Float64("write-prob", 0.2, "per-object update probability")
		apps       = fs.Int("apps", 2, "concurrent application peers")
		txs        = fs.Int("txs", 50, "transactions to commit per application")
		namePrefix = fs.String("name-prefix", "c", "client peer name prefix (peer i is <prefix><i+1>; must be unique per process)")
		volume     = fs.Uint("volume", 1, "served volume ID (must match the server)")
		pages      = fs.Uint("pages", 1200, "database size in pages (must match the server)")
		objsPage   = fs.Int("objects-per-page", 20, "objects per page (must match the server)")
		pageSize   = fs.Int("page-size", 4096, "page size in bytes (must match the server)")
		numPaths   = fs.Int("num-paths", 3, "FIFO paths per peer pair (must match the server)")
		seed       = fs.Int64("seed", 1, "workload generator seed")
		rpcTimeout = fs.Duration("rpc-timeout", 500*time.Millisecond, "request attempt timeout")
		timeout    = fs.Duration("timeout", 5*time.Minute, "overall run deadline (0 = none)")
		obsOn      = fs.Bool("obs", false, "enable observability: latency histograms, trace rings, per-path TCP telemetry")
		metricsAt  = fs.String("metrics", "", "serve live introspection at this address (/metrics, /debug/vars, /debug/obs/snapshot); implies -obs")
		metricsOut = fs.String("metrics-addr-file", "", "write the bound introspection address to this file (for -metrics :0)")
		snapOut    = fs.String("snapshot-out", "", "write an obs snapshot (JSON, see internal/obs/export) to this file on exit; implies -obs")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *addr == "" {
		return fmt.Errorf("-addr is required")
	}
	if *rpcTimeout <= 0 {
		return fmt.Errorf("bad -rpc-timeout %v: must be positive (retry, dedup and callback timeouts all derive from it)", *rpcTimeout)
	}
	if *metricsAt != "" || *snapOut != "" {
		*obsOn = true
	}
	if *obsOn {
		// Namespace this process's span ids so a fleet collector can join
		// the causal trees that span shored and this process.
		obs.RandomizeSpanIDs()
	}
	proto, err := consistency.Parse(*protoStr)
	if err != nil {
		return err
	}
	kind, err := workload.ParseKind(*wlStr)
	if err != nil {
		return err
	}

	copts := shoreclient.Options{
		Addr:           *addr,
		ServerName:     *srvName,
		Protocol:       proto,
		Volume:         storage.VolumeID(*volume),
		DBPages:        uint32(*pages),
		ObjectsPerPage: *objsPage,
		PageSize:       *pageSize,
		NumPaths:       *numPaths,
		Seed:           *seed,
		RPCTimeout:     *rpcTimeout,
		Obs:            *obsOn,
		CommitHold:     *commitHold,
	}
	if addrs := strings.Split(*addr, ","); len(addrs) > 1 {
		// A fleet: address i is shard i (shored -shard i/N), serving volume
		// i with the i-th equal slice of the total page count.
		for i, a := range addrs {
			cnt, err := placement.EqualSlice(uint32(*pages), len(addrs), i)
			if err != nil {
				return fmt.Errorf("bad -addr: %w", err)
			}
			copts.Fleet = append(copts.Fleet, shoreclient.Endpoint{
				Name:   fmt.Sprintf("srv%d", i+1),
				Addr:   strings.TrimSpace(a),
				Volume: storage.VolumeID(i + 1),
				Pages:  cnt,
			})
		}
	}
	cli, err := shoreclient.Connect(copts)
	if err != nil {
		return err
	}
	closed := false
	closeCli := func() {
		if !closed {
			closed = true
			cli.Close()
		}
	}
	defer closeCli()
	process := "shorecli:" + *namePrefix

	if *metricsAt != "" {
		bound, err := export.Serve(*metricsAt, *metricsOut, cli.System().Obs(), process, nil, false)
		if err != nil {
			return err
		}
		fmt.Printf("shorecli: introspection at http://%s/metrics and /debug/obs/snapshot\n", bound)
	}

	peers := make([]*core.Peer, *apps)
	gens := make([]*workload.Generator, *apps)
	for i := range peers {
		p, err := cli.AddPeer(fmt.Sprintf("%s%d", *namePrefix, i+1))
		if err != nil {
			return err
		}
		peers[i] = p
		params, err := workload.Spec(kind, i, *apps, uint32(*pages), *highLoc, *writeProb, *objsPage)
		if err != nil {
			return err
		}
		if params.HotSlotPinned {
			params.HotSlot = uint16(i % *objsPage)
		}
		gens[i], err = workload.NewGenerator(params, *seed+int64(i)*101)
		if err != nil {
			return err
		}
	}

	fmt.Printf("shorecli: %s %s against %s: %d apps x %d txs\n",
		proto, kind, *addr, *apps, *txs)

	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, *apps)
	for i := range peers {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = runApp(cli.System(), peers[i], gens[i], *txs, int64(i))
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	if *timeout > 0 {
		select {
		case <-done:
		case <-time.After(*timeout):
			return fmt.Errorf("run exceeded %v deadline", *timeout)
		}
	} else {
		<-done
	}

	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("app %s%d: %w", *namePrefix, i+1, err)
		}
	}
	for _, p := range peers {
		if err := p.LastError(); err != nil {
			return fmt.Errorf("peer %s saw a transport error: %w", p.Name(), err)
		}
	}

	stats := cli.Stats()
	elapsed := time.Since(start)
	fmt.Printf("shorecli: %d commits, %d aborts, %d messages, %d retries, %d reconnects in %v\n",
		stats.Get(sim.CtrCommits), stats.Get(sim.CtrAborts), stats.Get(sim.CtrMessages),
		stats.Get(sim.CtrRetries), stats.Get(sim.CtrTCPReconnects), elapsed.Round(time.Millisecond))

	// Detach and drain before capturing, so the snapshot reflects the final
	// state: purge notices flushed, callback-round gauges at zero, counters
	// settled. The obs Set stays readable after the fabric is closed.
	closeCli()
	if *snapOut != "" {
		if err := writeSnapshot(*snapOut, cli, process); err != nil {
			return err
		}
		fmt.Printf("shorecli: wrote obs snapshot to %s\n", *snapOut)
	}
	return nil
}

// writeSnapshot captures the client system's observability state as a
// versioned JSON snapshot for the shorectl collector.
func writeSnapshot(path string, cli *shoreclient.Client, process string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("snapshot-out: %w", err)
	}
	if err := export.Write(f, export.Capture(cli.System().Obs(), process, nil)); err != nil {
		f.Close()
		return fmt.Errorf("snapshot-out: %w", err)
	}
	return f.Close()
}

// runApp commits n workload transactions on one peer, re-executing each
// reference string until it commits, as the in-process harness does.
func runApp(sys *core.System, p *core.Peer, gen *workload.Generator, n int, seed int64) error {
	dir := sys.Directory()
	rng := rand.New(rand.NewSource(seed*7 + 3))
	val := make([]byte, 8)
	var objs []storage.ItemID
	for done := 0; done < n; done++ {
		trans := gen.Next()
		// The directory is fixed for the run: a reference it cannot resolve
		// fails the same way on every attempt.
		objs = objs[:0]
		for _, ref := range trans.Refs {
			obj, err := dir.LookupObject(ref.Page, ref.Slot)
			if err != nil {
				return fmt.Errorf("transaction %d: %w", done, err)
			}
			objs = append(objs, obj)
		}
		var err error
		for attempt := 0; ; attempt++ {
			if attempt > 1000 {
				return fmt.Errorf("transaction %d still aborting after %d attempts: %w", done, attempt, err)
			}
			x := p.Begin()
			if err = execute(x, objs, trans, rng, val); err == nil {
				err = x.Commit()
			}
			if err == nil {
				break
			}
			_ = x.Abort()
			// A page with no owner, or sent to the wrong one, is a fleet
			// layout error: re-execution routes it the same way again.
			if errors.Is(err, placement.ErrUnplaced) || errors.Is(err, placement.ErrMisdirected) {
				return fmt.Errorf("transaction %d: %w", done, err)
			}
			// Randomized exponential backoff: page-grain protocols under a
			// false-sharing workload deadlock-abort repeatedly, and a flat
			// micro-sleep keeps the writers colliding forever.
			shift := attempt
			if shift > 6 {
				shift = 6
			}
			ceil := (1 << shift) * int(time.Millisecond)
			time.Sleep(time.Duration(rng.Intn(ceil) + int(100*time.Microsecond)))
		}
	}
	return nil
}

// execute runs one attempt of trans; objs[i] is the object of trans.Refs[i].
func execute(x *core.Tx, objs []storage.ItemID, trans workload.Transaction, rng *rand.Rand, val []byte) error {
	for i, ref := range trans.Refs {
		if _, err := x.Read(objs[i]); err != nil {
			return err
		}
		if ref.Write {
			rng.Read(val)
			if err := x.Write(objs[i], val); err != nil {
				return err
			}
		}
	}
	return nil
}
