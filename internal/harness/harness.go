// Package harness builds the paper's experimental platform (Table 1) in
// both the client-server and peer-servers configurations, runs the Table 2
// workloads against a chosen cache consistency protocol, and reports the
// throughput and operation counts behind Figures 6–15.
package harness

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"adaptivecc/internal/core"
	"adaptivecc/internal/obs"
	"adaptivecc/internal/obs/audit"
	"adaptivecc/internal/obs/critpath"
	"adaptivecc/internal/placement"
	"adaptivecc/internal/sim"
	"adaptivecc/internal/storage"
	"adaptivecc/internal/transport"
	"adaptivecc/internal/workload"
)

// Mode selects the system configuration (§5.1).
type Mode int

// The two configurations of the paper's study.
const (
	ClientServer Mode = iota + 1
	PeerServers
)

// String renders the mode name.
func (m Mode) String() string {
	switch m {
	case ClientServer:
		return "client-server"
	case PeerServers:
		return "peer-servers"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Platform mirrors Table 1 of the paper, plus the simulation scale.
type Platform struct {
	NumApplications int     // concurrent application programs
	DatabasePages   uint32  // database size in pages
	ObjectsPerPage  int     // objects per page
	PageSize        int     // bytes per page
	ClientBufFrac   float64 // per-client cache, fraction of DB
	ServerBufFrac   float64 // server cache, fraction of DB
	PeerBufFrac     float64 // peer server cache, fraction of DB
	NumPaths        int     // communication paths per peer pair
	TimeScale       float64 // sim cost scale (1.0 = paper milliseconds)
	Seed            int64
	// Observe enables the observability subsystem (latency histograms and
	// trace rings) on every built cluster. Off by default: figure outputs
	// stay bit-identical to the uninstrumented harness.
	Observe bool
	// CritPath additionally attributes each measurement window's commit
	// latency to protocol phases (lock wait, callback, network, disk, WAL)
	// from the causal span tree; the breakdown lands in Result.CritPath.
	// Implies Observe.
	CritPath bool
	// Audit attaches the online protocol-invariant auditor to every built
	// cluster and reports its verdict in Result.AuditViolations. Implies
	// Observe.
	Audit bool
	// Shards splits the client-server database across this many owner
	// servers ("srv1".."srvN", volume i at shard i), each holding an equal
	// contiguous slice of the pages and an equal share of the server
	// buffer. 0 or 1 keeps the single "srv" build — the exact pre-sharding
	// code path, so committed figure outputs stay bit-identical. Ignored
	// in peer-servers mode, which is already partitioned.
	Shards int
}

// observing reports whether any consumer needs the event pipeline on.
func (p Platform) observing() bool { return p.Observe || p.CritPath || p.Audit }

// DefaultPlatform returns the paper's Table 1 settings. The default
// TimeScale of 0.5 runs the model at twice paper speed.
func DefaultPlatform() Platform {
	return Platform{
		NumApplications: 10,
		DatabasePages:   11250,
		ObjectsPerPage:  20,
		PageSize:        4096,
		ClientBufFrac:   0.25,
		ServerBufFrac:   0.50,
		PeerBufFrac:     0.25,
		NumPaths:        3,
		TimeScale:       0.5,
		Seed:            1,
	}
}

// SmallPlatform returns a scaled-down platform for fast benchmarks and
// tests: same structure, 1/10 of the database, 4 applications.
func SmallPlatform() Platform {
	p := DefaultPlatform()
	p.NumApplications = 4
	p.DatabasePages = 1200
	return p
}

// Experiment describes one data point: a workload, a protocol, a mode, and
// a write probability.
type Experiment struct {
	Name         string
	Workload     workload.Kind
	HighLocality bool
	WriteProb    float64
	Protocol     core.Protocol
	Mode         Mode
	// Warmup and Measure are wall-clock windows (already at TimeScale).
	Warmup  time.Duration
	Measure time.Duration
	// PropagateSHPage enables the §4.3.1 ablation.
	PropagateSHPage bool
	// FixedTimeout (if nonzero) replaces the adaptive timeout heuristic.
	FixedTimeout time.Duration
	// Faults injects message faults for the whole run (nil = reliable
	// fabric; the figure numbers stay bit-identical).
	Faults *transport.FaultPlan
	// Scenario scripts runtime faults (crashes, partitions) relative to the
	// start of the measurement window.
	Scenario *workload.Scenario
}

// Result is one measured data point.
type Result struct {
	Experiment Experiment
	// Throughput is committed transactions per second of *paper time*
	// (wall-clock time divided by TimeScale).
	Throughput float64
	Commits    int64
	Aborts     int64
	Elapsed    time.Duration // wall clock of the measurement window
	// PerCommit operation rates.
	MessagesPerCommit  float64
	CallbacksPerCommit float64
	DiskIOPerCommit    float64
	// Raw counter deltas over the measurement window.
	Counters map[string]int64
	// Observed reports whether the latency percentiles below were measured
	// (Platform.Observe); when false they are zero and are not rendered.
	Observed    bool
	LockWaitP50 time.Duration
	LockWaitP99 time.Duration
	CallbackP50 time.Duration
	CallbackP99 time.Duration
	// CritPath is the commit critical-path breakdown of the measurement
	// window (nil unless Platform.CritPath).
	CritPath *critpath.Breakdown
	// Audited reports whether the invariant auditor ran (Platform.Audit);
	// AuditViolations is the violation count over this window and
	// AuditReport its rendered verdict.
	Audited         bool
	AuditViolations int64
	AuditReport     string
}

// cluster is a built system plus the application homes.
type cluster struct {
	sys   *core.System
	apps  []*core.Peer // apps[i] is where application i runs
	plat  Platform
	costs sim.CostTable
	aud   *audit.Auditor // nil unless Platform.Audit
}

// buildCluster wires volumes, directory, and peers for the experiment.
func buildCluster(exp Experiment, plat Platform) (*cluster, error) {
	costs := sim.DefaultCosts(plat.TimeScale)
	cfg := core.Config{
		Protocol:        exp.Protocol,
		Costs:           costs,
		ObjectsPerPage:  plat.ObjectsPerPage,
		ObjectSize:      plat.PageSize / plat.ObjectsPerPage,
		NumPaths:        plat.NumPaths,
		Seed:            plat.Seed,
		UseTimeouts:     true,
		FixedTimeout:    exp.FixedTimeout,
		PropagateSHPage: exp.PropagateSHPage,
		Obs:             obs.Config{Enabled: plat.observing()},
	}
	var aud *audit.Auditor
	if plat.Audit {
		aud = audit.New()
		cfg.Audit = aud
	}
	// The retry timeout tracks the simulation scale — 500ms at paper speed
	// — so a lost message costs the same *paper time* at any TimeScale.
	cfg.RPCTimeout = time.Duration(float64(500*time.Millisecond) * plat.TimeScale)
	if cfg.RPCTimeout < 10*time.Millisecond {
		cfg.RPCTimeout = 10 * time.Millisecond
	}
	dbPages := plat.DatabasePages
	clientPool := int(float64(dbPages) * plat.ClientBufFrac)
	newSystem := func() *core.System {
		sys := core.NewSystem(cfg)
		if exp.Faults != nil {
			sys.Net().InjectFaults(*exp.Faults)
		}
		return sys
	}

	switch exp.Mode {
	case ClientServer:
		shards := plat.Shards
		if shards < 1 {
			shards = 1
		}
		cfg.ClientPoolPages = clientPool
		cfg.ServerPoolPages = int(float64(dbPages) * plat.ServerBufFrac / float64(shards))
		sys := newSystem()
		for s := 1; s <= shards; s++ {
			cnt, err := placement.EqualSlice(dbPages, shards, s-1)
			if err != nil {
				sys.Close()
				return nil, err
			}
			vol := storage.NewVolume(storage.VolumeID(s), costs, sys.Stats())
			if _, err := vol.CreateFile(1, 0, cnt, plat.ObjectsPerPage, cfg.ObjectSize); err != nil {
				return nil, err
			}
			sys.Directory().AddExtent(storage.VolumeID(s), 1, 0, cnt)
			name := "srv"
			if shards > 1 {
				name = fmt.Sprintf("srv%d", s)
			}
			if _, err := sys.AddPeer(name, vol); err != nil {
				return nil, err
			}
		}
		c := &cluster{sys: sys, plat: plat, costs: costs, aud: aud}
		for i := 0; i < plat.NumApplications; i++ {
			p, err := sys.AddPeer(fmt.Sprintf("c%d", i+1))
			if err != nil {
				return nil, err
			}
			c.apps = append(c.apps, p)
		}
		return c, nil

	case PeerServers:
		// The peer buffer (25% of DB) is split between the server pool
		// (sized to hold the peer's whole partition, which is how the
		// paper explains the I/O savings) and the client pool.
		n := plat.NumApplications
		extents, err := partition(exp.Workload, dbPages, n)
		if err != nil {
			return nil, err
		}
		owned := make([]uint32, n)
		for _, e := range extents {
			owned[e.peer] += e.count
		}
		sys := newSystem()
		c := &cluster{sys: sys, plat: plat, costs: costs, aud: aud}

		vols := make([]*storage.Volume, n)
		nextPage := make([]uint32, n)
		for i := 0; i < n; i++ {
			vols[i] = storage.NewVolume(storage.VolumeID(i+1), costs, sys.Stats())
			if _, err := vols[i].CreateFile(1, 0, owned[i], plat.ObjectsPerPage, cfg.ObjectSize); err != nil {
				return nil, err
			}
		}
		for _, e := range extents {
			sys.Directory().AddExtent(storage.VolumeID(e.peer+1), 1, nextPage[e.peer], e.count)
			nextPage[e.peer] += e.count
		}
		peerBuf := int(float64(dbPages) * plat.PeerBufFrac)
		for i := 0; i < n; i++ {
			srvPool := int(owned[i])
			cliPool := peerBuf - srvPool
			if cliPool < 64 {
				cliPool = 64
			}
			p, err := sys.AddPeerWithPools(fmt.Sprintf("p%d", i+1), srvPool, cliPool, vols[i])
			if err != nil {
				return nil, err
			}
			c.apps = append(c.apps, p)
		}
		return c, nil
	default:
		return nil, fmt.Errorf("harness: unknown mode %v", exp.Mode)
	}
}

// extent assigns a run of global pages to a peer.
type extent struct {
	peer  int
	count uint32
}

// partition lays out the database across peers per §5.5: under HOTCOLD
// each peer owns the hot range of its local application plus an equal
// slice of the globally cold remainder; otherwise the database is split
// into equal contiguous slices.
func partition(kind workload.Kind, dbPages uint32, n int) ([]extent, error) {
	var out []extent
	rest := dbPages // the pages split into equal slices
	if kind == workload.HotCold {
		hotSize := dbPages / uint32(n*5) * 2
		if hotSize == 0 {
			hotSize = 1
		}
		for i := 0; i < n; i++ {
			out = append(out, extent{peer: i, count: hotSize})
		}
		rest -= hotSize * uint32(n)
	}
	for i := 0; i < n; i++ {
		cnt, err := placement.EqualSlice(rest, n, i)
		if err != nil {
			return nil, err
		}
		out = append(out, extent{peer: i, count: cnt})
	}
	return out, nil
}

// Run executes one experiment on a fresh cluster and returns its data
// point.
func Run(exp Experiment, plat Platform) (Result, error) {
	if plat.TimeScale <= 0 {
		return Result{}, fmt.Errorf("harness: TimeScale must be positive")
	}
	c, err := buildCluster(exp, plat)
	if err != nil {
		return Result{}, err
	}
	defer c.sys.Close()
	return runWindow(c, exp, plat)
}

// runWindow runs one experiment's warmup and measurement window on an
// existing cluster; caches carry over between calls, which is how figure
// sweeps reach the paper's steady state without a cold start per point.
func runWindow(c *cluster, exp Experiment, plat Platform) (Result, error) {
	if exp.Measure <= 0 {
		exp.Measure = 10 * time.Second
	}
	stats := c.sys.Stats()
	apps := make([]*app, len(c.apps))
	for i := range c.apps {
		params, err := workload.Spec(exp.Workload, i, len(c.apps), plat.DatabasePages, exp.HighLocality, exp.WriteProb, plat.ObjectsPerPage)
		if err != nil {
			return Result{}, err
		}
		gen, err := workload.NewGenerator(params, plat.Seed+int64(i)*7919)
		if err != nil {
			return Result{}, err
		}
		apps[i] = newApp(i, c.apps[i], c.sys, gen, c.costs)
	}

	for _, a := range apps {
		a.start()
	}

	time.Sleep(exp.Warmup)
	before := stats.Snapshot()
	var lockWaitBefore, cbBefore obs.HistSnapshot
	var evStart time.Duration
	var audBefore int64
	if set := c.sys.Obs(); set != nil {
		lockWaitBefore = set.Merged(obs.HistLockWait)
		cbBefore = set.Merged(obs.HistCallbackRound)
		evStart = set.Now() // paper-time start of the measurement window
	}
	if c.aud != nil {
		audBefore = c.aud.Total()
	}
	start := time.Now()

	stopScen := make(chan struct{})
	var scenDone chan struct{}
	if exp.Scenario != nil {
		scenDone = make(chan struct{})
		go runScenario(c, apps, exp.Scenario, stopScen, scenDone)
	}

	time.Sleep(exp.Measure)
	after := stats.Snapshot()
	elapsed := time.Since(start)

	close(stopScen)
	if scenDone != nil {
		<-scenDone
	}
	for _, a := range apps {
		a.stop()
	}

	// Health check: a peer that hit an asynchronous storage failure (e.g. a
	// failed dirty-page write-back) produced a run whose numbers cannot be
	// trusted. A peer the scenario crashed is exempt — it died on purpose.
	for _, p := range c.sys.Peers() {
		if c.sys.Net().Crashed(p.Name()) {
			continue
		}
		if err := p.LastError(); err != nil {
			return Result{}, fmt.Errorf("harness: peer %s failed during run: %w", p.Name(), err)
		}
	}

	deltas := make(map[string]int64, len(after))
	for k, v := range after {
		deltas[k] = v - before[k]
	}
	commits := deltas[sim.CtrCommits]
	paperSeconds := elapsed.Seconds() / plat.TimeScale
	res := Result{
		Experiment: exp,
		Commits:    commits,
		Aborts:     deltas[sim.CtrAborts],
		Elapsed:    elapsed,
		Counters:   deltas,
	}
	if paperSeconds > 0 {
		res.Throughput = float64(commits) / paperSeconds
	}
	if commits > 0 {
		res.MessagesPerCommit = float64(deltas[sim.CtrMessages]) / float64(commits)
		res.CallbacksPerCommit = float64(deltas[sim.CtrCallbacks]) / float64(commits)
		res.DiskIOPerCommit = float64(deltas[sim.CtrDiskReads]+deltas[sim.CtrDiskWrites]) / float64(commits)
	}
	if set := c.sys.Obs(); set != nil {
		lockWait := set.Merged(obs.HistLockWait)
		lockWait.Sub(lockWaitBefore)
		cb := set.Merged(obs.HistCallbackRound)
		cb.Sub(cbBefore)
		res.Observed = true
		res.LockWaitP50 = lockWait.Quantile(0.50)
		res.LockWaitP99 = lockWait.Quantile(0.99)
		res.CallbackP50 = cb.Quantile(0.50)
		res.CallbackP99 = cb.Quantile(0.99)
		if plat.CritPath {
			// Attribute only this window's spans: the trace ring spans the
			// cluster's whole life, so events before the window are cut.
			var window []obs.Event
			for _, ev := range set.TraceEvents() {
				if ev.At >= evStart {
					window = append(window, ev)
				}
			}
			res.CritPath = critpath.Analyze(window)
		}
	}
	if c.aud != nil {
		// An exact sweep at quiescence, then this window's violation delta
		// (the auditor's counters are monotonic across windows).
		c.aud.Check()
		res.Audited = true
		res.AuditViolations = c.aud.Total() - audBefore
		res.AuditReport = c.aud.Report()
	}
	return res, nil
}

// runScenario fires an experiment's scripted faults. Offsets are relative
// to the start of the measurement window. A crashed peer's application is
// stopped too: its program died with its machine.
func runScenario(c *cluster, apps []*app, sc *workload.Scenario, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	start := time.Now()
	for _, ev := range sc.Sorted() {
		if wait := ev.At - time.Since(start); wait > 0 {
			select {
			case <-stop:
				return
			case <-time.After(wait):
			}
		}
		select {
		case <-stop:
			return
		default:
		}
		switch ev.Kind {
		case workload.EventCrash:
			_ = c.sys.CrashPeer(ev.Peer)
			for _, a := range apps {
				if a.peer.Name() == ev.Peer {
					a.stop()
				}
			}
		case workload.EventPartition:
			c.sys.Net().PartitionLink(ev.From, ev.To)
		case workload.EventHeal:
			c.sys.Net().HealLink(ev.From, ev.To)
		}
	}
}

// app drives one application program: transactions generated from its
// workload, executed back to back, re-executed with the same reference
// string on abort (§5.1).
type app struct {
	idx   int
	peer  *core.Peer
	sys   *core.System
	gen   *workload.Generator
	costs sim.CostTable
	rng   *rand.Rand

	stopOnce sync.Once
	stopCh   chan struct{}
	done     chan struct{}
}

func newApp(idx int, peer *core.Peer, sys *core.System, gen *workload.Generator, costs sim.CostTable) *app {
	return &app{
		idx:    idx,
		peer:   peer,
		sys:    sys,
		gen:    gen,
		costs:  costs,
		rng:    rand.New(rand.NewSource(int64(idx)*31 + 17)),
		stopCh: make(chan struct{}),
		done:   make(chan struct{}),
	}
}

func (a *app) start() { go a.run() }

// stop is idempotent: the scenario driver stops a crashed peer's app, and
// the window end stops every app again.
func (a *app) stop() {
	a.stopOnce.Do(func() { close(a.stopCh) })
	<-a.done
}

func (a *app) stopped() bool {
	select {
	case <-a.stopCh:
		return true
	default:
		return false
	}
}

func (a *app) run() {
	defer close(a.done)
	val := make([]byte, 8)
	for !a.stopped() {
		trans := a.gen.Next()
		// Re-execute with the same reference string until committed.
		for !a.stopped() {
			x := a.peer.Begin()
			err := a.execute(x, trans, val)
			if err == nil {
				err = x.Commit()
				if err == nil {
					break
				}
			}
			_ = x.Abort()
			// Restart delay in the order of one object processing time,
			// randomized to break mutual-abort livelock.
			d := a.costs.Scaled(a.costs.PerObjProc)
			if d > 0 {
				time.Sleep(time.Duration(a.rng.Int63n(int64(d)*2 + 1)))
			}
		}
	}
}

func (a *app) execute(x *core.Tx, trans workload.Transaction, val []byte) error {
	dir := a.sys.Directory()
	cpu := a.peer.CPU()
	for _, ref := range trans.Refs {
		obj, err := dir.LookupObject(ref.Page, ref.Slot)
		if err != nil {
			return err
		}
		if _, err := x.Read(obj); err != nil {
			return err
		}
		cpu.Use(a.costs.PerObjProc)
		if ref.Write {
			a.rng.Read(val)
			if err := x.Write(obj, val); err != nil {
				return err
			}
			cpu.Use(a.costs.PerObjProc) // doubled when the object is updated
		}
	}
	return nil
}
