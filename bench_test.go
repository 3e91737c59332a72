// Benchmarks regenerating the paper's tables and figures. One benchmark
// per table/figure, named after the experiment index in DESIGN.md. Each
// figure benchmark sweeps the write probability for the protocols the
// paper plots and reports throughput (committed transactions per second of
// paper time) as custom metrics; run with -v to see the rendered series.
//
// The benchmarks use the scaled-down platform so the whole suite finishes
// in minutes; cmd/shorebench reproduces the figures at full Table 1 scale.
package adaptivecc_test

import (
	"fmt"
	"testing"
	"time"

	"adaptivecc/internal/core"
	"adaptivecc/internal/harness"
	"adaptivecc/internal/lock"
	"adaptivecc/internal/sim"
	"adaptivecc/internal/storage"
	"adaptivecc/internal/workload"
)

// benchPlatform is the reduced platform used by the figure benchmarks.
func benchPlatform() harness.Platform {
	p := harness.SmallPlatform()
	p.TimeScale = 0.05 // 20x paper speed
	return p
}

// benchSweep trims the write-probability axis for benchmark time.
var benchSweep = []float64{0.02, 0.2, 0.5}

func benchmarkFigure(b *testing.B, num int) {
	fig, ok := harness.FigureByNumber(num)
	if !ok {
		b.Fatalf("no figure %d", num)
	}
	fig.WriteProbs = benchSweep
	plat := benchPlatform()
	for i := 0; i < b.N; i++ {
		res, err := harness.RunFigure(fig, plat, 300*time.Millisecond, 1500*time.Millisecond, nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.Log("\n" + res.Render())
			for _, s := range res.Series {
				for j, pt := range s.Points {
					name := fmt.Sprintf("tps:%s:w%.2f", s.Protocol, fig.WriteProbs[j])
					b.ReportMetric(pt.Throughput, name)
				}
			}
		}
	}
}

func BenchmarkTable1PlatformConfig(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out := harness.RenderTable1(harness.DefaultPlatform())
		if len(out) == 0 {
			b.Fatal("empty table")
		}
	}
	b.Log("\n" + harness.RenderTable1(harness.DefaultPlatform()))
}

func BenchmarkTable2WorkloadConfig(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out := harness.RenderTable2(harness.DefaultPlatform())
		if len(out) == 0 {
			b.Fatal("empty table")
		}
	}
	b.Log("\n" + harness.RenderTable2(harness.DefaultPlatform()))
}

func BenchmarkFig06HotColdCSLowLocality(b *testing.B) { benchmarkFigure(b, 6) }

// BenchmarkFig06Observed reruns Figure 6 with the observability subsystem
// on, reporting lock-wait and callback-round latency percentiles (in paper
// milliseconds) alongside throughput.
func BenchmarkFig06Observed(b *testing.B) {
	fig, ok := harness.FigureByNumber(6)
	if !ok {
		b.Fatal("no figure 6")
	}
	fig.WriteProbs = []float64{0.2}
	plat := benchPlatform()
	plat.Observe = true
	for i := 0; i < b.N; i++ {
		res, err := harness.RunFigure(fig, plat, 300*time.Millisecond, 1500*time.Millisecond, nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.Log("\n" + res.Render())
			ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
			for _, s := range res.Series {
				for _, pt := range s.Points {
					if !pt.Observed {
						b.Fatal("Platform.Observe set but point not observed")
					}
					b.ReportMetric(ms(pt.LockWaitP50), fmt.Sprintf("p50-lockwait-ms:%s", s.Protocol))
					b.ReportMetric(ms(pt.LockWaitP99), fmt.Sprintf("p99-lockwait-ms:%s", s.Protocol))
					b.ReportMetric(ms(pt.CallbackP50), fmt.Sprintf("p50-callback-ms:%s", s.Protocol))
					b.ReportMetric(ms(pt.CallbackP99), fmt.Sprintf("p99-callback-ms:%s", s.Protocol))
				}
			}
		}
	}
}
func BenchmarkFig07HotColdCSHighLocality(b *testing.B)   { benchmarkFigure(b, 7) }
func BenchmarkFig08UniformCSLowLocality(b *testing.B)    { benchmarkFigure(b, 8) }
func BenchmarkFig09UniformCSHighLocality(b *testing.B)   { benchmarkFigure(b, 9) }
func BenchmarkFig10HiconCSLowLocality(b *testing.B)      { benchmarkFigure(b, 10) }
func BenchmarkFig11HiconCSHighLocality(b *testing.B)     { benchmarkFigure(b, 11) }
func BenchmarkFig12HotColdPeersLowLocality(b *testing.B) { benchmarkFigure(b, 12) }
func BenchmarkFig13HotColdPeersHighLocality(b *testing.B) {
	benchmarkFigure(b, 13)
}
func BenchmarkFig14UniformPeersLowLocality(b *testing.B) { benchmarkFigure(b, 14) }
func BenchmarkFig15UniformPeersHighLocality(b *testing.B) {
	benchmarkFigure(b, 15)
}

// --- Ablation benchmarks for the design choices called out in DESIGN.md ---

// BenchmarkAblationAdaptiveLocking isolates what the adaptive bit buys:
// PS-OA (adaptive callbacks only) vs PS-AA on a write-heavy HOTCOLD point,
// reporting write-lock messages per commit.
func BenchmarkAblationAdaptiveLocking(b *testing.B) {
	plat := benchPlatform()
	for i := 0; i < b.N; i++ {
		for _, proto := range []core.Protocol{core.PSOA, core.PSAA} {
			res, err := harness.Run(harness.Experiment{
				Workload: workload.HotCold, WriteProb: 0.35, Protocol: proto,
				Mode: harness.ClientServer, Warmup: 300 * time.Millisecond, Measure: 1500 * time.Millisecond,
			}, plat)
			if err != nil {
				b.Fatal(err)
			}
			if i == b.N-1 {
				perCommit := 0.0
				if res.Commits > 0 {
					perCommit = float64(res.Counters[sim.CtrWriteRequests]) / float64(res.Commits)
				}
				b.ReportMetric(perCommit, fmt.Sprintf("writereqs/commit:%s", proto))
				b.ReportMetric(res.Throughput, fmt.Sprintf("tps:%s", proto))
			}
		}
	}
}

// BenchmarkAblationAdaptiveCallbacks isolates whole-page-first callbacks:
// PS-OO vs PS-OA.
func BenchmarkAblationAdaptiveCallbacks(b *testing.B) {
	plat := benchPlatform()
	for i := 0; i < b.N; i++ {
		for _, proto := range []core.Protocol{core.PSOO, core.PSOA} {
			res, err := harness.Run(harness.Experiment{
				Workload: workload.HotCold, WriteProb: 0.2, Protocol: proto,
				Mode: harness.ClientServer, Warmup: 300 * time.Millisecond, Measure: 1500 * time.Millisecond,
			}, plat)
			if err != nil {
				b.Fatal(err)
			}
			if i == b.N-1 {
				b.ReportMetric(res.Throughput, fmt.Sprintf("tps:%s", proto))
				b.ReportMetric(res.CallbacksPerCommit, fmt.Sprintf("callbacks/commit:%s", proto))
			}
		}
	}
}

// BenchmarkAblationFixedVsAdaptiveTimeout compares the paper's adaptive
// lock-wait timeout heuristic against a fixed interval in the
// high-contention peer-servers configuration.
func BenchmarkAblationFixedVsAdaptiveTimeout(b *testing.B) {
	plat := benchPlatform()
	for i := 0; i < b.N; i++ {
		for _, fixed := range []time.Duration{0, 500 * time.Millisecond} {
			name := "adaptive"
			if fixed != 0 {
				name = "fixed"
			}
			res, err := harness.Run(harness.Experiment{
				Workload: workload.Uniform, WriteProb: 0.2, Protocol: core.PSAA,
				Mode: harness.PeerServers, Warmup: 300 * time.Millisecond, Measure: 1500 * time.Millisecond,
				FixedTimeout: fixed,
			}, plat)
			if err != nil {
				b.Fatal(err)
			}
			if i == b.N-1 {
				b.ReportMetric(res.Throughput, "tps:"+name)
				b.ReportMetric(float64(res.Counters[sim.CtrTimeoutAborts]), "timeouts:"+name)
			}
		}
	}
}

// BenchmarkAblationSHPagePropagation compares the hierarchical-callbacks
// optimization (§4.3.2 local-only SH page locks) against always
// propagating them (§4.3.1), counting messages per commit.
func BenchmarkAblationSHPagePropagation(b *testing.B) {
	plat := benchPlatform()
	for i := 0; i < b.N; i++ {
		for _, propagate := range []bool{false, true} {
			name := "local-SH"
			if propagate {
				name = "propagate-SH"
			}
			res, err := harness.Run(harness.Experiment{
				Workload: workload.HotCold, WriteProb: 0.1, Protocol: core.PSAA,
				Mode: harness.ClientServer, Warmup: 300 * time.Millisecond, Measure: 1200 * time.Millisecond,
				PropagateSHPage: propagate,
			}, plat)
			if err != nil {
				b.Fatal(err)
			}
			if i == b.N-1 {
				b.ReportMetric(res.MessagesPerCommit, "msgs/commit:"+name)
			}
		}
	}
}

// --- Substrate micro-benchmarks ---

func BenchmarkLockManagerAcquireRelease(b *testing.B) {
	b.ReportAllocs()
	m := lock.NewManager(nil, nil)
	txid := lock.TxID{Site: "bench", Seq: 1}
	obj := storage.ObjectItem(1, 1, 1, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Lock(txid, obj, lock.EX, lock.Options{}); err != nil {
			b.Fatal(err)
		}
		m.ReleaseAll(txid)
	}
}

func BenchmarkLockManagerHierarchicalScan(b *testing.B) {
	b.ReportAllocs()
	m := lock.NewManager(nil, nil)
	for s := uint16(0); s < 20; s++ {
		txid := lock.TxID{Site: "bench", Seq: uint64(s + 1)}
		if err := m.Lock(txid, storage.ObjectItem(1, 1, 1, s), lock.SH, lock.Options{}); err != nil {
			b.Fatal(err)
		}
	}
	page := storage.PageItem(1, 1, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := m.LocksWithin(page); len(got) == 0 {
			b.Fatal("no locks found")
		}
	}
}

func BenchmarkEndToEndCachedRead(b *testing.B) {
	b.ReportAllocs()
	cl, err := newBenchCluster(core.PSAA)
	if err != nil {
		b.Fatal(err)
	}
	defer cl.sys.Close()
	warm := cl.client.Begin()
	obj := storage.ObjectItem(1, 1, 0, 0)
	if _, err := warm.Read(obj); err != nil {
		b.Fatal(err)
	}
	if err := warm.Commit(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := cl.client.Begin()
		if _, err := tx.Read(obj); err != nil {
			b.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEndToEndWriteCommit(b *testing.B) {
	b.ReportAllocs()
	cl, err := newBenchCluster(core.PSAA)
	if err != nil {
		b.Fatal(err)
	}
	defer cl.sys.Close()
	obj := storage.ObjectItem(1, 1, 0, 0)
	val := []byte("benchvalue")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := cl.client.Begin()
		if err := tx.Write(obj, val); err != nil {
			b.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

type benchCluster struct {
	sys    *core.System
	client *core.Peer
}

func newBenchCluster(proto core.Protocol) (*benchCluster, error) {
	cfg := core.Config{
		Protocol: proto,
		Costs:    sim.DefaultCosts(0),
	}
	sys := core.NewSystem(cfg)
	vol := storage.NewVolume(1, cfg.Costs, sys.Stats())
	if _, err := vol.CreateFile(1, 0, 64, 20, 64); err != nil {
		return nil, err
	}
	sys.Directory().AddExtent(1, 1, 0, 64)
	if _, err := sys.AddPeer("srv", vol); err != nil {
		return nil, err
	}
	client, err := sys.AddPeer("c1")
	if err != nil {
		return nil, err
	}
	return &benchCluster{sys: sys, client: client}, nil
}

// BenchmarkBonusObjectServerPoorClustering recreates the §2 observation
// that the pure object server can beat PS-AA when related objects are
// poorly clustered: transactions touch one object per page, so page-grain
// transfers ship nineteen useless objects that crowd out the client cache.
func BenchmarkBonusObjectServerPoorClustering(b *testing.B) {
	plat := benchPlatform()
	plat.ClientBufFrac = 0.05 // small client caches make the waste visible
	for i := 0; i < b.N; i++ {
		for _, proto := range []core.Protocol{core.PSAA, core.OS} {
			res, err := harness.Run(harness.Experiment{
				Workload: workload.Uniform, WriteProb: 0.05, Protocol: proto,
				Mode: harness.ClientServer, Warmup: 300 * time.Millisecond, Measure: 1500 * time.Millisecond,
			}, plat)
			if err != nil {
				b.Fatal(err)
			}
			if i == b.N-1 {
				b.ReportMetric(res.Throughput, fmt.Sprintf("tps:%s", proto))
				b.ReportMetric(res.MessagesPerCommit, fmt.Sprintf("msgs/commit:%s", proto))
			}
		}
	}
}
