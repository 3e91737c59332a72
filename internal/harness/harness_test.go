package harness

import (
	"strings"
	"testing"
	"time"

	"adaptivecc/internal/core"
	"adaptivecc/internal/sim"
	"adaptivecc/internal/workload"
)

func fastPlatform() Platform {
	p := SmallPlatform()
	p.TimeScale = 0.02 // 50x paper speed: enough to commit transactions fast
	return p
}

func TestRunClientServerSmoke(t *testing.T) {
	for _, proto := range []core.Protocol{core.PS, core.PSAA} {
		res, err := Run(Experiment{
			Workload:  workload.HotCold,
			WriteProb: 0.1,
			Protocol:  proto,
			Mode:      ClientServer,
			Warmup:    200 * time.Millisecond,
			Measure:   800 * time.Millisecond,
		}, fastPlatform())
		if err != nil {
			t.Fatalf("%v: %v", proto, err)
		}
		if res.Commits == 0 {
			t.Errorf("%v: no commits in measurement window", proto)
		}
		if res.Throughput <= 0 {
			t.Errorf("%v: throughput = %v", proto, res.Throughput)
		}
		if res.MessagesPerCommit <= 0 {
			t.Errorf("%v: messages/commit = %v", proto, res.MessagesPerCommit)
		}
		t.Logf("%v: %.1f tps, %.0f msgs/commit, %.1f disk IO/commit, %d aborts",
			proto, res.Throughput, res.MessagesPerCommit, res.DiskIOPerCommit, res.Aborts)
	}
}

func TestRunPeerServersSmoke(t *testing.T) {
	res, err := Run(Experiment{
		Workload:  workload.HotCold,
		WriteProb: 0.1,
		Protocol:  core.PSAA,
		Mode:      PeerServers,
		Warmup:    200 * time.Millisecond,
		Measure:   800 * time.Millisecond,
	}, fastPlatform())
	if err != nil {
		t.Fatal(err)
	}
	if res.Commits == 0 {
		t.Error("no commits in peer-servers mode")
	}
	t.Logf("peers PS-AA: %.1f tps, %.0f msgs/commit, %.1f IO/commit",
		res.Throughput, res.MessagesPerCommit, res.DiskIOPerCommit)
}

func TestRunUniformAndHicon(t *testing.T) {
	for _, kind := range []workload.Kind{workload.Uniform, workload.HiCon} {
		res, err := Run(Experiment{
			Workload:  kind,
			WriteProb: 0.05,
			Protocol:  core.PSAA,
			Mode:      ClientServer,
			Warmup:    100 * time.Millisecond,
			Measure:   500 * time.Millisecond,
		}, fastPlatform())
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if res.Commits == 0 {
			t.Errorf("%v: no commits", kind)
		}
	}
}

func TestPartitionCoversDatabase(t *testing.T) {
	for _, kind := range []workload.Kind{workload.HotCold, workload.Uniform, workload.HiCon} {
		exts, err := partition(kind, 11250, 10)
		if err != nil {
			t.Fatal(err)
		}
		var total uint32
		seen := make(map[int]uint32)
		for _, e := range exts {
			total += e.count
			seen[e.peer] += e.count
		}
		if total != 11250 {
			t.Errorf("%v: partition covers %d pages, want 11250", kind, total)
		}
		if len(seen) != 10 {
			t.Errorf("%v: only %d peers own data", kind, len(seen))
		}
	}
}

func TestPartitionHotColdOwnership(t *testing.T) {
	// Under HOTCOLD each peer must own its application's hot range: app i's
	// hot pages are [i*450, (i+1)*450) and must map to volume i+1.
	exts, err := partition(workload.HotCold, 11250, 10)
	if err != nil {
		t.Fatal(err)
	}
	if exts[0].count != 450 {
		t.Fatalf("hot extent size = %d, want 450", exts[0].count)
	}
	// First 10 extents are the hot ranges in page order.
	for i := 0; i < 10; i++ {
		if exts[i].peer != i {
			t.Errorf("hot extent %d owned by peer %d", i, exts[i].peer)
		}
	}
}

func TestDefaultPlatformMatchesTable1(t *testing.T) {
	p := DefaultPlatform()
	if p.NumApplications != 10 {
		t.Errorf("NumApplications = %d", p.NumApplications)
	}
	if p.DatabasePages != 11250 {
		t.Errorf("DatabasePages = %d", p.DatabasePages)
	}
	if p.ObjectsPerPage != 20 || p.PageSize != 4096 {
		t.Errorf("page shape = %d x %d", p.ObjectsPerPage, p.PageSize)
	}
	if p.ClientBufFrac != 0.25 || p.ServerBufFrac != 0.5 || p.PeerBufFrac != 0.25 {
		t.Errorf("buffer fractions = %v/%v/%v", p.ClientBufFrac, p.ServerBufFrac, p.PeerBufFrac)
	}
}

func TestRunValidation(t *testing.T) {
	p := fastPlatform()
	p.TimeScale = 0
	if _, err := Run(Experiment{Workload: workload.Uniform, Protocol: core.PSAA, Mode: ClientServer}, p); err == nil {
		t.Error("zero TimeScale accepted")
	}
	if _, err := Run(Experiment{Workload: workload.Uniform, Protocol: core.PSAA, Mode: Mode(99), Measure: time.Millisecond}, fastPlatform()); err == nil {
		t.Error("bad mode accepted")
	}
}

func TestResultCountersPopulated(t *testing.T) {
	res, err := Run(Experiment{
		Workload:  workload.HotCold,
		WriteProb: 0.2,
		Protocol:  core.PSAA,
		Mode:      ClientServer,
		Warmup:    100 * time.Millisecond,
		Measure:   500 * time.Millisecond,
	}, fastPlatform())
	if err != nil {
		t.Fatal(err)
	}
	for _, ctr := range []string{sim.CtrMessages, sim.CtrObjectReads, sim.CtrCommits} {
		if res.Counters[ctr] <= 0 {
			t.Errorf("counter %s = %d", ctr, res.Counters[ctr])
		}
	}
}

func TestFiguresCoverPaper(t *testing.T) {
	figs := Figures()
	if len(figs) != 11 {
		t.Fatalf("Figures = %d, want 11 (paper figs 6-15 + the HOTSPOT fig 16)", len(figs))
	}
	seen := make(map[int]bool)
	for _, f := range figs {
		if f.Number < 6 || f.Number > 16 {
			t.Errorf("figure %d out of range", f.Number)
		}
		if seen[f.Number] {
			t.Errorf("figure %d duplicated", f.Number)
		}
		seen[f.Number] = true
		if len(f.Protocols) < 2 || len(f.WriteProbs) < 3 {
			t.Errorf("figure %d underspecified: %+v", f.Number, f)
		}
		if f.Expectation == "" {
			t.Errorf("figure %d has no expectation", f.Number)
		}
	}
	// Client-server figures are 6-11, peer-servers 12-15; the added
	// HOTSPOT figure 16 runs client-server again.
	for _, f := range figs {
		wantMode := ClientServer
		if f.Number >= 12 && f.Number <= 15 {
			wantMode = PeerServers
		}
		if f.Mode != wantMode {
			t.Errorf("figure %d mode = %v, want %v", f.Number, f.Mode, wantMode)
		}
	}
	fig16, ok := FigureByNumber(16)
	if !ok {
		t.Fatal("FigureByNumber(16) missing")
	}
	if fig16.Workload != workload.HotSpot {
		t.Errorf("figure 16 workload = %v, want HOTSPOT", fig16.Workload)
	}
	hasAH := false
	for _, pr := range fig16.Protocols {
		if pr == core.PSAH {
			hasAH = true
		}
	}
	if !hasAH {
		t.Error("figure 16 does not plot PS-AH")
	}
	if _, ok := FigureByNumber(6); !ok {
		t.Error("FigureByNumber(6) missing")
	}
	if _, ok := FigureByNumber(5); ok {
		t.Error("FigureByNumber(5) exists")
	}
}

func TestRunFigureAndRender(t *testing.T) {
	fig, _ := FigureByNumber(6)
	fig.WriteProbs = []float64{0.1}
	fig.Protocols = []core.Protocol{core.PSAA}
	var progressLines int
	res, err := RunFigure(fig, fastPlatform(), 100*time.Millisecond, 400*time.Millisecond,
		func(string) { progressLines++ })
	if err != nil {
		t.Fatal(err)
	}
	if progressLines != 1 {
		t.Errorf("progress lines = %d, want 1", progressLines)
	}
	out := res.Render()
	if !strings.Contains(out, "Figure 6") || !strings.Contains(out, "PS-AA") {
		t.Errorf("render output:\n%s", out)
	}
}

func TestRenderTables(t *testing.T) {
	p := DefaultPlatform()
	t1 := RenderTable1(p)
	for _, want := range []string{"NumApplications", "11250 pages", "4096 bytes", "20 objects"} {
		if !strings.Contains(t1, want) {
			t.Errorf("Table 1 missing %q:\n%s", want, t1)
		}
	}
	t2 := RenderTable2(p)
	for _, want := range []string{"HOTCOLD", "UNIFORM", "HICON", "2 msec", "90 or 30"} {
		if !strings.Contains(t2, want) {
			t.Errorf("Table 2 missing %q:\n%s", want, t2)
		}
	}
}

func TestModeStrings(t *testing.T) {
	if ClientServer.String() != "client-server" || PeerServers.String() != "peer-servers" {
		t.Error("mode strings wrong")
	}
}

func TestRunPrivateWorkload(t *testing.T) {
	res, err := Run(Experiment{
		Workload:  workload.Private,
		WriteProb: 0.2,
		Protocol:  core.PSAA,
		Mode:      ClientServer,
		Warmup:    100 * time.Millisecond,
		Measure:   400 * time.Millisecond,
	}, fastPlatform())
	if err != nil {
		t.Fatal(err)
	}
	if res.Commits == 0 {
		t.Error("no commits under PRIVATE")
	}
	// PRIVATE has no inter-application sharing: no callbacks expected.
	if res.Counters[sim.CtrCallbacks] != 0 {
		t.Errorf("PRIVATE produced %d callbacks", res.Counters[sim.CtrCallbacks])
	}
}

func TestRunObjectServer(t *testing.T) {
	res, err := Run(Experiment{
		Workload:  workload.Uniform,
		WriteProb: 0.1,
		Protocol:  core.OS,
		Mode:      ClientServer,
		Warmup:    100 * time.Millisecond,
		Measure:   400 * time.Millisecond,
	}, fastPlatform())
	if err != nil {
		t.Fatal(err)
	}
	if res.Commits == 0 {
		t.Error("no commits under OS")
	}
	if res.Counters[sim.CtrPageTransfers] != 0 {
		t.Errorf("OS shipped %d pages", res.Counters[sim.CtrPageTransfers])
	}
}

func TestRunWithCritPathAndAudit(t *testing.T) {
	plat := fastPlatform()
	plat.CritPath = true
	plat.Audit = true
	res, err := Run(Experiment{
		Workload:  workload.HotCold,
		WriteProb: 0.3,
		Protocol:  core.PSAA,
		Mode:      ClientServer,
		Warmup:    200 * time.Millisecond,
		Measure:   800 * time.Millisecond,
	}, plat)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Observed {
		t.Error("CritPath/Audit must imply Observe")
	}
	if res.CritPath == nil {
		t.Fatal("no critical-path breakdown")
	}
	if res.CritPath.Commits == 0 {
		t.Error("breakdown attributes zero commits")
	}
	if res.CritPath.PhaseSum() <= 0 {
		t.Error("breakdown attributes zero time")
	}
	if !strings.Contains(res.CritPath.Table(), "lock-wait") {
		t.Errorf("breakdown table malformed:\n%s", res.CritPath.Table())
	}
	if !res.Audited {
		t.Error("auditor did not run")
	}
	if res.AuditViolations != 0 {
		t.Errorf("clean run reported %d violations:\n%s", res.AuditViolations, res.AuditReport)
	}
	t.Logf("breakdown over %d commits:\n%s", res.CritPath.Commits, res.CritPath.Table())
}
