package export

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"adaptivecc/internal/obs"
	"adaptivecc/internal/sim"
)

func testSet(t *testing.T) *obs.Set {
	t.Helper()
	stats := sim.NewStats()
	stats.Add(sim.CtrCommits, 3)
	stats.Add(sim.CtrTCPConns, 2)
	set := obs.NewSet(obs.Config{Enabled: true, TraceCap: 16}, stats)
	r := set.NewRegistry("srv")
	r.Observe(obs.HistCommit, 5*time.Millisecond)
	r.ObserveValue(obs.HistTCPFrameSize, 512)
	r.EmitSpan(obs.EvCommit, obs.SpanContext{Trace: "c1:1", Span: 7, Parent: 3}, "v1", time.Millisecond, "", "")
	set.RegisterGauge("queue_depth", map[string]string{"path": "0"}, func() int64 { return 4 })
	return set
}

func TestSnapshotRoundTrip(t *testing.T) {
	snap := Capture(testSet(t), "shored", nil)
	var buf bytes.Buffer
	if err := Write(&buf, snap); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if got.Version != SnapshotVersion || got.Process != "shored" {
		t.Fatalf("header mismatch: %+v", got)
	}
	if got.Counters[sim.CtrCommits] != 3 || got.Counters[sim.CtrTCPConns] != 2 {
		t.Fatalf("counters lost: %v", got.Counters)
	}
	if len(got.Registries) != 1 || got.Registries[0].Site != "srv" {
		t.Fatalf("registries: %+v", got.Registries)
	}
	rs := got.Registries[0]
	if rs.Hists[obs.HistCommit].Count != 1 || rs.Hists[obs.HistTCPFrameSize].Sum != 512 {
		t.Fatalf("hists lost: commit=%+v frame=%+v", rs.Hists[obs.HistCommit], rs.Hists[obs.HistTCPFrameSize])
	}
	if len(rs.Events) != 1 || rs.Events[0].Span != 7 || rs.Events[0].Parent != 3 {
		t.Fatalf("events lost: %+v", rs.Events)
	}
	if len(got.Gauges) != 1 || got.Gauges[0].Value != 4 || got.Gauges[0].Labels["path"] != "0" {
		t.Fatalf("gauges lost: %+v", got.Gauges)
	}
}

func TestCaptureNilSet(t *testing.T) {
	snap := Capture(nil, "off", nil)
	var buf bytes.Buffer
	if err := Write(&buf, snap); err != nil {
		t.Fatalf("write: %v", err)
	}
	if _, err := Read(&buf); err != nil {
		t.Fatalf("a process with obs off must still serve a decodable snapshot: %v", err)
	}
}

func TestReadRejects(t *testing.T) {
	if _, err := Read(strings.NewReader(`{"version":99,"process":"x"}`)); err == nil {
		t.Fatal("version mismatch not rejected")
	}
	if _, err := Read(strings.NewReader(`{"process":"x"}`)); err == nil {
		t.Fatal("missing version not rejected")
	}
	if _, err := Read(strings.NewReader("not json")); err == nil {
		t.Fatal("garbage not rejected")
	}
}

func TestHandler(t *testing.T) {
	set := testSet(t)
	srv := httptest.NewServer(Handler(set, "shored", nil))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	defer resp.Body.Close()
	snap, err := Read(resp.Body)
	if err != nil {
		t.Fatalf("decode served snapshot: %v", err)
	}
	if snap.Process != "shored" || len(snap.Registries) != 1 {
		t.Fatalf("served snapshot wrong: %+v", snap)
	}
}

func TestServe(t *testing.T) {
	get := func(url string) int {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatalf("get %s: %v", url, err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	addrFile := filepath.Join(t.TempDir(), "addr")
	bound, err := Serve("127.0.0.1:0", addrFile, testSet(t), "shored", nil, true)
	if err != nil {
		t.Fatal(err)
	}
	if b, err := os.ReadFile(addrFile); err != nil || string(b) != bound {
		t.Fatalf("address file = %q, %v; want %q", b, err, bound)
	}
	for _, path := range []string{"/metrics", "/debug/vars", "/debug/obs/snapshot", "/debug/pprof/"} {
		if code := get("http://" + bound + path); code != http.StatusOK {
			t.Errorf("%s: status %d", path, code)
		}
	}

	// Without a Set or pprof, only the metrics routes are mounted.
	bare, err := Serve("127.0.0.1:0", "", nil, "shorebench", nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if code := get("http://" + bare + "/metrics"); code != http.StatusOK {
		t.Errorf("/metrics: status %d", code)
	}
	for _, path := range []string{"/debug/obs/snapshot", "/debug/pprof/"} {
		if code := get("http://" + bare + path); code != http.StatusNotFound {
			t.Errorf("%s without a Set or pprof: status %d, want 404", path, code)
		}
	}
}

// mkSnap hand-builds a snapshot the way a live process would produce it.
func mkSnap(process string, epoch int64, scale float64, events []obs.Event, counters map[string]int64) *Snapshot {
	rs := RegistrySnapshot{Site: process + "-site", Events: events}
	rs.Hists[obs.HistCommit] = obs.HistSnapshot{Count: 1, Sum: int64(time.Millisecond)}
	rs.Hists[obs.HistCommit].Buckets[0] = 1
	return &Snapshot{
		Version: SnapshotVersion, Process: process,
		EpochUnixNano: epoch, TimeScale: scale,
		Counters:   counters,
		Registries: []RegistrySnapshot{rs},
	}
}

func TestMergeRebasesAndJoins(t *testing.T) {
	// Process A started 1s before process B; wall-time deployment
	// (TimeScale 0). A recorded the parent span, B the child.
	a := mkSnap("a", 1_000_000_000, 0, []obs.Event{
		{Kind: obs.EvCommit, At: 10 * time.Millisecond, Dur: 5 * time.Millisecond, Site: "a-site", Tx: "a:1", Span: 100},
	}, map[string]int64{sim.CtrCommits: 1})
	b := mkSnap("b", 2_000_000_000, 0, []obs.Event{
		{Kind: obs.EvServe, At: 4 * time.Millisecond, Dur: 2 * time.Millisecond, Site: "b-site", Tx: "a:1", Span: 200, Parent: 100},
	}, map[string]int64{sim.CtrCommits: 2})

	m := Merge([]*Snapshot{b, a}) // order must not matter
	if m.Counters[sim.CtrCommits] != 3 {
		t.Fatalf("summed counters: %v", m.Counters)
	}
	if m.PerProcess["a"][sim.CtrCommits] != 1 || m.PerProcess["b"][sim.CtrCommits] != 2 {
		t.Fatalf("per-process split: %v", m.PerProcess)
	}
	if m.Hists[obs.HistCommit].Count != 2 {
		t.Fatalf("merged hist: %+v", m.Hists[obs.HistCommit])
	}
	if len(m.Events) != 2 {
		t.Fatalf("events: %+v", m.Events)
	}
	// A's epoch is the base: its event keeps At=10ms; B's is shifted +1s.
	var gotA, gotB time.Duration
	for _, ev := range m.Events {
		switch ev.Site {
		case "a-site":
			gotA = ev.At
		case "b-site":
			gotB = ev.At
		}
	}
	if gotA != 10*time.Millisecond {
		t.Fatalf("base-process event moved: %v", gotA)
	}
	if gotB != time.Second+4*time.Millisecond {
		t.Fatalf("later process not re-based: %v", gotB)
	}
	if m.SpanProcess[100] != "a" || m.SpanProcess[200] != "b" {
		t.Fatalf("span→process map: %v", m.SpanProcess)
	}
	if got := m.CrossProcessFlows(); got != 1 {
		t.Fatalf("cross-process flows = %d, want 1", got)
	}
}

func TestMergeTimeScale(t *testing.T) {
	// Paper-time deployment: scale 2 means 2 wall-ns per paper-ns, so a
	// 1s wall offset is 500ms of paper time.
	a := mkSnap("a", 0, 2, nil, nil)
	b := mkSnap("b", 1_000_000_000, 2, []obs.Event{
		{Kind: obs.EvCommit, At: 0, Dur: time.Millisecond, Site: "b-site", Span: 1},
	}, nil)
	m := Merge([]*Snapshot{a, b})
	if len(m.Events) != 1 || m.Events[0].At != 500*time.Millisecond {
		t.Fatalf("scaled re-base wrong: %+v", m.Events)
	}
}

func TestCrossProcessFlowsSameProcess(t *testing.T) {
	// Parent and child recorded by the same process: no cross flow.
	a := mkSnap("a", 0, 0, []obs.Event{
		{Kind: obs.EvCommit, At: 10, Dur: 5, Site: "x", Span: 1},
		{Kind: obs.EvRPC, At: 8, Dur: 2, Site: "y", Span: 2, Parent: 1},
	}, nil)
	m := Merge([]*Snapshot{a})
	if got := m.CrossProcessFlows(); got != 0 {
		t.Fatalf("flows = %d, want 0", got)
	}
}
