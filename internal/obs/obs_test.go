package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"adaptivecc/internal/sim"
)

func TestNilRegistryIsInert(t *testing.T) {
	var r *Registry
	if r.Active() {
		t.Fatal("nil registry is active")
	}
	r.Observe(HistLockWait, time.Second) // must not panic
	r.Emit(EvLockBlock, "c1:1", "item", 0, "")
	if h := r.Hist(HistLockWait); h.Count != 0 {
		t.Fatal("nil registry recorded")
	}
	if evs := r.Events(); evs != nil {
		t.Fatal("nil registry has events")
	}
	if r.Dropped() != 0 {
		t.Fatal("nil registry dropped events")
	}
}

func TestDisabledRegistryRecordsNothing(t *testing.T) {
	r := NewRegistry("s", 0, 16)
	r.SetEnabled(false)
	r.Observe(HistRPC, time.Second)
	r.Emit(EvRetry, "", "", 0, "")
	if r.Hist(HistRPC).Count != 0 || len(r.Events()) != 0 {
		t.Fatal("disabled registry recorded")
	}
	r.SetEnabled(true)
	r.Observe(HistRPC, time.Second)
	if r.Hist(HistRPC).Count != 1 {
		t.Fatal("re-enabled registry did not record")
	}
}

func TestRegistryTimeScale(t *testing.T) {
	// scale 0.5 = half paper speed: 1s of wall time is 2s of paper time.
	r := NewRegistry("s", 0.5, 16)
	r.Observe(HistCommit, 500*time.Millisecond)
	h := r.Hist(HistCommit)
	if got := time.Duration(h.Sum); got != time.Second {
		t.Fatalf("scaled duration = %v, want 1s", got)
	}
}

func TestSetMergeAndTraceOrder(t *testing.T) {
	set := NewSet(Config{Enabled: true, TraceCap: 16}, sim.NewStats())
	a := set.NewRegistry("a")
	b := set.NewRegistry("b")
	a.Observe(HistLockWait, time.Millisecond)
	b.Observe(HistLockWait, time.Millisecond)
	if got := set.Merged(HistLockWait).Count; got != 2 {
		t.Fatalf("merged count = %d, want 2", got)
	}
	b.Emit(EvCallbackSent, "b:1", "x", 0, "")
	a.Emit(EvCallbackAcked, "a:1", "x", 0, "")
	evs := set.TraceEvents()
	if len(evs) != 2 {
		t.Fatalf("trace events = %d, want 2", len(evs))
	}
	if evs[0].At > evs[1].At {
		t.Fatal("trace events not ordered by time")
	}
	all := set.MergedAll()
	if all[HistLockWait].Count != 2 || all[HistRPC].Count != 0 {
		t.Fatal("MergedAll mismatch")
	}
}

func TestWriteChromeTraceValidJSON(t *testing.T) {
	events := []Event{
		{Kind: EvLockBlock, At: 10 * time.Microsecond, Site: "srv", Tx: "c1:1", Item: "vol1/f1/p2/o3"},
		{Kind: EvLockGrant, At: 50 * time.Microsecond, Dur: 40 * time.Microsecond, Site: "srv", Tx: "c1:1", Item: "vol1/f1/p2/o3"},
		{Kind: EvPageShip, At: 60 * time.Microsecond, Site: "c1", Note: "p2"},
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, events); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	var procs, spans, instants int
	pids := make(map[string]float64)
	for _, ev := range parsed.TraceEvents {
		switch ev["ph"] {
		case "M":
			if ev["name"] == "process_name" {
				procs++
				args := ev["args"].(map[string]any)
				pids[args["name"].(string)] = ev["pid"].(float64)
			}
		case "X":
			spans++
			if ev["dur"].(float64) != 40 {
				t.Errorf("span dur = %v µs, want 40", ev["dur"])
			}
			if ev["ts"].(float64) != 10 {
				t.Errorf("span ts = %v µs, want 10 (At-Dur)", ev["ts"])
			}
		case "i":
			instants++
			if ev["s"] != "t" {
				t.Errorf("instant scope = %v, want t", ev["s"])
			}
		}
	}
	if procs != 2 {
		t.Errorf("process_name metadata = %d, want 2 (one lane per site)", procs)
	}
	if pids["srv"] == pids["c1"] {
		t.Error("sites share a pid; want one process per site")
	}
	if spans != 1 || instants != 2 {
		t.Errorf("spans=%d instants=%d, want 1 and 2", spans, instants)
	}
}

func TestPrometheusExposition(t *testing.T) {
	stats := sim.NewStats()
	stats.Add(sim.CtrCommits, 7)
	set := NewSet(Config{Enabled: true}, stats)
	set.NewRegistry("srv").Observe(HistLockWait, 3*time.Millisecond)
	RegisterSet(set, "test")
	defer UnregisterSet(set)

	var b strings.Builder
	WritePrometheus(&b)
	out := b.String()
	if !strings.Contains(out, "adaptivecc_commits_total") {
		t.Error("missing counter series")
	}
	if !strings.Contains(out, "} 7") {
		t.Error("missing counter value")
	}
	if !strings.Contains(out, "adaptivecc_lock_wait_seconds_bucket") {
		t.Error("missing histogram buckets")
	}
	if !strings.Contains(out, `le="+Inf"`) {
		t.Error("missing +Inf bucket")
	}
	if !strings.Contains(out, "adaptivecc_lock_wait_seconds_count") {
		t.Error("missing histogram count")
	}

	// Every canonical counter is present from the first scrape, even at
	// zero — the TCP lifecycle series and the crash/net drop split must
	// exist on a freshly started server.
	for _, name := range []string{
		sim.CtrTCPConns, sim.CtrTCPReconnects, sim.CtrNetDrops, sim.CtrCrashDrops,
	} {
		if !strings.Contains(out, "adaptivecc_"+name+"_total") {
			t.Errorf("canonical counter %s missing from fresh exposition", name)
		}
	}

	// Non-duration histograms export without a _seconds suffix and with
	// raw-integer bucket bounds.
	if !strings.Contains(out, "adaptivecc_tcp_frame_bytes_bucket") {
		t.Error("missing byte-unit histogram series")
	}
	if strings.Contains(out, "adaptivecc_tcp_frame_bytes_seconds") {
		t.Error("byte-unit histogram wrongly suffixed _seconds")
	}
	if !strings.Contains(out, "adaptivecc_wal_group_batch_size_bucket") {
		t.Error("missing count-unit histogram series")
	}

	// Deterministic: two renders are identical.
	var b2 strings.Builder
	WritePrometheus(&b2)
	if b2.String() != out {
		t.Error("exposition output is not deterministic")
	}
}

func TestGaugeExposition(t *testing.T) {
	set := NewSet(Config{Enabled: true}, sim.NewStats())
	set.RegisterGauge("tcp_queue_depth", map[string]string{"link": "a->b", "path": "0"}, func() int64 { return 3 })
	set.RegisterGauge("callback_rounds_outstanding", map[string]string{"peer": "srv"}, func() int64 { return 0 })
	RegisterSet(set, "gauges")
	defer UnregisterSet(set)

	var b strings.Builder
	WritePrometheus(&b)
	out := b.String()
	if !strings.Contains(out, "# TYPE adaptivecc_tcp_queue_depth gauge") {
		t.Error("missing gauge TYPE line")
	}
	if !strings.Contains(out, `link="a->b"`) || !strings.Contains(out, `path="0"`) {
		t.Error("gauge labels not rendered")
	}
	if !strings.Contains(out, `peer="srv"`) {
		t.Error("second gauge missing")
	}

	vals := set.GaugeValues()
	if len(vals) != 2 {
		t.Fatalf("GaugeValues = %d entries, want 2", len(vals))
	}
	// Sorted by identity: callback_rounds... before tcp_queue_depth.
	if vals[0].Name != "callback_rounds_outstanding" || vals[1].Value != 3 {
		t.Errorf("gauge order/values wrong: %+v", vals)
	}
}

func TestSpanIDNamespacing(t *testing.T) {
	defer SeedSpanIDs(0) // restore the default allocator for other tests

	SeedSpanIDs(5)
	sc := NewSpan("t1", SpanContext{})
	if sc.Span != 5<<32+1 {
		t.Errorf("namespaced span id = %d, want %d", sc.Span, uint64(5)<<32+1)
	}
	SeedSpanIDs(6)
	sc2 := NewSpan("t2", SpanContext{})
	if sc2.Span>>32 != 6 {
		t.Errorf("span id %d not in namespace 6", sc2.Span)
	}
	ns := RandomizeSpanIDs()
	sc3 := NewSpan("t3", SpanContext{})
	if sc3.Span>>32 != uint64(ns) {
		t.Errorf("randomized span id %d not in returned namespace %d", sc3.Span, ns)
	}
}
