package main

import (
	"testing"
	"time"
)

// TestSimHotcoldSmoke runs the in-process workload end to end, timed and
// traced, with short windows: set-up, the closed loop, slices, spans,
// counters, the serializability check and the read-back check.
func TestSimHotcoldSmoke(t *testing.T) {
	w, _ := workloadByName("sim-hotcold")
	w.warmTxns = 5
	rep, err := measureWorkload(nil, w, 1, 500*time.Millisecond, 500*time.Millisecond, 2, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.violations) > 0 || rep.failed > 0 {
		t.Fatalf("violations %v, %d failed", rep.violations, rep.failed)
	}
	for _, d := range endToEnd {
		if !(rep.timed[d.name].median > 0) {
			t.Errorf("%s = %v", d.name, rep.timed[d.name])
		}
	}
	if rep.timed["setup_s"].n != 2 {
		t.Errorf("setup_s from %d set-ups, want 2", rep.timed["setup_s"].n)
	}
	for _, group := range [][]metricDef{spanMetrics, counterMetrics, processMetrics} {
		for _, d := range group {
			if _, ok := rep.layer[d.name]; !ok {
				t.Errorf("traced run did not report %s", d.name)
			}
		}
	}
	if rep.historyLen == 0 {
		t.Error("the traced window recorded no transaction history")
	}
	l := rep.layer
	if sum := l["core.share_read"] + l["core.share_write"] + l["core.share_commit"] + l["core.share_backoff"] + l["core.share_other"]; sum < 0.999 || sum > 1.001 {
		t.Errorf("time shares sum to %v", sum)
	}
	if l["transport.messages_per_commit"] <= 0 || l["core.2pc_prepares_per_commit"] != 0 || l["shored.cpu_ms_per_commit"] != 0 {
		t.Errorf("one in-process server: messages %v, prepares %v, shored cpu %v",
			l["transport.messages_per_commit"], l["core.2pc_prepares_per_commit"], l["shored.cpu_ms_per_commit"])
	}
	if hit := l["buffer.client_hit_ratio"]; hit <= 0 || hit >= 1 {
		t.Errorf("hotcold hit ratio %v", hit)
	}
}

func TestReadBackCatchesALostWrite(t *testing.T) {
	w, _ := workloadByName("sim-hotcold")
	w.warmTxns = 3
	d, apps, _, err := setUp(nil, w, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	defer d.shutdown()
	bad, err := readBack(apps)
	if err != nil || len(bad) != 0 {
		t.Fatalf("clean run: violations %v, err %v", bad, err)
	}
	// Claim a write that never happened: the object still holds the
	// previous version, so the check must name it.
	for obj, seq := range apps[1].lastWrite {
		if seq != 0 && apps[0].lastWrite[obj] == 0 {
			apps[1].lastWrite[obj] = seq + 1000
			break
		}
	}
	bad, err = readBack(apps)
	if err != nil || len(bad) != 1 {
		t.Fatalf("lost write: violations %v, err %v", bad, err)
	}
}

func TestProbesReportEveryMetric(t *testing.T) {
	v := runProbes(0.005)
	for _, d := range probeMetrics {
		if !(v[d.name] > 0) {
			t.Errorf("%s = %v", d.name, v[d.name])
		}
	}
	if len(v) != len(probeMetrics) {
		t.Errorf("%d probe values for %d declared metrics", len(v), len(probeMetrics))
	}
}
