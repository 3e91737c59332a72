// Package export is the snapshot wire format of the observability layer:
// a versioned, serializable image of one process's obs.Set (counters,
// mergeable histogram snapshots, trace-ring events, gauges, audit
// violations) plus the merge machinery that stitches snapshots from
// several processes into one fleet-wide view. shored serves snapshots at
// /debug/obs/snapshot, shorecli serves or file-dumps them, and shorectl
// collects and merges them (DESIGN.md §14).
package export

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"sort"
	"time"

	"adaptivecc/internal/obs"
	"adaptivecc/internal/obs/audit"
)

// SnapshotVersion is the wire-format version. Readers reject any other
// value outright: a version bump means the field semantics changed, and a
// silently misread snapshot poisons every fleet-wide aggregate downstream.
const SnapshotVersion = 1

// RegistrySnapshot is one peer's observability state: its histograms,
// the retained trace events, and how many were lost to ring wraparound.
type RegistrySnapshot struct {
	Site    string                         `json:"site"`
	Hists   [obs.NumHists]obs.HistSnapshot `json:"hists"`
	Events  []obs.Event                    `json:"events,omitempty"`
	Dropped uint64                         `json:"dropped,omitempty"`
}

// AuditSnapshot carries the online auditor's verdicts: per-invariant
// violation counts and the first recorded dump of each.
type AuditSnapshot struct {
	Violations map[string]int64  `json:"violations"`
	First      map[string]string `json:"first,omitempty"`
}

// Snapshot is the serializable form of one process's obs.Set.
//
// Timestamps inside Events are paper time relative to the Set's epoch;
// EpochUnixNano and TimeScale let a collector re-base several processes
// onto one shared axis (see Merge). Histograms are the mergeable bucket
// snapshots, so fleet aggregation is exact, not approximate.
type Snapshot struct {
	Version          int                `json:"version"`
	Process          string             `json:"process"`
	CapturedUnixNano int64              `json:"captured_unix_nano"`
	EpochUnixNano    int64              `json:"epoch_unix_nano"`
	TimeScale        float64            `json:"time_scale"`
	Counters         map[string]int64   `json:"counters"`
	Gauges           []obs.GaugeValue   `json:"gauges,omitempty"`
	Registries       []RegistrySnapshot `json:"registries"`
	Audit            *AuditSnapshot     `json:"audit,omitempty"`
}

// Capture snapshots the Set under the given process identity. The Set
// keeps running; histograms and rings are copied atomically per peer but
// the capture as a whole is a point-in-time read of a live system, not a
// consistent cut — merge semantics absorb that (counters only ever grow).
// aud may be nil. A nil set yields a valid empty snapshot, so a process
// running with observability off still serves a decodable document.
func Capture(set *obs.Set, process string, aud *audit.Auditor) *Snapshot {
	snap := &Snapshot{
		Version:          SnapshotVersion,
		Process:          process,
		CapturedUnixNano: time.Now().UnixNano(),
		Counters:         map[string]int64{},
	}
	if set != nil {
		snap.EpochUnixNano = set.Epoch().UnixNano()
		snap.TimeScale = set.TimeScale()
		snap.Counters = set.Stats().Snapshot()
		snap.Gauges = set.GaugeValues()
		for _, r := range set.Registries() {
			rs := RegistrySnapshot{Site: r.Site(), Events: r.Events(), Dropped: r.Dropped()}
			for id := obs.HistID(0); id < obs.NumHists; id++ {
				rs.Hists[id] = r.Hist(id)
			}
			snap.Registries = append(snap.Registries, rs)
		}
	}
	if aud != nil {
		a := &AuditSnapshot{Violations: map[string]int64{}, First: map[string]string{}}
		for iv := audit.Invariant(0); iv < audit.NumInvariants; iv++ {
			a.Violations[iv.String()] = aud.Violations(iv)
			if d := aud.First(iv); d != "" {
				a.First[iv.String()] = d
			}
		}
		snap.Audit = a
	}
	return snap
}

// Write serializes the snapshot as JSON.
func Write(w io.Writer, s *Snapshot) error {
	return json.NewEncoder(w).Encode(s)
}

// Read decodes one snapshot, enforcing the version strictly: a missing or
// mismatched version is an error, never a best-effort parse.
func Read(r io.Reader) (*Snapshot, error) {
	var s Snapshot
	dec := json.NewDecoder(r)
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("decode snapshot: %w", err)
	}
	if s.Version != SnapshotVersion {
		return nil, fmt.Errorf("snapshot version %d, want %d", s.Version, SnapshotVersion)
	}
	return &s, nil
}

// Handler serves a freshly captured snapshot per request. set and aud are
// read live at scrape time; process names the serving process in the
// document.
func Handler(set *obs.Set, process string, aud *audit.Auditor) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = Write(w, Capture(set, process, aud))
	})
}

// Serve binds addr and serves a process's live introspection on it in the
// background, until the process exits: /metrics (Prometheus text) and /debug/vars (expvar) always,
// /debug/obs/snapshot when set is non-nil (captured as process, with aud's
// verdicts; aud may be nil), and /debug/pprof when withPprof is set. It
// listens explicitly, so ":0" works, and writes the bound address to
// addrFile, when one is named, only after the bind succeeds — collectors
// wait for that file. It returns the bound address.
func Serve(addr, addrFile string, set *obs.Set, process string, aud *audit.Auditor, withPprof bool) (string, error) {
	obs.PublishExpvar()
	mux := http.NewServeMux()
	mux.Handle("/metrics", obs.MetricsHandler())
	mux.Handle("/debug/vars", expvar.Handler())
	if set != nil {
		mux.Handle("/debug/obs/snapshot", Handler(set, process, aud))
	}
	if withPprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("metrics listen %s: %w", addr, err)
	}
	bound := ln.Addr().String()
	if addrFile != "" {
		if err := os.WriteFile(addrFile, []byte(bound), 0o644); err != nil {
			ln.Close()
			return "", fmt.Errorf("metrics-addr-file: %w", err)
		}
	}
	go func() {
		if err := http.Serve(ln, mux); err != nil {
			fmt.Fprintf(os.Stderr, "%s: metrics server: %v\n", process, err)
		}
	}()
	return bound, nil
}

// Merged is the fleet-wide view assembled from several process snapshots:
// summed counters (with the per-process split retained), exactly merged
// histograms, and every trace event re-based onto one shared time axis.
type Merged struct {
	// Processes lists the input process names, sorted.
	Processes []string
	// Counters sums each counter across processes.
	Counters map[string]int64
	// PerProcess holds each process's own counter snapshot.
	PerProcess map[string]map[string]int64
	// Hists merges each histogram across every peer of every process.
	Hists [obs.NumHists]obs.HistSnapshot
	// Events is the union of all trace rings, timestamps re-based onto
	// the earliest process epoch, ordered by time (site tiebreak).
	Events []obs.Event
	// Gauges carries every process's gauges with a "process" label added.
	Gauges []obs.GaugeValue
	// Dropped totals trace events lost to ring wraparound fleet-wide.
	Dropped uint64
	// SpanProcess maps every span id that appears as a slice (Dur > 0)
	// to the process whose ring recorded it.
	SpanProcess map[uint64]string
	// AuditViolations sums per-invariant violation counts fleet-wide.
	AuditViolations map[string]int64
}

// Merge stitches process snapshots into one fleet view.
//
// Time re-basing: each snapshot's event timestamps are relative to its
// own Set epoch. The merged axis is the earliest epoch; every event is
// shifted by its process's wall-clock offset from that epoch, divided by
// the process's TimeScale when one is set (paper-time deployments) or
// taken as-is (real-time deployments, TimeScale 0). Cross-process span
// joins rely on span-id namespacing (obs.SeedSpanIDs) for uniqueness.
func Merge(snaps []*Snapshot) *Merged {
	m := &Merged{
		Counters:        map[string]int64{},
		PerProcess:      map[string]map[string]int64{},
		SpanProcess:     map[uint64]string{},
		AuditViolations: map[string]int64{},
	}
	if len(snaps) == 0 {
		return m
	}

	minEpoch := snaps[0].EpochUnixNano
	for _, s := range snaps[1:] {
		if s.EpochUnixNano < minEpoch {
			minEpoch = s.EpochUnixNano
		}
	}

	for _, s := range snaps {
		m.Processes = append(m.Processes, s.Process)
		m.PerProcess[s.Process] = s.Counters
		for k, v := range s.Counters {
			m.Counters[k] += v
		}
		for _, g := range s.Gauges {
			labels := map[string]string{"process": s.Process}
			for k, v := range g.Labels {
				labels[k] = v
			}
			m.Gauges = append(m.Gauges, obs.GaugeValue{Name: g.Name, Labels: labels, Value: g.Value})
		}
		if s.Audit != nil {
			for k, v := range s.Audit.Violations {
				m.AuditViolations[k] += v
			}
		}

		offset := time.Duration(s.EpochUnixNano - minEpoch)
		if s.TimeScale > 0 {
			offset = time.Duration(float64(offset) / s.TimeScale)
		}
		for _, r := range s.Registries {
			m.Dropped += r.Dropped
			for id := obs.HistID(0); id < obs.NumHists; id++ {
				m.Hists[id].Merge(r.Hists[id])
			}
			for _, ev := range r.Events {
				ev.At += offset
				if ev.Span != 0 && ev.Dur > 0 {
					m.SpanProcess[ev.Span] = s.Process
				}
				m.Events = append(m.Events, ev)
			}
		}
	}
	sort.Strings(m.Processes)
	sort.SliceStable(m.Events, func(i, j int) bool {
		if m.Events[i].At != m.Events[j].At {
			return m.Events[i].At < m.Events[j].At
		}
		return m.Events[i].Site < m.Events[j].Site
	})
	return m
}

// CrossProcessFlows counts parent→child span edges whose endpoints were
// recorded by different processes — exactly the pairs the Perfetto export
// draws as flow arrows between process lanes. Zero on a healthy
// multi-process run means span contexts stopped riding the wire (or the
// processes forgot to namespace their span ids) and the merged causal
// tree is broken; shorectl can be told to fail on it.
func (m *Merged) CrossProcessFlows() int {
	n := 0
	for _, ev := range m.Events {
		if ev.Span == 0 || ev.Parent == 0 || ev.Dur <= 0 {
			continue
		}
		child, ok := m.SpanProcess[ev.Span]
		if !ok {
			continue
		}
		parent, ok := m.SpanProcess[ev.Parent]
		if ok && parent != child {
			n++
		}
	}
	return n
}
