package main

import (
	"fmt"
	"sort"
	"time"

	"adaptivecc/internal/sim"
)

// metricDef declares one metric: its name, unit and which direction is
// better. BENCHMARK.json lists the same names; metrics_test.go keeps the
// two in step.
type metricDef struct {
	name, unit, better string
}

const (
	higher = "higher"
	lower  = "lower"
)

// endToEnd are the metrics a user of the system sees, the same on every
// workload. failed_ratio is printed beside them but is not in this list:
// its baseline is 0, and the driver carries it as failed/attempted.
var endToEnd = []metricDef{
	{"commits_per_s", "1/s", higher},
	{"txn_p50_ms", "ms", lower},
	{"txn_p95_ms", "ms", lower},
	{"cpu_ms_per_commit", "ms", lower},
	{"setup_s", "s", lower},
}

// Per-layer metrics; the layer is the module name before the dot.
var (
	// From the driver's spans around its calls into core.Tx.
	spanMetrics = []metricDef{
		{"core.read_p50_us", "us", lower},
		{"core.read_p99_us", "us", lower},
		{"core.write_p50_us", "us", lower},
		{"core.write_p99_us", "us", lower},
		{"core.commit_p50_ms", "ms", lower},
		{"core.commit_p95_ms", "ms", lower},
		{"core.share_read", "ratio", lower},
		{"core.share_write", "ratio", lower},
		{"core.share_commit", "ratio", lower},
		{"core.share_backoff", "ratio", lower},
		{"core.share_other", "ratio", lower},
	}
	// From the counters the system exports, client and server summed over
	// the traced window.
	counterMetrics = []metricDef{
		{"transport.messages_per_commit", "1/commit", lower},
		{"transport.page_transfers_per_commit", "1/commit", lower},
		{"transport.tcp_conns", "count", lower},
		{"transport.tcp_reconnects", "count", lower},
		{"core.read_requests_per_commit", "1/commit", lower},
		{"core.write_requests_per_commit", "1/commit", lower},
		{"core.callbacks_per_commit", "1/commit", lower},
		{"core.callback_blocked_per_kcommit", "1/kcommit", lower},
		{"core.deescalations_per_kcommit", "1/kcommit", lower},
		{"core.adaptive_grants_per_commit", "1/commit", higher},
		{"core.aborts_per_kcommit", "1/kcommit", lower},
		{"core.timeout_aborts_per_kcommit", "1/kcommit", lower},
		{"core.rpc_retries", "count", lower},
		{"core.dup_suppressed", "count", lower},
		{"core.purge_notices_per_commit", "1/commit", lower},
		{"core.2pc_prepares_per_commit", "1/commit", lower},
		{"buffer.client_hit_ratio", "ratio", higher},
		{"lock.waits_per_kcommit", "1/kcommit", lower},
		{"storage.disk_reads_per_commit", "1/commit", lower},
		{"storage.disk_writes_per_commit", "1/commit", lower},
		{"wal.log_records_per_commit", "1/commit", lower},
		{"wal.redo_page_reads_per_commit", "1/commit", lower},
	}
	// From the operating system and the Go runtime.
	processMetrics = []metricDef{
		{"shored.cpu_ms_per_commit", "ms", lower},
		{"shored.peak_rss_mb", "MB", lower},
		{"shoreclient.cpu_ms_per_commit", "ms", lower},
		{"shoreclient.allocs_per_commit", "1/commit", lower},
		{"shoreclient.alloc_kb_per_commit", "kB/commit", lower},
		{"trace.overhead_ratio", "ratio", lower},
	}
	// probeMetrics is declared in probes.go, beside the probes.
)

func perLayer() []metricDef {
	var all []metricDef
	for _, group := range [][]metricDef{spanMetrics, counterMetrics, processMetrics, probeMetrics} {
		all = append(all, group...)
	}
	return all
}

// values holds measured metrics by name.
type values map[string]float64

// timedValues reduces a timed window to the end-to-end metrics: each
// windowed metric is the median of its slice values, set-up time the
// median of the set-ups, each with its quartiles for the report.
func timedValues(res *windowResult, setupS []float64) (map[string]summary, error) {
	cps, p50, p95, cpu := sliceMetrics(res)
	sums := map[string]summary{
		"commits_per_s":     summarize(cps),
		"txn_p50_ms":        summarize(p50),
		"txn_p95_ms":        summarize(p95),
		"cpu_ms_per_commit": summarize(cpu),
		"setup_s":           summarize(setupS),
	}
	for name, s := range sums {
		if s.n == 0 {
			return nil, fmt.Errorf("%s: no transaction committed inside the window", name)
		}
	}
	return sums, nil
}

// tracedValues reduces a traced window to the span, counter and process
// metrics. timedCommitsPerS is the untraced throughput of the same
// workload, for the tracing overhead.
func tracedValues(res *windowResult, timedCommitsPerS float64) (values, error) {
	v := make(values)

	var spans [numSpanKinds][]float64
	var self [numSpanKinds]int64
	var wall int64
	for _, l := range res.logs {
		for _, k := range []spanKind{spanRead, spanWrite, spanCommit} {
			spans[k] = append(spans[k], durationsOf(l.spans, k)...)
		}
		s, w := detailedTime(l.spans)
		for k := range self {
			self[k] += s[k]
		}
		wall += w
	}
	if wall == 0 || len(spans[spanCommit]) == 0 {
		return nil, fmt.Errorf("traced window recorded no detailed transaction")
	}
	for k := range spans {
		sort.Float64s(spans[k])
	}
	quantile := func(k spanKind, p float64, unit time.Duration) float64 {
		if len(spans[k]) == 0 {
			return 0 // a read-only workload has no write spans
		}
		return percentile(spans[k], p) / float64(unit)
	}
	v["core.read_p50_us"] = quantile(spanRead, 0.50, time.Microsecond)
	v["core.read_p99_us"] = quantile(spanRead, 0.99, time.Microsecond)
	v["core.write_p50_us"] = quantile(spanWrite, 0.50, time.Microsecond)
	v["core.write_p99_us"] = quantile(spanWrite, 0.99, time.Microsecond)
	v["core.commit_p50_ms"] = quantile(spanCommit, 0.50, time.Millisecond)
	v["core.commit_p95_ms"] = quantile(spanCommit, 0.95, time.Millisecond)
	v["core.share_read"], v["core.share_write"], v["core.share_commit"], v["core.share_backoff"], v["core.share_other"] = timeShares(self, wall)

	// Counter metrics divide by the commits the counters saw, which
	// include the few that landed between the window closing and the
	// applications draining.
	ctr := func(name string) float64 { return float64(res.client[name] + res.server[name]) }
	commits := ctr(sim.CtrCommits)
	if commits == 0 {
		return nil, fmt.Errorf("traced window committed nothing")
	}
	per := func(name string, scale float64) float64 { return ctr(name) * scale / commits }
	v["transport.messages_per_commit"] = per(sim.CtrMessages, 1)
	v["transport.page_transfers_per_commit"] = per(sim.CtrPageTransfers, 1)
	v["transport.tcp_conns"] = float64(res.tcpConns)
	v["transport.tcp_reconnects"] = ctr(sim.CtrTCPReconnects)
	v["core.read_requests_per_commit"] = per(sim.CtrReadRequests, 1)
	v["core.write_requests_per_commit"] = per(sim.CtrWriteRequests, 1)
	v["core.callbacks_per_commit"] = per(sim.CtrCallbacks, 1)
	v["core.callback_blocked_per_kcommit"] = per(sim.CtrCallbackBlocked, 1000)
	v["core.deescalations_per_kcommit"] = per(sim.CtrDeescalations, 1000)
	v["core.adaptive_grants_per_commit"] = per(sim.CtrAdaptiveGrants, 1)
	v["core.aborts_per_kcommit"] = per(sim.CtrAborts, 1000)
	v["core.timeout_aborts_per_kcommit"] = per(sim.CtrTimeoutAborts, 1000)
	v["core.rpc_retries"] = ctr(sim.CtrRetries)
	v["core.dup_suppressed"] = ctr(sim.CtrDupSuppressed)
	v["core.purge_notices_per_commit"] = per(sim.CtrPurgeSent, 1)
	v["core.2pc_prepares_per_commit"] = per(sim.Ctr2PCPrepares, 1)
	v["buffer.client_hit_ratio"] = ctr(sim.CtrLocalHits) / ctr(sim.CtrObjectReads)
	v["lock.waits_per_kcommit"] = per(sim.CtrLockWaits, 1000)
	v["storage.disk_reads_per_commit"] = per(sim.CtrDiskReads, 1)
	v["storage.disk_writes_per_commit"] = per(sim.CtrDiskWrites, 1)
	v["wal.log_records_per_commit"] = per(sim.CtrLogRecords, 1)
	v["wal.redo_page_reads_per_commit"] = per(sim.CtrRedoPageReads, 1)

	// Process metrics divide by the commits inside the window, which is
	// the interval their CPU and allocation deltas cover.
	inWindow := float64(len(res.samples))
	first, last := res.bounds[0], res.bounds[len(res.bounds)-1]
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	v["shored.cpu_ms_per_commit"] = ms(last.serverCPU-first.serverCPU) / inWindow
	v["shoreclient.cpu_ms_per_commit"] = ms(last.clientCPU-first.clientCPU) / inWindow
	v["shored.peak_rss_mb"] = float64(res.serverRSS) / (1 << 20)
	v["shoreclient.allocs_per_commit"] = float64(res.mallocs) / inWindow
	v["shoreclient.alloc_kb_per_commit"] = float64(res.allocBytes) / 1024 / inWindow
	v["trace.overhead_ratio"] = timedCommitsPerS / (inWindow / res.dur.Seconds())
	return v, nil
}
