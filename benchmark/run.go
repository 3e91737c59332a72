package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"adaptivecc/internal/core"
	"adaptivecc/internal/placement"
	"adaptivecc/internal/sim"
	"adaptivecc/internal/storage"
	"adaptivecc/internal/transport"
	"adaptivecc/internal/verify"
	"adaptivecc/internal/workload"
)

// serializabilityFatal makes a traced run whose history fails
// verify.History.Check fail the workload. It is false because the baseline
// fails it by itself: under PS-AA one hotcold transaction in roughly 35 000
// reads a stale cached object (README.md, "Findings"), which is one traced
// sim-hotcold run in ten. The verdict is printed either way; the issue that
// fixes the defect sets this to true.
const serializabilityFatal = false

const (
	numSlices = 5 // the window is cut into this many equal slices; a metric is the median of the slice values
	// detailEvery spaces the transactions a traced run records in detail
	// (a span per read, write and lookup, and the versions read and
	// written). Transactions slower than this are all detailed; the
	// cache-resident workload, at a thousand transactions a second and 700
	// calls each, would otherwise fill memory and measure mostly the tracer.
	detailEvery = 5 * time.Millisecond
)

// commitSample is one committed transaction: when it committed, relative
// to the window start, and how long it took from its first Begin.
type commitSample struct {
	at, latency time.Duration
}

// app is one closed-loop application: it draws a reference string, executes
// it until it commits, and only then draws the next.
type app struct {
	idx  int
	peer *core.Peer
	dir  *storage.Directory
	src  *txnSource
	rng  *rand.Rand // back-off jitter
	seq  uint32     // transactions drawn so far; with idx it names the value written

	// lastWrite[page*objectsPerPage+slot] is the seq of this application's
	// last committed write of the object (0: never written).
	lastWrite []uint32

	windowStart time.Time
	samples     []commitSample
	attempted   int
	failed      int
	failure     error // first non-retryable error, if any

	// Traced runs only.
	trace      *spanLog
	history    *verify.History
	lastDetail time.Time
}

func newApp(idx int, d *deployment, w workloadSpec, seed int64) (*app, error) {
	src, err := newTxnSource(w, idx, seed)
	if err != nil {
		return nil, err
	}
	return &app{
		idx:       idx,
		peer:      d.peers[idx],
		dir:       d.dirs[idx],
		src:       src,
		rng:       rand.New(rand.NewSource(seed*7 + 3 + int64(idx))),
		lastWrite: make([]uint32, dbPages*objectsPerPage),
	}, nil
}

// encodeVersion is the 8-byte value transaction seq of application app
// writes; decodeVersion reads it back. A never-written object decodes to
// application 0, which no application has.
func encodeVersion(val []byte, app int, seq uint32) {
	binary.LittleEndian.PutUint32(val[0:4], uint32(app+1))
	binary.LittleEndian.PutUint32(val[4:8], seq)
}

func decodeVersion(val []byte) (app int, seq uint32) {
	if len(val) < 8 {
		return -1, 0
	}
	return int(binary.LittleEndian.Uint32(val[0:4])) - 1, binary.LittleEndian.Uint32(val[4:8])
}

func versionName(app int, seq uint32) string {
	if app < 0 {
		return "" // the initial version
	}
	return "a" + strconv.Itoa(app+1) + "." + strconv.FormatUint(uint64(seq), 10)
}

func objectName(r workload.Ref) string {
	return strconv.FormatUint(uint64(r.Page), 10) + "/" + strconv.FormatUint(uint64(r.Slot), 10)
}

// errBadRef marks a reference string naming a page outside the database.
var errBadRef = errors.New("bad reference")

// retryable reports whether re-executing can help: lock conflicts,
// deadlock and timeout aborts and RPC timeouts can; a routing or fabric
// failure cannot.
func retryable(err error) bool {
	for _, fatal := range []error{
		errBadRef, placement.ErrMisdirected, placement.ErrUnplaced,
		transport.ErrNoRoute, transport.ErrClosed, transport.ErrPeerDown,
	} {
		if errors.Is(err, fatal) {
			return false
		}
	}
	return true
}

// runTxn executes the next reference string until it commits. It reports
// false when the transaction failed: maxAttempts re-executions or an
// error no retry can cure.
func (a *app) runTxn() bool {
	t := a.src.next()
	a.seq++
	a.attempted++
	var val [8]byte
	encodeVersion(val[:], a.idx, a.seq)

	begin := time.Now()
	txnSpan := a.trace.begin(spanTxn, -1, a.seq)
	detail := a.trace != nil && begin.Sub(a.lastDetail) >= detailEvery
	var rec *verify.TxRecord
	if detail {
		a.lastDetail = begin
		rec = &verify.TxRecord{Name: versionName(a.idx, a.seq)}
	}
	committed := false
	for attempt := 0; attempt < maxAttempts; attempt++ {
		err := a.attempt(t, val[:], txnSpan, detail, rec)
		if err == nil {
			committed = true
			break
		}
		if !retryable(err) {
			if a.failure == nil {
				a.failure = err
			}
			break
		}
		// shorecli's randomized exponential back-off: a flat sleep keeps
		// colliding writers colliding.
		ceil := (1 << min(attempt, 6)) * int(time.Millisecond)
		pause := time.Duration(a.rng.Intn(ceil)) + 100*time.Microsecond
		s := a.trace.begin(spanBackoff, txnSpan, a.seq)
		time.Sleep(pause)
		a.trace.finish(s)
	}
	end := time.Now()
	a.trace.finish(txnSpan)
	if !committed {
		a.failed++
		return false
	}
	for _, r := range t.Refs {
		if r.Write {
			a.lastWrite[int(r.Page)*objectsPerPage+int(r.Slot)] = a.seq
		}
	}
	if rec != nil {
		a.history.Commit(*rec)
	}
	if !a.windowStart.IsZero() {
		a.samples = append(a.samples, commitSample{at: end.Sub(a.windowStart), latency: end.Sub(begin)})
	}
	return true
}

// attempt executes the reference string once: read every object, update
// the ones marked, commit. On any error it aborts and returns the error.
func (a *app) attempt(t workload.Transaction, val []byte, txnSpan int32, detail bool, rec *verify.TxRecord) error {
	tr := a.trace
	var leaf *spanLog // records the per-object calls; nil unless this transaction is detailed
	if detail {
		leaf = tr
	}
	attemptSpan := tr.begin(spanAttempt, txnSpan, a.seq)
	defer tr.finish(attemptSpan)
	if rec != nil {
		rec.Ops = rec.Ops[:0]
	}
	x := a.peer.Begin()
	err := func() error {
		for _, r := range t.Refs {
			s := leaf.begin(spanLookup, attemptSpan, a.seq)
			obj, err := a.dir.LookupObject(r.Page, r.Slot)
			leaf.finish(s)
			if err != nil {
				return fmt.Errorf("%w: %w", errBadRef, err)
			}
			s = leaf.begin(spanRead, attemptSpan, a.seq)
			data, err := x.Read(obj)
			leaf.finish(s)
			if err != nil {
				return err
			}
			if rec != nil {
				rec.Ops = append(rec.Ops, verify.Op{
					Object:  objectName(r),
					Read:    verify.Version{Writer: versionName(decodeVersion(data))},
					DidRead: true,
					Wrote:   r.Write,
				})
			}
			if r.Write {
				s = leaf.begin(spanWrite, attemptSpan, a.seq)
				err := x.Write(obj, val)
				leaf.finish(s)
				if err != nil {
					return err
				}
			}
		}
		s := tr.begin(spanCommit, attemptSpan, a.seq)
		err := x.Commit()
		tr.finish(s)
		return err
	}()
	if err == nil {
		return nil
	}
	s := tr.begin(spanAbort, attemptSpan, a.seq)
	_ = x.Abort() // ErrTxNotActive after a failed Commit, which already rolled back
	tr.finish(s)
	return err
}

// warmUp runs the fixed number of workload transactions that fill the
// client cache, after every application's scan has finished.
func (a *app) warmUp(w workloadSpec) error {
	for i := 0; i < w.warmTxns; i++ {
		if !a.runTxn() {
			return fmt.Errorf("warm-up transaction %d failed: %v", i, a.failure)
		}
	}
	a.attempted, a.failed = 0, 0
	return nil
}

// scan reads slot 0 of every page in the ranges, one transaction per
// range, which ships each page to the client once.
func (a *app) scan(ranges [][2]uint32) error {
	for _, r := range ranges {
		x := a.peer.Begin()
		for page := r[0]; page < r[1]; page++ {
			obj, err := a.dir.LookupObject(page, 0)
			if err == nil {
				_, err = x.Read(obj)
			}
			if err != nil {
				_ = x.Abort()
				return err
			}
		}
		if err := x.Commit(); err != nil {
			return err
		}
	}
	return nil
}

// readBack checks, in one read-only transaction on application 0's peer,
// that every object some application wrote holds the last committed write
// of one of its writers. It returns a description of each violation.
func readBack(apps []*app) ([]string, error) {
	reader := apps[0]
	var bad []string
	for attempt := 0; ; attempt++ {
		bad = bad[:0]
		x := reader.peer.Begin()
		err := func() error {
			for obj := 0; obj < dbPages*objectsPerPage; obj++ {
				written := false
				for _, a := range apps {
					written = written || a.lastWrite[obj] != 0
				}
				if !written {
					continue
				}
				page, slot := uint32(obj/objectsPerPage), uint16(obj%objectsPerPage)
				id, err := reader.dir.LookupObject(page, slot)
				if err != nil {
					return err
				}
				data, err := x.Read(id)
				if err != nil {
					return err
				}
				who, seq := decodeVersion(data)
				if who < 0 || who >= len(apps) || apps[who].lastWrite[obj] != seq {
					bad = append(bad, fmt.Sprintf("object %d/%d holds %q, not the last committed write of any writer", page, slot, versionName(who, seq)))
				}
			}
			return x.Commit()
		}()
		if err == nil {
			return bad, nil
		}
		_ = x.Abort() // ErrTxNotActive after a failed Commit
		if attempt == 5 || !retryable(err) {
			return nil, fmt.Errorf("read-back transaction: %w", err)
		}
	}
}

// boundary is what the coordinator samples at the start of the window and
// at the end of every slice.
type boundary struct {
	at        time.Duration // since the window start
	clientCPU time.Duration
	serverCPU time.Duration
}

// windowResult is everything one measured window produced.
type windowResult struct {
	dur        time.Duration
	samples    []commitSample // all applications, commits inside the window only
	bounds     []boundary     // numSlices+1 of them
	attempted  int
	failed     int
	failure    error
	violations []string

	// Traced windows only: counter and allocation deltas over the window.
	logs       []*spanLog
	client     map[string]int64
	server     map[string]int64
	tcpConns   int64 // connections open at the end of the window, both ends counted
	mallocs    uint64
	allocBytes uint64
	historyLen int
	historyErr error
	serverRSS  int64 // peak resident bytes of the servers, summed
}

// runWindow drives every application for dur and samples CPU at the slice
// boundaries. With traced it also records spans and version histories and
// takes counter snapshots at both ends.
func runWindow(d *deployment, apps []*app, dur time.Duration, traced bool) (*windowResult, error) {
	res := &windowResult{dur: dur}
	var hist *verify.History
	var ms0 runtime.MemStats
	var client0, server0 map[string]int64
	if traced {
		hist = verify.NewHistory()
		var err error
		if server0, err = d.serverCounters(); err != nil {
			return nil, err
		}
		client0 = d.clientCounters()
		runtime.ReadMemStats(&ms0)
	}
	sample := func(start time.Time) (boundary, error) {
		srv, err := d.serverCPU()
		return boundary{at: time.Since(start), clientCPU: selfCPU(), serverCPU: srv}, err
	}

	start := time.Now()
	for _, a := range apps {
		a.windowStart = start
		if traced {
			a.trace = &spanLog{epoch: start}
			a.history = hist
			res.logs = append(res.logs, a.trace)
		}
	}
	b, err := sample(start)
	if err != nil {
		return nil, err
	}
	res.bounds = append(res.bounds, b)

	var stop atomic.Bool
	var wg sync.WaitGroup
	for _, a := range apps {
		wg.Add(1)
		go func(a *app) {
			defer wg.Done()
			for !stop.Load() && a.failure == nil {
				a.runTxn()
			}
		}(a)
	}
	var sampleErr error
	for i := 1; i <= numSlices; i++ {
		time.Sleep(time.Until(start.Add(dur * time.Duration(i) / numSlices)))
		b, err := sample(start)
		if err != nil && sampleErr == nil {
			sampleErr = err
		}
		res.bounds = append(res.bounds, b)
	}
	var ms1 runtime.MemStats
	if traced {
		runtime.ReadMemStats(&ms1)
	}
	stop.Store(true)
	wg.Wait()
	if sampleErr != nil {
		return nil, sampleErr
	}

	if traced {
		// Counters are read once the applications have drained, so they
		// cover every transaction in the history, including the ones that
		// committed just after the window closed.
		server1, err := d.serverCounters()
		if err != nil {
			return nil, err
		}
		client1 := d.clientCounters()
		res.client = counterDelta(client0, client1)
		res.server = counterDelta(server0, server1)
		res.tcpConns = client1[sim.CtrTCPConns] + server1[sim.CtrTCPConns]
		res.mallocs = ms1.Mallocs - ms0.Mallocs
		res.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
		res.historyLen = hist.Len()
		res.historyErr = hist.Check()
	}
	for _, a := range apps {
		for _, s := range a.samples {
			if s.at <= dur {
				res.samples = append(res.samples, s)
			}
		}
		res.attempted += a.attempted
		res.failed += a.failed
		if a.failure != nil && res.failure == nil {
			res.failure = fmt.Errorf("application %d: %w", a.idx+1, a.failure)
		}
	}
	sort.Slice(res.samples, func(i, j int) bool { return res.samples[i].at < res.samples[j].at })
	return res, nil
}

func counterDelta(before, after map[string]int64) map[string]int64 {
	d := make(map[string]int64, len(after))
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// sliceMetrics computes the four windowed end-to-end metrics for each
// slice. A transaction belongs to the slice it commits in. A slice with no
// commit has throughput 0 and no latency or cost (NaN).
func sliceMetrics(res *windowResult) (commitsPerS, p50ms, p95ms, cpuMsPerCommit []float64) {
	next := 0
	for i := 0; i < numSlices; i++ {
		lo, hi := res.bounds[i], res.bounds[i+1]
		end := res.dur * time.Duration(i+1) / numSlices
		var lat []float64
		for next < len(res.samples) && res.samples[next].at <= end {
			lat = append(lat, float64(res.samples[next].latency)/float64(time.Millisecond))
			next++
		}
		sort.Float64s(lat)
		n := float64(len(lat))
		commitsPerS = append(commitsPerS, n/(hi.at-lo.at).Seconds())
		if len(lat) == 0 {
			p50ms, p95ms, cpuMsPerCommit = append(p50ms, math.NaN()), append(p95ms, math.NaN()), append(cpuMsPerCommit, math.NaN())
			continue
		}
		cpu := (hi.clientCPU - lo.clientCPU) + (hi.serverCPU - lo.serverCPU)
		p50ms = append(p50ms, percentile(lat, 0.50))
		p95ms = append(p95ms, percentile(lat, 0.95))
		cpuMsPerCommit = append(cpuMsPerCommit, float64(cpu)/float64(time.Millisecond)/n)
	}
	return
}

// setUp deploys the system and warms every application's cache. The time
// it takes is setup_s: spawn, wait for listen, connect, fixed warm-up.
func setUp(env *benchEnv, w workloadSpec, seed int64, live bool) (*deployment, []*app, time.Duration, error) {
	start := time.Now()
	d, err := deploy(env, w, seed, live)
	if err != nil {
		return nil, nil, 0, err
	}
	apps := make([]*app, numApps)
	errs := make([]error, numApps)
	var wg sync.WaitGroup
	for i := range apps {
		if apps[i], err = newApp(i, d, w, seed); err != nil {
			d.abandon()
			return nil, nil, 0, err
		}
	}
	// Two phases with a barrier between them: first every application
	// reads its scan ranges once (the ranges of different applications are
	// disjoint, so no page is requested twice at the same time), then the
	// warm-up transactions run.
	phases := []func(*app) error{
		func(a *app) error {
			if w.scanRanges == nil {
				return nil
			}
			return a.scan(w.scanRanges(a.idx))
		},
		func(a *app) error { return a.warmUp(w) },
	}
	for _, phase := range phases {
		for i, a := range apps {
			wg.Add(1)
			go func(i int, a *app) {
				defer wg.Done()
				if errs[i] == nil {
					errs[i] = phase(a)
				}
			}(i, a)
		}
		wg.Wait()
	}
	took := time.Since(start)
	if err := errors.Join(errs...); err != nil {
		d.abandon()
		return nil, nil, 0, err
	}
	return d, apps, took, nil
}

// measure runs workload w once: setups deployments are warmed up, all but
// the last only to time them, and the last one is measured over window.
// The read-back check, the peers' error state and the servers' shutdown
// reports are folded into the result's violations.
func measure(env *benchEnv, w workloadSpec, seed int64, window time.Duration, traced bool, setups int) (*windowResult, []float64, error) {
	var setupS []float64
	var d *deployment
	var apps []*app
	for i := 0; i < setups; i++ {
		if d != nil {
			if _, errs := d.shutdown(); len(errs) > 0 {
				return nil, nil, fmt.Errorf("%s: set-up %d: %w", w.name, i, errors.Join(errs...))
			}
		}
		var took time.Duration
		var err error
		if d, apps, took, err = setUp(env, w, seed, traced); err != nil {
			return nil, nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setupS = append(setupS, took.Seconds())
	}
	res, err := runWindow(d, apps, window, traced)
	if err != nil {
		d.abandon()
		return nil, nil, fmt.Errorf("%s: %w", w.name, err)
	}
	bad, err := readBack(apps)
	if err != nil {
		res.violations = append(res.violations, err.Error())
	}
	res.violations = append(res.violations, bad...)
	// A read-back mismatch is a transaction whose outcome was wrong: it
	// counts as failed, as the issue's failed_ratio defines.
	res.failed += len(bad)
	if res.historyErr != nil && serializabilityFatal {
		res.violations = append(res.violations, res.historyErr.Error())
	}
	if res.failure != nil {
		res.violations = append(res.violations, res.failure.Error())
	}
	rss, errs := d.shutdown()
	for _, err := range errs {
		res.violations = append(res.violations, err.Error())
	}
	res.serverRSS = rss
	return res, setupS, nil
}
