package main

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"adaptivecc/internal/buffer"
	"adaptivecc/internal/core"
	"adaptivecc/internal/lock"
	"adaptivecc/internal/obs"
	"adaptivecc/internal/obs/export"
	"adaptivecc/internal/placement"
	"adaptivecc/internal/sim"
	"adaptivecc/internal/storage"
	"adaptivecc/internal/transport"
	"adaptivecc/internal/wal"
	"adaptivecc/internal/workload"
)

// Probes time one layer's public functions in isolation, from outside:
// fixed iteration counts, the median of five batches. They say what a
// layer costs per call; the traced runs say how often a workload calls it.
var probeMetrics = []metricDef{
	{"lock.grant_release_ns", "ns", lower},
	{"lock.locks_within_ns", "ns", lower},
	{"buffer.read_hit_ns", "ns", lower},
	{"buffer.insert_evict_ns", "ns", lower},
	{"buffer.merge_ns", "ns", lower},
	{"storage.read_page_ns", "ns", lower},
	{"storage.write_page_ns", "ns", lower},
	{"storage.lookup_object_ns", "ns", lower},
	{"wal.append_ns", "ns", lower},
	{"wal.commit_force_ns", "ns", lower},
	{"wal.replay_us_per_krecord", "us", lower},
	{"transport.sim_rtt_us", "us", lower},
	{"transport.tcp_rtt_small_us", "us", lower},
	{"transport.tcp_rtt_page_us", "us", lower},
	{"transport.tcp_stream_msgs_per_s", "1/s", higher},
	{"placement.table_owner_ns", "ns", lower},
	{"placement.hash_owner_ns", "ns", lower},
	{"obs.capture_us", "us", lower},
	{"obs.merge_us", "us", lower},
	{"core.cached_read_tx_us", "us", lower},
	{"core.write_commit_tx_us", "us", lower},
	{"core.fetch_tx_us", "us", lower},
	{"core.callback_round_us", "us", lower},
	{"core.resilient_write_commit_tx_us", "us", lower},
	{"workload.generate_txn_us", "us", lower},
}

const probeBatches = 5

// sink keeps the compiler from discarding a probed call's result.
var sink any

// perOp runs probeBatches batches of iters calls of op and returns the
// median batch's mean nanoseconds per call. prep, when non-nil, runs
// untimed before every call.
func perOp(iters int, prep, op func()) float64 {
	batches := make([]float64, probeBatches)
	for b := range batches {
		var total time.Duration
		if prep == nil {
			start := time.Now()
			for i := 0; i < iters; i++ {
				op()
			}
			total = time.Since(start)
		} else {
			for i := 0; i < iters; i++ {
				prep()
				start := time.Now()
				op()
				total += time.Since(start)
			}
		}
		batches[b] = float64(total) / float64(iters)
	}
	sort.Float64s(batches)
	return batches[probeBatches/2]
}

// must stops a probe whose fixture cannot be built: with fixed inputs
// that is a bug in the probe or a changed API, not a measurement.
func must(err error) {
	if err != nil {
		panic(fmt.Sprintf("probe fixture: %v", err))
	}
}

// runProbes runs every probe. scale multiplies the iteration counts: 1
// for a report, a small fraction for smoke runs and tests.
func runProbes(scale float64) values {
	n := func(iters int) int { return max(1, int(float64(iters)*scale)) }
	v := make(values, len(probeMetrics))
	probeLock(v, n)
	probeBuffer(v, n)
	probeStorage(v, n)
	probeWAL(v, n)
	probeTransport(v, n)
	probePlacement(v, n)
	probeObs(v, n)
	probeCore(v, n)
	probeWorkload(v, n)
	return v
}

func probeLock(v values, n func(int) int) {
	m := lock.NewManager(nil, nil)
	tx := lock.TxID{Site: "probe", Seq: 1}
	obj := storage.ObjectItem(1, 1, 1, 1)
	// An object EX lock takes IX on volume, file and page first.
	v["lock.grant_release_ns"] = perOp(n(20000), nil, func() {
		must(m.Lock(tx, obj, lock.EX, lock.Options{}))
		m.ReleaseAll(tx)
	})
	for s := uint16(0); s < objectsPerPage; s++ {
		must(m.Lock(lock.TxID{Site: "probe", Seq: uint64(s + 2)}, storage.ObjectItem(1, 1, 1, s), lock.SH, lock.Options{}))
	}
	page := storage.PageItem(1, 1, 1)
	v["lock.locks_within_ns"] = perOp(n(20000), nil, func() { sink = m.LocksWithin(page) })
}

func probeBuffer(v values, n func(int) int) {
	const slot = pageSize / objectsPerPage
	full := storage.AllAvailable(objectsPerPage)
	pool := buffer.NewPool(64)
	ids := make([]storage.ItemID, 256)
	pages := make([]*storage.Page, len(ids))
	for i := range ids {
		ids[i] = storage.PageItem(1, 1, uint32(i))
		pages[i] = storage.NewPage(ids[i], objectsPerPage, slot)
	}
	for i := 0; i < 64; i++ {
		pool.Insert(ids[i], pages[i], full)
	}
	i := 0
	v["buffer.read_hit_ns"] = perOp(n(20000), nil, func() {
		sink, _ = pool.ReadObject(ids[i%64], uint16(i%objectsPerPage))
		i++
	})
	// Cycling through four times the capacity makes every insert evict.
	v["buffer.insert_evict_ns"] = perOp(n(20000), nil, func() {
		sink = pool.Insert(ids[i%len(ids)], pages[i%len(ids)], full)
		i++
	})
	// Merging into a resident page with nothing available copies every
	// object, the cost of a page reply landing on a half-invalidated frame.
	resident := storage.PageItem(1, 1, 1000)
	incoming := storage.NewPage(resident, objectsPerPage, slot)
	v["buffer.merge_ns"] = perOp(n(5000),
		func() { pool.Insert(resident, storage.NewPage(resident, objectsPerPage, slot), 0) },
		func() { sink = pool.Merge(resident, incoming, full, 0) })
}

func probeStorage(v values, n func(int) int) {
	costs := sim.DefaultCosts(0)
	vol := storage.NewVolume(1, costs, sim.NewStats())
	_, err := vol.CreateFile(1, 0, dbPages, objectsPerPage, pageSize/objectsPerPage)
	must(err)
	i := uint32(0)
	v["storage.read_page_ns"] = perOp(n(10000), nil, func() {
		p, err := vol.ReadPage(storage.PageItem(1, 1, i%dbPages))
		must(err)
		sink = p
		i++
	})
	page, err := vol.ReadPage(storage.PageItem(1, 1, 0))
	must(err)
	v["storage.write_page_ns"] = perOp(n(10000), nil, func() { must(vol.WritePage(page)) })

	// A two-shard directory, so the lookup searches extents.
	dir := storage.NewDirectory()
	dir.AddExtent(1, 1, 0, shardPages)
	dir.AddExtent(2, 1, 0, shardPages)
	v["storage.lookup_object_ns"] = perOp(n(20000), nil, func() {
		id, err := dir.LookupObject(i%dbPages, uint16(i%objectsPerPage))
		must(err)
		sink = id
		i++
	})
}

func probeWAL(v values, n func(int) int) {
	costs := sim.DefaultCosts(0)
	newLog := func() *wal.StableLog {
		return wal.NewStableLog(storage.NewDisk("probe-log", costs, sim.NewStats()))
	}
	before, after := make([]byte, 8), make([]byte, 8)
	rec := func(seq uint64, i int) wal.Record {
		return wal.Record{
			Tx:     lock.TxID{Site: "probe", Seq: seq},
			Object: storage.ObjectItem(1, 1, uint32(i%dbPages), uint16(i%objectsPerPage)),
			Before: before, After: after,
		}
	}
	log := newLog()
	seq := uint64(0)
	one := make([]wal.Record, 1)
	// Append then commit, so the log's per-transaction undo lists stay small.
	v["wal.append_ns"] = perOp(n(10000),
		func() { log.Commit(lock.TxID{Site: "probe", Seq: seq}); seq++; one[0] = rec(seq, int(seq)) },
		func() { sink = log.Append(one) })
	v["wal.commit_force_ns"] = perOp(n(10000),
		func() { seq++; one[0] = rec(seq, int(seq)); log.Append(one) },
		func() { sink = log.CommitForce(lock.TxID{Site: "probe", Seq: seq}) })

	const records, perTx = 1000, 10
	img := newLog()
	img.EnableImage()
	for t := 0; t < records/perTx; t++ {
		batch := make([]wal.Record, perTx)
		for i := range batch {
			batch[i] = rec(uint64(t+1), t*perTx+i)
		}
		img.Append(batch)
		img.Commit(lock.TxID{Site: "probe", Seq: uint64(t + 1)})
	}
	bytes := img.ImageBytes()
	v["wal.replay_us_per_krecord"] = perOp(n(200), nil, func() {
		r, err := wal.Replay(bytes)
		must(err)
		sink = r
	}) / 1000
}

// probePayload is the benchmark's own wire payload: what the fabric costs
// with the protocol's message bodies taken out.
type probePayload struct {
	Seq  int
	Data []byte
}

// echoPair registers endpoints "a" and "b" whose handlers are set by the
// caller; fa hosts a, fb hosts b.
type echoPair struct {
	fa, fb   transport.Fabric
	onA, onB atomic.Pointer[transport.Handler]
}

func newEchoPair(fa, fb transport.Fabric) *echoPair {
	p := &echoPair{fa: fa, fb: fb}
	costs := sim.DefaultCosts(0)
	must(fa.Register("a", sim.NewResource("a-cpu", costs), func(m transport.Message) { (*p.onA.Load())(m) }))
	must(fb.Register("b", sim.NewResource("b-cpu", costs), func(m transport.Message) { (*p.onB.Load())(m) }))
	return p
}

// rtt measures one request from b to a and a's reply, size bytes each way.
func (p *echoPair) rtt(iters, size int) float64 {
	data := make([]byte, size)
	back := make(chan struct{}, 1)
	onA := transport.Handler(func(m transport.Message) {
		must(p.fa.Send(transport.Message{From: "a", To: "b", Kind: "echo", Payload: m.Payload}, 0))
	})
	onB := transport.Handler(func(transport.Message) { back <- struct{}{} })
	p.onA.Store(&onA)
	p.onB.Store(&onB)
	round := func() {
		must(p.fb.Send(transport.Message{From: "b", To: "a", Kind: "echo", Payload: probePayload{Data: data}}, 0))
		<-back
	}
	round() // the first round dials
	return perOp(iters, nil, round) / 1000
}

// stream measures one-way throughput from b to a with sends pipelined
// over every path.
func (p *echoPair) stream(msgs int) float64 {
	var got atomic.Int64
	done := make(chan struct{}, 1)
	target := int64(msgs)
	onA := transport.Handler(func(transport.Message) {
		if got.Add(1) == target {
			done <- struct{}{}
		}
	})
	p.onA.Store(&onA)
	data := make([]byte, 64)
	nsPerMsg := perOp(1, func() { got.Store(0) }, func() {
		for i := 0; i < msgs; i++ {
			must(p.fb.Send(transport.Message{From: "b", To: "a", Kind: "stream", Payload: probePayload{Seq: i, Data: data}}, transport.AnyPath))
		}
		<-done
	}) / float64(msgs)
	return 1e9 / nsPerMsg
}

func probeTransport(v values, n func(int) int) {
	transport.RegisterWireType(probePayload{})
	costs := sim.DefaultCosts(0)

	net := transport.NewNetwork(costs, sim.NewStats(), numPaths, 1)
	v["transport.sim_rtt_us"] = newEchoPair(net, net).rtt(n(5000), 64)
	net.Close()

	fa, err := transport.NewTCP(costs, sim.NewStats(), numPaths, 1, transport.TCPOptions{})
	must(err)
	defer fa.Close()
	fb, err := transport.NewTCP(costs, sim.NewStats(), numPaths, 2, transport.TCPOptions{Remotes: map[string]string{"a": fa.Addr()}})
	must(err)
	defer fb.Close()
	pair := newEchoPair(fa, fb)
	v["transport.tcp_rtt_small_us"] = pair.rtt(n(300), 64)
	v["transport.tcp_rtt_page_us"] = pair.rtt(n(300), pageSize)
	v["transport.tcp_stream_msgs_per_s"] = pair.stream(n(3000))
}

func probePlacement(v values, n func(int) int) {
	table := placement.NewTable()
	table.SetVolume(1, "srv1")
	table.SetVolume(2, "srv2")
	hash, err := placement.NewHash([]string{"srv1", "srv2"})
	must(err)
	i := uint32(0)
	item := func() storage.ItemID {
		i++
		return storage.ObjectItem(storage.VolumeID(1+i%2), 1, i%shardPages, uint16(i%objectsPerPage))
	}
	v["placement.table_owner_ns"] = perOp(n(20000), nil, func() {
		o, err := table.Owner(item())
		must(err)
		sink = o
	})
	v["placement.hash_owner_ns"] = perOp(n(20000), nil, func() {
		o, err := hash.Owner(item())
		must(err)
		sink = o
	})
}

func probeObs(v values, n func(int) int) {
	// Two processes' worth of state: three peers each, full trace rings.
	snaps := make([]*export.Snapshot, 2)
	var set *obs.Set
	for s := range snaps {
		set = obs.NewSet(obs.Config{Enabled: true}, sim.NewStats())
		for _, site := range []string{"srv", "a1", "a2"} {
			r := set.NewRegistry(site)
			for i := 0; i < 4096; i++ {
				r.Observe(obs.HistCommit, time.Duration(i)*time.Microsecond)
				r.Emit(obs.EvCommit, "probe:1", "1/1", time.Microsecond, "")
			}
		}
		snaps[s] = export.Capture(set, fmt.Sprintf("probe%d", s), nil)
	}
	v["obs.capture_us"] = perOp(n(100), nil, func() { sink = export.Capture(set, "probe", nil) }) / 1000
	v["obs.merge_us"] = perOp(n(20), nil, func() { sink = export.Merge(snaps) }) / 1000
}

// probeSystem is a one-server in-process system with the given number of
// client peers, on the simulated fabric at zero cost scale.
func probeSystem(clients, clientPool int, rpc time.Duration) (*core.System, []*core.Peer) {
	costs := sim.DefaultCosts(0)
	sys := core.NewSystem(core.Config{Costs: costs, ClientPoolPages: clientPool, RPCTimeout: rpc})
	vol := storage.NewVolume(1, costs, sys.Stats())
	_, err := vol.CreateFile(1, 0, 64, objectsPerPage, pageSize/objectsPerPage)
	must(err)
	sys.Directory().AddExtent(1, 1, 0, 64)
	_, err = sys.AddPeer("srv", vol)
	must(err)
	peers := make([]*core.Peer, clients)
	for i := range peers {
		peers[i], err = sys.AddPeer(fmt.Sprintf("c%d", i+1))
		must(err)
	}
	return sys, peers
}

func probeCore(v values, n func(int) int) {
	obj := storage.ObjectItem(1, 1, 0, 0)
	val := make([]byte, 8)
	readTx := func(p *core.Peer, o storage.ItemID) {
		x := p.Begin()
		data, err := x.Read(o)
		must(err)
		must(x.Commit())
		sink = data
	}
	writeTx := func(p *core.Peer) {
		x := p.Begin()
		must(x.Write(obj, val))
		must(x.Commit())
	}

	sys, peers := probeSystem(1, 256, 0)
	readTx(peers[0], obj)
	v["core.cached_read_tx_us"] = perOp(n(2000), nil, func() { readTx(peers[0], obj) }) / 1000
	v["core.write_commit_tx_us"] = perOp(n(1000), nil, func() { writeTx(peers[0]) }) / 1000
	sys.Close()

	// A 4-page cache cycled over 64 pages: every read is a fetch.
	sys, peers = probeSystem(1, 4, 0)
	page := uint32(0)
	v["core.fetch_tx_us"] = perOp(n(1000), nil, func() {
		readTx(peers[0], storage.ObjectItem(1, 1, page%64, 0))
		page++
	}) / 1000
	sys.Close()

	// One write against four clients caching the object: the server calls
	// all four back before granting the write.
	sys, peers = probeSystem(5, 256, 0)
	v["core.callback_round_us"] = perOp(n(200),
		func() {
			for _, p := range peers[1:] {
				readTx(p, obj)
			}
		},
		func() { writeTx(peers[0]) }) / 1000
	sys.Close()

	// The RPC discipline every deployed binary runs: correlation ids,
	// dedup ring, timers that never fire on a reliable fabric.
	sys, peers = probeSystem(1, 256, rpcTimeout)
	v["core.resilient_write_commit_tx_us"] = perOp(n(1000), nil, func() { writeTx(peers[0]) }) / 1000
	sys.Close()
}

func probeWorkload(v values, n func(int) int) {
	params, err := hotcoldParams(0)
	must(err)
	gen, err := workload.NewGenerator(params, 1)
	must(err)
	v["workload.generate_txn_us"] = perOp(n(500), nil, func() { sink = gen.Next() }) / 1000
}
