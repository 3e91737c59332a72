package core

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"adaptivecc/internal/bounded"
	"adaptivecc/internal/buffer"
	"adaptivecc/internal/consistency"
	"adaptivecc/internal/lock"
	"adaptivecc/internal/obs"
	"adaptivecc/internal/sim"
	"adaptivecc/internal/storage"
	"adaptivecc/internal/transport"
	"adaptivecc/internal/wal"
)

// Peer is one peer server: the owner ("server" role) of its volumes and
// the local agent ("client" role) of the applications attached to it.
type Peer struct {
	name string
	sys  *System
	cfg  Config

	cpu   *sim.Resource
	stats *sim.Stats
	ctr   accessCounters
	waits *sim.WaitTracker
	obs   *obs.Registry // nil unless the system's Config.Obs is enabled

	// policy makes every per-access protocol decision (lock grain,
	// transfer unit, callback strategy, escalation); the peer itself is
	// pure mechanism. Never nil.
	policy consistency.Policy

	locks   *lock.Manager
	pool    *buffer.Pool // client role: cache of remote pages
	srvPool *buffer.Pool // server role: buffer over owned volumes
	volumes map[storage.VolumeID]*storage.Volume
	slog    *wal.StableLog

	cs *clientState
	ct *copyTable

	mu         sync.Mutex
	nextTx     uint64            // sequence number of the last local transaction begun
	txs        map[lock.TxID]*Tx // live local transactions
	nextReq    uint64
	pendingRPC map[uint64]chan rpcReply
	replyChans []chan rpcReply // free list for call()'s reply channels
	cbOps      map[uint64]*cbOp
	cbStalls   map[string]int // client -> consecutive silent round stalls

	// finished is a bounded tombstone set of transactions already finished
	// at this peer's server role: late lock replications for them are
	// dropped instead of installing zombie locks.
	finished *bounded.Map[lock.TxID, struct{}]

	// lastErr retains the most recent asynchronous storage failure (e.g. a
	// dirty-page write-back that could not reach its volume). The harness
	// checks it after every run: a simulation whose writes silently vanish
	// would otherwise report healthy-looking throughput.
	lastErr error

	// reqSeen dedups re-delivered requests and callbacks by (sender, ID):
	// every one a peer sends takes its ID from nextReq. A nil value marks a
	// request still being served, or a callback (re-deliveries are
	// suppressed without a reply); a non-nil value caches a request's
	// reply so a retry whose original reply was lost gets it re-sent.
	// Bounded, guarded by mu.
	reqSeen *bounded.Map[dedupKey, *rpcReply]
}

// accessCounters holds the cells of the counters Tx.Read and Tx.Write bump
// on every object access, resolved once per peer: a cached hit adds to two
// cells instead of taking the stats mutex and hashing a name twice.
type accessCounters struct {
	objectReads, localHits, objectWrites, escalationSaved, logRecords *atomic.Int64
}

// dedupKey identifies a request or callback across re-deliveries.
type dedupKey struct {
	from string
	req  uint64
}

// ErrRPCTimeout is returned by a call whose every attempt went unanswered
// within Config.RPCTimeout. The caller must abort its transaction.
var ErrRPCTimeout = errors.New("core: rpc timed out")

// The retry schedule of call, in units of Config.RPCTimeout: a timed-out
// request is resent rpcMaxRetries times, the wait doubling per attempt up
// to rpcBackoffCap. The budget is therefore 1+2+4+8+8+8+8 = 39×RPCTimeout;
// a lock wait must end below it, or a request parked in a lock queue
// outlives its caller. The adaptive timeout's ceiling,
// waitCeilRPCs×RPCTimeout, keeps that margin at every time scale; a
// FixedTimeout must keep it too.
const (
	rpcMaxRetries = 6
	rpcBackoffCap = 8
	waitCeilRPCs  = 30
)

// finishedSize bounds the tombstone set; reqSeenSize bounds the dedup
// table.
const (
	finishedSize = 8192
	reqSeenSize  = 12288
)

func newPeer(s *System, name string, serverPoolPages, clientPoolPages int, vols []*storage.Volume) *Peer {
	cfg := s.cfg
	if serverPoolPages <= 0 {
		serverPoolPages = cfg.ServerPoolPages
	}
	if clientPoolPages <= 0 {
		clientPoolPages = cfg.ClientPoolPages
	}
	waits := sim.NewWaitTracker(waitCeilRPCs * cfg.RPCTimeout)
	p := &Peer{
		name:  name,
		sys:   s,
		cfg:   cfg,
		cpu:   sim.NewResource("cpu-"+name, cfg.Costs),
		stats: s.stats,
		ctr: accessCounters{
			objectReads:     s.stats.Counter(sim.CtrObjectReads),
			localHits:       s.stats.Counter(sim.CtrLocalHits),
			objectWrites:    s.stats.Counter(sim.CtrObjectWrites),
			escalationSaved: s.stats.Counter(sim.CtrEscalationSaved),
			logRecords:      s.stats.Counter(sim.CtrLogRecords),
		},
		policy:     consistency.PolicyFor(cfg.Protocol, s.stats),
		waits:      waits,
		locks:      lock.NewManager(s.stats, waits),
		pool:       buffer.NewPool(clientPoolPages),
		srvPool:    buffer.NewPool(serverPoolPages),
		volumes:    make(map[storage.VolumeID]*storage.Volume, len(vols)),
		cs:         newClientState(),
		ct:         newCopyTable(),
		txs:        make(map[lock.TxID]*Tx),
		pendingRPC: make(map[uint64]chan rpcReply),
		cbOps:      make(map[uint64]*cbOp),
		cbStalls:   make(map[string]int),
		finished:   bounded.New[lock.TxID, struct{}](finishedSize),
		reqSeen:    bounded.New[dedupKey, *rpcReply](reqSeenSize),
	}
	if s.obsSet != nil {
		p.obs = s.obsSet.NewRegistry(name)
		p.locks.SetObs(p.obs)
		// Outstanding callback rounds, sampled live: a gracefully
		// detached fleet must read zero here (e2e asserts it).
		s.obsSet.RegisterGauge("callback_rounds_outstanding",
			map[string]string{"peer": name}, func() int64 {
				p.mu.Lock()
				n := len(p.cbOps)
				p.mu.Unlock()
				return int64(n)
			})
	}
	for _, v := range vols {
		p.volumes[v.ID] = v
	}
	if len(vols) > 0 {
		logDisk := storage.NewDisk("logdisk-"+name, cfg.Costs, s.stats)
		p.slog = wal.NewStableLog(logDisk)
		if p.obs.Active() {
			p.slog.SetForceObserver(func(cohort int) {
				p.obs.ObserveValue(obs.HistWALBatch, int64(cohort))
			})
		}
	}
	return p
}

// Name reports the peer's network name.
func (p *Peer) Name() string { return p.name }

// CPU exposes the peer's CPU resource (for utilization reporting).
func (p *Peer) CPU() *sim.Resource { return p.cpu }

// Locks exposes the peer's lock table (tests and diagnostics).
func (p *Peer) Locks() *lock.Manager { return p.locks }

// ClientPool exposes the client-role buffer pool (tests and diagnostics).
func (p *Peer) ClientPool() *buffer.Pool { return p.pool }

// Detach gracefully disconnects a client-role peer: every cached page is
// evicted and the resulting purge notices are flushed to the volume
// owners, so their copy tables forget this peer and no future callback
// round waits on an endpoint that is gone. It returns once the owners have
// applied the notices, or a flush has given up. Call only once local
// transactions have drained — a remote client process shutting down after
// its work is done; the peer must not run further transactions afterwards.
func (p *Peer) Detach() {
	p.cs.mu.Lock()
	evs := p.cs.victimsLocked(p.pool.EvictAll())
	p.cs.mu.Unlock()
	p.noticeEvictions(evs)
	for _, owner := range p.sys.place.Shards() {
		// A flush that gave up leaves this peer in the owner's copy table,
		// as a crash would; the peer is leaving either way.
		_ = p.flushPurges(owner)
	}
}

// ForceWAL forces this peer's stable log to disk, if it owns one. The
// graceful-shutdown barrier: run after the fabric has drained so every
// commit that was acknowledged is stable.
func (p *Peer) ForceWAL() {
	if p.slog != nil {
		p.slog.Force()
	}
}

// PreparedUndecided reports the number of prepared-but-undecided
// cross-shard transactions in this peer's log — the in-doubt residue a
// clean shutdown must have resolved to zero. Zero for client-role peers.
func (p *Peer) PreparedUndecided() int {
	if p.slog == nil {
		return 0
	}
	return p.slog.PreparedCount()
}

// noteError records an asynchronous failure for LastError.
func (p *Peer) noteError(err error) {
	if err == nil {
		return
	}
	p.mu.Lock()
	p.lastErr = err
	p.mu.Unlock()
}

// LastError reports the most recent asynchronous failure observed by this
// peer (nil if none).
func (p *Peer) LastError() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.lastErr
}

// sendFF sends a fire-and-forget protocol message. A shutdown fabric
// (ErrClosed) and a crashed endpoint (ErrPeerDown) are expected losses —
// the retry/dedup and crash-reclamation machinery covers them — but any
// other failure is a connection-level transport error (e.g. TCP's
// ErrNoRoute on a misconfigured topology) and is surfaced via LastError so
// the harness health check fails the run loudly instead of reporting
// healthy-looking throughput over a black hole.
func (p *Peer) sendFF(msg transport.Message) error {
	err := p.sys.net.Send(msg, transport.AnyPath)
	if err != nil && !errors.Is(err, transport.ErrClosed) && !errors.Is(err, transport.ErrPeerDown) {
		p.noteError(err)
	}
	return err
}

// owns reports whether this peer owns the item's volume.
func (p *Peer) owns(item storage.ItemID) bool {
	_, ok := p.volumes[item.Vol]
	return ok
}

// waitTimeout returns the lock-wait timeout in force at this peer: zero
// (wait forever) when timeouts are disabled, the configured FixedTimeout
// when positive, and the adaptive mean+stddev heuristic otherwise.
func (p *Peer) waitTimeout() time.Duration {
	switch {
	case !p.cfg.UseTimeouts:
		return 0
	case p.cfg.FixedTimeout > 0:
		return p.cfg.FixedTimeout
	}
	return p.waits.Timeout()
}

// handle is the transport delivery entry point; it runs in a fresh
// goroutine per message (the receiving "thread").
func (p *Peer) handle(m transport.Message) {
	switch m.Kind {
	case kindRequest:
		env, ok := m.Payload.(*rpcEnvelope)
		if !ok {
			return
		}
		if seen, cached := p.dedupCheck(m.From, env.ReqID); seen {
			// A re-delivery (duplicate fault, or a retry whose original
			// made it). If the first execution already finished, re-send
			// its reply — the reply may be what got lost; if it is still
			// in flight, its reply will answer the retry too.
			p.stats.Inc(sim.CtrDupSuppressed)
			if cached != nil {
				_ = p.sendFF(transport.Message{
					From: p.name, To: m.From, Kind: kindReply,
					CarriesPage: replyCarriesPage(cached.Body), Payload: cached,
				})
			}
			return
		}
		p.processPiggyback(m.From, env.Pig)
		p.cpu.Use(p.cfg.Costs.LockCPU)
		// The serve span joins this site's lane to the sender's RPC span.
		ssc := p.obs.StartSpan("", env.Span)
		var serveStart time.Time
		if p.obs.Active() {
			serveStart = time.Now()
		}
		body, err := p.serveRequest(m.From, ssc, env.Body)
		if p.obs.Active() {
			note := reqName(env.Body)
			if err != nil {
				note += ": " + err.Error()
			}
			p.obs.EmitSpan(obs.EvServe, ssc, "", time.Since(serveStart), m.From, note)
		}
		code, detail := encodeErr(err)
		reply := &rpcReply{ReqID: env.ReqID, Code: code, Detail: detail, Body: body}
		p.dedupComplete(m.From, env.ReqID, reply)
		_ = p.sendFF(transport.Message{
			From: p.name, To: m.From, Kind: kindReply,
			CarriesPage: replyCarriesPage(body), Payload: reply,
		})

	case kindReply:
		reply, ok := m.Payload.(*rpcReply)
		if !ok {
			return
		}
		p.mu.Lock()
		ch := p.pendingRPC[reply.ReqID]
		delete(p.pendingRPC, reply.ReqID)
		p.mu.Unlock()
		if ch != nil {
			ch <- *reply
		}

	case kindCallback:
		req, ok := m.Payload.(*callbackReq)
		if !ok {
			return
		}
		if seen, _ := p.dedupCheck(m.From, req.OpID); seen {
			// Duplicate callback delivery: the first copy will (or already
			// did) answer; a second ack would corrupt the round's count.
			p.stats.Inc(sim.CtrDupSuppressed)
			return
		}
		p.handleCallback(m.From, *req)

	case kindCallbackAck:
		ack, ok := m.Payload.(callbackAck)
		if !ok {
			return
		}
		p.routeCallbackEvent(ack.OpID, cbEvent{from: m.From, ack: &ack})

	case kindCallbackBlocked:
		bl, ok := m.Payload.(callbackBlocked)
		if !ok {
			return
		}
		p.stats.Inc(sim.CtrCallbackBlocked)
		p.routeCallbackEvent(bl.OpID, cbEvent{from: m.From, blocked: &bl})
	}
}

func replyCarriesPage(body any) bool {
	r, ok := body.(accessResp)
	return ok && r.Page != nil
}

// call performs a synchronous request to another peer, piggybacking any
// queued purge notices for that destination, then pig. sc is the caller's span
// context: the round trip becomes a child RPC span under it, carried in
// the envelope so the receiver's serve span joins the same trace. Each
// attempt is bounded by RPCTimeout and the same envelope — same ReqID,
// same piggyback, same span — is resent up to rpcMaxRetries times with
// exponential backoff, relying on the receiver's dedup table for
// at-least-once → exactly-once semantics. A request to this peer itself
// is served in place, under sc, with no message.
func (p *Peer) call(dest string, sc obs.SpanContext, body any, pig ...purgeNotice) (any, error) {
	if dest == p.name {
		return p.serveRequest(dest, sc, body)
	}
	p.mu.Lock()
	p.nextReq++
	id := p.nextReq
	ch := p.takeReplyChanLocked()
	p.pendingRPC[id] = ch
	p.mu.Unlock()
	cancel := func() {
		p.mu.Lock()
		delete(p.pendingRPC, id)
		p.mu.Unlock()
	}

	var rsc obs.SpanContext
	if p.obs.Active() {
		rsc = p.obs.StartSpan("", sc)
	}
	pig = append(p.cs.takePurges(dest), pig...)
	if len(pig) > 0 {
		p.stats.Add(sim.CtrPurgeSent, int64(len(pig)))
	}
	env := &rpcEnvelope{ReqID: id, Span: rsc, Pig: pig, Body: body}
	msg := transport.Message{From: p.name, To: dest, Kind: kindRequest, Payload: env}
	var rpcStart time.Time
	if p.obs.Active() {
		rpcStart = time.Now()
	}
	if err := p.sys.net.Send(msg, transport.AnyPath); err != nil {
		cancel()
		return nil, err
	}

	wait := p.cfg.RPCTimeout
	maxWait := rpcBackoffCap * p.cfg.RPCTimeout
	timer := time.NewTimer(wait)
	defer timer.Stop()
	for attempt := 0; ; attempt++ {
		select {
		case reply := <-ch:
			p.recycleReplyChan(ch)
			if p.obs.Active() {
				d := time.Since(rpcStart)
				p.obs.Observe(obs.HistRPC, d)
				p.obs.EmitSpan(obs.EvRPC, rsc, "", d, dest, reqName(body))
			}
			return reply.Body, decodeErr(reply.Code, reply.Detail)
		case <-timer.C:
			p.stats.Inc(sim.CtrTimeoutsFired)
			if attempt >= rpcMaxRetries {
				cancel()
				if p.obs.Active() {
					p.obs.EmitSpan(obs.EvTimeout, rsc.Under(), "", time.Since(rpcStart), dest,
						fmt.Sprintf("rpc gave up after %d attempts", attempt+1))
				}
				return nil, fmt.Errorf("%w: %s->%s after %d attempts",
					ErrRPCTimeout, p.name, dest, attempt+1)
			}
			// Resend the identical envelope: the receiver dedups by
			// (From, ReqID) and re-sends its cached reply if the first
			// execution's answer was what got lost.
			p.stats.Inc(sim.CtrRetries)
			if p.obs.Active() {
				p.obs.EmitSpan(obs.EvRetry, rsc.Under(), "", 0, dest,
					fmt.Sprintf("rpc resend #%d", attempt+1))
			}
			if err := p.sys.net.Send(msg, transport.AnyPath); err != nil {
				cancel()
				return nil, err
			}
			if wait *= 2; wait > maxWait {
				wait = maxWait
			}
			timer.Reset(wait)
		}
	}
}

// flushPurges sends owner the queued purge notices and pig in a nil-body
// request, if there are any, and returns once the owner has applied them
// or call has given up: a flush is retried, deduplicated and acknowledged
// like every other request, since its loss would lose the records it
// carries.
func (p *Peer) flushPurges(owner string, pig ...purgeNotice) (err error) {
	if pig = append(p.cs.takePurges(owner), pig...); len(pig) > 0 {
		_, err = p.call(owner, obs.SpanContext{}, nil, pig...)
	}
	return err
}

// processPiggyback applies purge notices received from a client: drop the
// copy table entries (detecting purge races via install counts), replicate
// the local locks the client reported, and redo any early-shipped records.
func (p *Peer) processPiggyback(from string, pig []purgeNotice) {
	if len(pig) > 0 {
		p.stats.Add(sim.CtrPurgeApplied, int64(len(pig)))
	}
	for _, n := range pig {
		if p.ct.removeCopy(n.Page, from, n.Install) {
			// The client re-fetched the page after sending this notice:
			// the purge request lost the race and is ignored.
			p.stats.Inc(sim.CtrPurgeRaces)
		}
		for _, r := range n.Locks {
			p.forceGrantReplica(r)
		}
		if len(n.Records) > 0 {
			p.appendAndRedo(n.Records, obs.SpanContext{})
		}
	}
}

// routeCallbackEvent hands an ack/blocked message to its operation.
func (p *Peer) routeCallbackEvent(opID uint64, ev cbEvent) {
	p.mu.Lock()
	op := p.cbOps[opID]
	p.mu.Unlock()
	if op != nil {
		op.events <- ev
	}
}

// registerOp installs a callback operation for event routing.
func (p *Peer) registerOp(op *cbOp) {
	p.mu.Lock()
	p.cbOps[op.id] = op
	p.mu.Unlock()
}

// unregisterOp removes a finished callback operation.
func (p *Peer) unregisterOp(op *cbOp) {
	p.mu.Lock()
	delete(p.cbOps, op.id)
	p.mu.Unlock()
}

// liveTx looks up a live local transaction; nil once it has finished.
func (p *Peer) liveTx(id lock.TxID) *Tx {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.txs[id]
}

// noteReplicated records that txid's local-only locks were replicated at
// owner and therefore must be released there when txid finishes. If the
// transaction has already finished (the replication lost a race with its
// finish, see Tx.finish), a release is sent at once instead.
func (p *Peer) noteReplicated(txid lock.TxID, owner string) {
	if txid.IsCallbackThread() || owner == p.name || txid.Site != p.name {
		return
	}
	if t := p.liveTx(txid); t != nil {
		t.mu.Lock()
		live := t.state != txCommitted && t.state != txAborted
		if live {
			t.replicatedTo = addSorted(t.replicatedTo, owner)
		}
		t.mu.Unlock()
		if live {
			return
		}
	}
	_, _ = p.call(owner, obs.SpanContext{}, releaseReq{Tx: txid})
}

// markFinished tombstones a transaction at this peer's server role.
func (p *Peer) markFinished(txid lock.TxID) {
	p.mu.Lock()
	p.finished.Put(txid, struct{}{})
	p.mu.Unlock()
}

// isFinished reports whether a transaction is tombstoned here.
func (p *Peer) isFinished(txid lock.TxID) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.finished.Has(txid)
}

// dedupCheck records a request or callback as seen, or reports it
// already seen — with the cached reply if it is a request whose first
// execution has completed.
func (p *Peer) dedupCheck(from string, id uint64) (seen bool, cached *rpcReply) {
	key := dedupKey{from, id}
	p.mu.Lock()
	defer p.mu.Unlock()
	if r, ok := p.reqSeen.Get(key); ok {
		return true, r
	}
	p.reqSeen.Put(key, nil)
	return false, nil
}

// dedupComplete caches the reply of a finished request for re-sends. The
// entry may have been evicted meanwhile; it is not resurrected.
func (p *Peer) dedupComplete(from string, id uint64, reply *rpcReply) {
	p.mu.Lock()
	p.reqSeen.Update(dedupKey{from, id}, reply)
	p.mu.Unlock()
}

// noteCbStall records one zero-progress callback-round stall implicating
// client and reports whether its consecutive-stall streak has reached the
// Config.DeadClientStalls fencing threshold.
func (p *Peer) noteCbStall(client string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.cbStalls[client]++
	return p.cbStalls[client] >= p.cfg.DeadClientStalls
}

// noteCbAlive resets client's stall streak: any reply — ack or blocked —
// proves the client is alive, however slow.
func (p *Peer) noteCbAlive(client string) {
	p.mu.Lock()
	delete(p.cbStalls, client)
	p.mu.Unlock()
}

// peerDown reclaims everything a crashed peer left at this peer, so the
// survivors make progress instead of blocking on replies that will never
// come. Callback rounds waiting on the dead client are completed with a
// synthetic ack (dropping its copies below makes the invalidation true);
// its cached copies are dropped from the copy table; and each of its
// transactions is settled (see settle) — presumed aborted unless it is a
// prepared one this peer coordinates and recorded as committed — except a
// transaction prepared here under another coordinator, which waits for
// the resolver.
func (p *Peer) peerDown(dead string) {
	reclaimed := false

	p.mu.Lock()
	ops := make([]*cbOp, 0, len(p.cbOps))
	for _, op := range p.cbOps {
		ops = append(ops, op)
	}
	p.mu.Unlock()
	for _, op := range ops {
		if slices.Contains(op.waitingClients(), dead) {
			select {
			case op.events <- cbEvent{from: dead, ack: &callbackAck{OpID: op.id, Invalidated: true}}:
			default:
			}
		}
	}

	if p.ct.removeCopies(dead, func(storage.ItemID) bool { return true }) > 0 {
		reclaimed = true
	}

	txs := make(map[lock.TxID]bool)
	for _, txid := range p.locks.TxsBySite(dead) {
		txs[txid] = true
	}
	coordOf := make(map[lock.TxID]string)
	if p.slog != nil {
		for _, txid := range p.slog.ActiveTxs() {
			if txid.Site == dead {
				txs[txid] = true
			}
		}
		for _, pt := range p.slog.PreparedTxs() {
			coordOf[pt.Tx] = pt.Coord
		}
	}
	for txid := range txs {
		// A prepared transaction is decided by its coordinator alone: a
		// participant keeps it, locks and all, until the resolver asks;
		// the coordinator settles it now, since its dead home will never
		// drive the decide round, recording abort unless commit was
		// already recorded.
		coord, prepared := coordOf[txid]
		if prepared && coord != p.name {
			continue
		}
		commit := prepared && p.slog.ResolveStatus(txid) == wal.DecisionCommit
		if !p.settle(txid, commit) && prepared {
			p.stats.Inc(sim.Ctr2PCPresumedAborts)
		}
		reclaimed = true
	}

	// Client role: locks installed here by the dead server's callback
	// threads would block local transactions forever.
	for _, txid := range p.locks.TxsBySite(lock.CallbackThread(dead, 0).Site) {
		p.locks.ReleaseAll(txid)
		reclaimed = true
	}

	// Pending lock replications at the dead owner are moot.
	p.mu.Lock()
	for _, t := range p.txs {
		t.mu.Lock()
		t.replicatedTo = slices.DeleteFunc(t.replicatedTo, func(o string) bool { return o == dead })
		t.mu.Unlock()
	}
	p.mu.Unlock()

	if reclaimed {
		p.stats.Inc(sim.CtrCrashRecoveries)
		if p.obs.Active() {
			p.obs.Emit(obs.EvCrashReclaim, "", dead, 0, "reclaimed state of dead peer")
		}
	}
}

// prepareResolveFactor is how long, in units of Config.RPCTimeout, a
// participant leaves a prepared cross-shard transaction in doubt before
// resolving it: asking the coordinator for the fate, or — when the
// coordinator is unreachable or silent — presuming abort.
const prepareResolveFactor = 16

// startResolver launches the background in-doubt resolver for an owning
// peer: prepared cross-shard transactions whose decide/finish never
// arrived are resolved by asking the coordinator — or, on coordinator
// silence, by presumed abort. A no-op for client-role peers (no log).
func (p *Peer) startResolver() {
	if p.slog == nil {
		return
	}
	go p.resolveLoop()
}

func (p *Peer) resolveLoop() {
	tick := p.cfg.RPCTimeout
	if tick < 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-p.sys.closed:
			return
		case <-t.C:
			for _, pt := range p.slog.PreparedTxs() {
				if time.Since(pt.Since) < prepareResolveFactor*p.cfg.RPCTimeout {
					continue
				}
				p.resolvePrepared(pt)
			}
		}
	}
}

// resolvePrepared settles one aged in-doubt transaction by asking its
// coordinator — possibly this peer — for the fate. The coordinator's
// recorded decision is authoritative: commit applies phase two here, and
// anything else — a recorded abort, an unreachable coordinator, a dead
// one — is presumed abort. A coordinator with no decision records abort
// before answering, so a late commit request fails instead of splitting
// the fate.
func (p *Peer) resolvePrepared(pt wal.PreparedTx) {
	if !p.slog.IsPrepared(pt.Tx) {
		return // decided while the snapshot aged
	}
	body, _ := p.call(pt.Coord, obs.SpanContext{}, statusReq{Tx: pt.Tx})
	sr, _ := body.(statusResp) // no answer: presumed abort
	if !p.slog.IsPrepared(pt.Tx) {
		return // a finish arrived while we asked around
	}
	if !p.settle(pt.Tx, sr.Commit) {
		p.stats.Inc(sim.Ctr2PCPresumedAborts)
	}
}
