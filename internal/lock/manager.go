package lock

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"sync"

	"adaptivecc/internal/obs"
	"adaptivecc/internal/sim"
	"adaptivecc/internal/storage"
)

// TxID globally identifies a transaction: the name of the site where it
// originated plus a sequence number unique within that site (paper §4).
type TxID struct {
	Site string
	Seq  uint64
}

// String renders "site:seq".
func (t TxID) String() string { return t.Site + ":" + strconv.FormatUint(t.Seq, 10) }

// Zero reports whether the ID is the zero value.
func (t TxID) Zero() bool { return t == TxID{} }

// callbackSite prefixes the site of every callback thread's identity.
const callbackSite = "#cb/"

// CallbackThread is the lock-table identity of the callback thread that
// runs server's callback op at a client. The thread acts for the
// calling-back transaction but has its own ID, so exactly the locks it
// acquired are released when it finishes (that transaction may hold locks
// at the same peer independently).
func CallbackThread(server string, op uint64) TxID {
	return TxID{Site: callbackSite + server, Seq: op}
}

// IsCallbackThread reports whether t belongs to a callback thread rather
// than a transaction.
func (t TxID) IsCallbackThread() bool { return strings.HasPrefix(t.Site, callbackSite) }

// Sentinel errors returned by Lock.
var (
	// ErrDeadlock is returned to the requester chosen as a deadlock victim.
	ErrDeadlock = errors.New("lock: deadlock victim")
	// ErrTimeout is returned when a wait exceeds its timeout.
	ErrTimeout = errors.New("lock: wait timed out")
	// ErrWouldBlock is returned for NoWait requests that cannot be granted.
	ErrWouldBlock = errors.New("lock: would block")
	// ErrCanceled is returned when the waiter's transaction is torn down.
	ErrCanceled = errors.New("lock: wait canceled")
)

// Options controls a single Lock call.
type Options struct {
	// Timeout bounds the wait; zero means wait forever (subject to
	// deadlock detection and cancellation).
	Timeout time.Duration
	// NoWait makes the request fail with ErrWouldBlock instead of queuing.
	NoWait bool
	// SkipAncestors suppresses the implicit intention locks on ancestors.
	// Callbacks use this: a callback for item I never locks above I's level
	// (paper §4.3.1).
	SkipAncestors bool
	// NoDeadlock suppresses deadlock detection for this wait (used with
	// timeouts only, for the ablation experiment).
	NoDeadlock bool
	// Span is the causal context of the operation issuing this request;
	// blocked-wait trace events are parented under it. Zero when
	// observability is off (or the caller has no context).
	Span obs.SpanContext
}

// Holder describes one granted entry on an item.
type Holder struct {
	Tx       TxID
	Mode     Mode
	Adaptive bool
}

// Manager is a lock table shared by all transactions at one site. The
// table is striped into shards (see shard.go); each shard serializes its
// own items, and deadlock detection expands the waits-for graph lazily
// from the blocked request (see deadlock.go) so that no operation ever
// holds more than one shard mutex at a time.
type Manager struct {
	shards [numShards]shard

	// wmu guards the registry of blocked requests by transaction, which the
	// scoped deadlock walk and CancelWaits use to find a transaction's
	// outstanding waits without scanning the table. Lock ordering: a shard
	// mutex may be held when taking wmu, never the reverse.
	wmu     sync.Mutex
	waiting map[TxID]map[*request]struct{}

	// tmu guards the transaction→shards presence mask used by ReleaseAll
	// and HeldItems to visit only shards actually holding grants. Leaf
	// mutex: taken under a shard mutex, never holds anything else.
	tmu      sync.Mutex
	txShards map[TxID]uint64

	stats *sim.Stats
	waits *sim.WaitTracker
	obs   *obs.Registry // nil-safe; set by SetObs when observability is on
}

type head struct {
	id   storage.ItemID
	node *pageNode // the page node a page/object head hangs from; nil above page level
	// granted is the granted group, one entry per transaction, found by
	// scanning: a group is as large as the site's concurrently active
	// transactions (one on a client's object head, tens on a server's file
	// head), so the scan beats hashing a TxID. Order is insertion order,
	// disturbed only by drop's swap-remove.
	granted []*grantEntry
	queue   []*request
}

// find returns tx's entry in the granted group, or nil. The transactions
// met on one head mostly share a site and differ in sequence number; the
// compiler orders a TxID comparison so that Seq and the length of Site are
// compared before Site's bytes, which are reached only on a match.
func (h *head) find(tx TxID) *grantEntry {
	for _, g := range h.granted {
		if g.tx == tx {
			return g
		}
	}
	return nil
}

// drop removes g from the granted group.
func (h *head) drop(g *grantEntry) {
	for i, o := range h.granted {
		if o == g {
			h.granted = swapRemove(h.granted, i)
			return
		}
	}
}

// compatibleLocked reports whether mode is compatible with every granted
// entry on h other than tx's own.
func compatibleLocked(h *head, tx TxID, mode Mode) bool {
	for _, g := range h.granted {
		if g.tx != tx && !Compatible(g.mode, mode) {
			return false
		}
	}
	return true
}

type grantEntry struct {
	tx       TxID
	mode     Mode
	adaptive bool
}

type request struct {
	tx      TxID
	item    storage.ItemID
	mode    Mode // full target mode (supremum for conversions)
	convert bool
	ready   chan error // buffered(1); receives nil on grant
	// granted and done are written under the item's shard mutex. done marks
	// the request finally settled (granted or canceled): exactly one party
	// completes it.
	granted bool
	done    bool
}

// NewManager returns an empty lock table. stats and waits may be nil.
func NewManager(stats *sim.Stats, waits *sim.WaitTracker) *Manager {
	if stats == nil {
		stats = sim.NewStats()
	}
	m := &Manager{
		waiting:  make(map[TxID]map[*request]struct{}),
		txShards: make(map[TxID]uint64),
		stats:    stats,
		waits:    waits,
	}
	for i := range m.shards {
		m.shards[i].init(uint(i))
	}
	return m
}

// SetObs attaches an observability registry: blocked lock waits are
// recorded into its lock-wait histogram and emitted as trace events. A
// nil registry (the default) keeps the instrumentation inert.
func (m *Manager) SetObs(r *obs.Registry) { m.obs = r }

// Lock acquires item in mode for tx, first taking the necessary intention
// locks on ancestors (unless opt.SkipAncestors). Re-acquiring a covered
// mode is a no-op; a stronger request becomes a conversion.
func (m *Manager) Lock(tx TxID, item storage.ItemID, mode Mode, opt Options) error {
	if mode == NL {
		return nil
	}
	if !opt.SkipAncestors {
		intent := IntentionFor(mode)
		chain, n := item.AncestorChain()
		for _, anc := range chain[:n] {
			if err := m.lockOne(tx, anc, intent, opt); err != nil {
				return err
			}
		}
	}
	return m.lockOne(tx, item, mode, opt)
}

func (m *Manager) lockOne(tx TxID, item storage.ItemID, mode Mode, opt Options) error {
	s := m.shardOf(item)
	s.mu.Lock()
	h := s.headOfLocked(item)

	existing := h.find(tx)
	var target Mode
	convert := false
	if existing != nil {
		target = Supremum(existing.mode, mode)
		if target == existing.mode {
			s.mu.Unlock()
			return nil
		}
		convert = true
	} else {
		target = mode
	}

	if grantableLocked(h, tx, target, convert) {
		m.installLocked(s, h, existing, tx, target)
		s.mu.Unlock()
		return nil
	}

	if opt.NoWait {
		s.gcHeadLocked(h)
		s.mu.Unlock()
		return ErrWouldBlock
	}

	req := &request{tx: tx, item: item, mode: target, convert: convert, ready: make(chan error, 1)}
	if convert {
		// Conversions queue ahead of fresh requests.
		i := 0
		for i < len(h.queue) && h.queue[i].convert {
			i++
		}
		h.queue = append(h.queue, nil)
		copy(h.queue[i+1:], h.queue[i:])
		h.queue[i] = req
	} else {
		h.queue = append(h.queue, req)
	}
	m.addWaiter(req)
	s.mu.Unlock()

	if !opt.NoDeadlock && m.wouldDeadlock(req) {
		s.mu.Lock()
		if !req.done {
			req.done = true
			removeRequestLocked(h, req)
			m.removeWaiter(req)
			m.processQueueLocked(s, h)
			s.mu.Unlock()
			m.stats.Inc(sim.CtrDeadlockAborts)
			return ErrDeadlock
		}
		// Granted or canceled while the walk ran: take that outcome below.
		s.mu.Unlock()
	}

	m.stats.Inc(sim.CtrLockWaits)
	// The wait's trace events are leaves under the caller's span; a caller
	// without a context still gets events tied to the transaction. The span
	// context (and its trace-name string) is only built when observability
	// is on: the obs-off wait path must not allocate.
	var wsc obs.SpanContext
	if m.obs.Active() {
		wsc = opt.Span.Under()
		if wsc.Trace == "" {
			wsc.Trace = tx.String()
		}
		m.obs.EmitSpan(obs.EvLockBlock, wsc, item.String(), 0, "", mode.String())
	}
	start := time.Now()
	err := m.await(req, opt.Timeout)
	wait := time.Since(start)
	if m.waits != nil {
		m.waits.Observe(wait)
	}
	if m.obs.Active() {
		m.obs.Observe(obs.HistLockWait, wait)
		note := mode.String()
		if err != nil {
			note = err.Error()
		}
		m.obs.EmitSpan(obs.EvLockGrant, wsc, item.String(), wait, "", note)
	}
	return err
}

// await blocks on the request outcome, handling timeouts.
func (m *Manager) await(req *request, timeout time.Duration) error {
	if timeout <= 0 {
		return <-req.ready
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case err := <-req.ready:
		return err
	case <-timer.C:
	}
	// Timed out: remove the request unless it was settled concurrently.
	s := m.shardOf(req.item)
	s.mu.Lock()
	if req.done {
		s.mu.Unlock()
		if req.granted {
			return <-req.ready
		}
		// Canceled concurrently; the timeout still wins the return value,
		// matching the pre-shard behavior.
		<-req.ready
		m.stats.Inc(sim.CtrTimeoutAborts)
		return ErrTimeout
	}
	req.done = true
	h := s.lookupLocked(req.item)
	removeRequestLocked(h, req)
	m.removeWaiter(req)
	m.processQueueLocked(s, h)
	s.mu.Unlock()
	m.stats.Inc(sim.CtrTimeoutAborts)
	return ErrTimeout
}

// grantableLocked reports whether tx may immediately hold item in mode.
// Caller holds the item's shard mutex.
func grantableLocked(h *head, tx TxID, mode Mode, convert bool) bool {
	if !compatibleLocked(h, tx, mode) {
		return false
	}
	if convert {
		return true // conversions only contend with the granted group
	}
	// Fairness: a fresh request must not overtake waiting requests.
	for _, r := range h.queue {
		if r.tx != tx {
			return false
		}
	}
	return true
}

// installLocked sets tx's grant on h to mode; g is tx's existing entry
// there (h.find(tx)), nil for a first grant.
func (m *Manager) installLocked(s *shard, h *head, g *grantEntry, tx TxID, mode Mode) {
	if g == nil {
		g = s.newGrantLocked(tx)
		h.granted = append(h.granted, g)
		m.indexLocked(s, tx, h, g)
	}
	g.mode = mode
}

func removeRequestLocked(h *head, req *request) {
	if h == nil {
		return
	}
	for i, r := range h.queue {
		if r == req {
			h.queue = append(h.queue[:i], h.queue[i+1:]...)
			return
		}
	}
}

// processQueueLocked grants every request that has become eligible. Caller
// holds s.mu; h may be nil.
func (m *Manager) processQueueLocked(s *shard, h *head) {
	if h == nil {
		return
	}
	blocked := false // a non-conversion earlier in the queue is still waiting
	i := 0
	for i < len(h.queue) {
		r := h.queue[i]
		ok := false
		if r.convert {
			ok = grantableLocked(h, r.tx, r.mode, true)
		} else if !blocked {
			// Fresh request: compatible with the whole granted group.
			ok = compatibleLocked(h, r.tx, r.mode)
		}
		if ok {
			m.installLocked(s, h, h.find(r.tx), r.tx, r.mode)
			r.granted = true
			r.done = true
			m.removeWaiter(r)
			r.ready <- nil
			h.queue = append(h.queue[:i], h.queue[i+1:]...)
			continue
		}
		if !r.convert {
			blocked = true
		}
		i++
	}
	s.gcHeadLocked(h)
}

// Unlock fully releases tx's lock on item (if held) and wakes eligible
// waiters.
func (m *Manager) Unlock(tx TxID, item storage.ItemID) {
	s := m.shardOf(item)
	s.mu.Lock()
	defer s.mu.Unlock()
	h := s.lookupLocked(item)
	if h == nil {
		return
	}
	g := h.find(tx)
	if g == nil {
		return
	}
	h.drop(g)
	m.unindexLocked(s, tx, h)
	s.freeGrantLocked(g)
	m.processQueueLocked(s, h)
}

// Downgrade weakens tx's lock on item to mode. Downgrading to NL releases
// the lock. It is an error to "downgrade" to a non-covered mode.
func (m *Manager) Downgrade(tx TxID, item storage.ItemID, to Mode) error {
	s := m.shardOf(item)
	s.mu.Lock()
	defer s.mu.Unlock()
	h := s.lookupLocked(item)
	if h == nil {
		return fmt.Errorf("lock: downgrade of unheld item %v", item)
	}
	g := h.find(tx)
	if g == nil {
		return fmt.Errorf("lock: downgrade of unheld item %v by %v", item, tx)
	}
	if !Covers(g.mode, to) {
		return fmt.Errorf("lock: downgrade %v -> %v is not a downgrade", g.mode, to)
	}
	if to == NL {
		h.drop(g)
		m.unindexLocked(s, tx, h)
		s.freeGrantLocked(g)
	} else {
		g.mode = to
	}
	m.processQueueLocked(s, h)
	return nil
}

// ForceGrant installs a granted entry for tx on item in (at least) mode,
// bypassing the wait queue. The protocol uses it to replicate, at the
// server, locks that a transaction already holds at a client; the caller
// is responsible for first downgrading conflicting locks so that the
// resulting table state is one a centralized execution could have produced.
func (m *Manager) ForceGrant(tx TxID, item storage.ItemID, mode Mode) {
	s := m.shardOf(item)
	s.mu.Lock()
	defer s.mu.Unlock()
	h := s.headOfLocked(item)
	if g := h.find(tx); g != nil {
		g.mode = Supremum(g.mode, mode)
		return
	}
	m.installLocked(s, h, nil, tx, mode)
}

// ReleaseAll releases every lock held by tx and cancels its waiting
// requests with ErrCanceled. Only shards where tx actually holds grants
// are visited.
func (m *Manager) ReleaseAll(tx TxID) {
	mask := m.txShardMask(tx)
	for i := uint(0); mask != 0; i++ {
		if mask&(1<<i) == 0 {
			continue
		}
		mask &^= 1 << i
		s := &m.shards[i]
		s.mu.Lock()
		set := s.byTx[tx]
		if set == nil {
			s.mu.Unlock()
			continue
		}
		// Detach the index set up front (instead of snapshotting it) so the
		// release path does not allocate. Queue processing below may
		// re-index a grant for this same transaction — into a fresh set. A
		// listed head stays live until its entry here is processed: this
		// transaction's grant is what holds it.
		delete(s.byTx, tx)
		m.dropTxShard(tx, s)
		for _, ref := range set.refs {
			ref.h.drop(ref.g)
			s.freeGrantLocked(ref.g)
			m.processQueueLocked(s, ref.h)
		}
		s.freeSetLocked(set)
		s.mu.Unlock()
	}
	m.CancelWaits(tx)
}

// CancelWaits wakes every waiting request of tx with ErrCanceled.
func (m *Manager) CancelWaits(tx TxID) {
	for _, req := range m.waitersOf(tx) {
		s := m.shardOf(req.item)
		s.mu.Lock()
		if req.done {
			s.mu.Unlock()
			continue
		}
		req.done = true
		h := s.lookupLocked(req.item)
		removeRequestLocked(h, req)
		m.removeWaiter(req)
		req.ready <- ErrCanceled
		m.processQueueLocked(s, h)
		s.mu.Unlock()
	}
}

// HeldMode reports the mode tx holds on item (NL if none).
func (m *Manager) HeldMode(tx TxID, item storage.ItemID) Mode {
	s := m.shardOf(item)
	s.mu.Lock()
	defer s.mu.Unlock()
	if h := s.lookupLocked(item); h != nil {
		if g := h.find(tx); g != nil {
			return g.mode
		}
	}
	return NL
}

// Holders lists the granted entries on item.
func (m *Manager) Holders(item storage.ItemID) []Holder {
	s := m.shardOf(item)
	s.mu.Lock()
	defer s.mu.Unlock()
	h := s.lookupLocked(item)
	if h == nil {
		return nil
	}
	out := make([]Holder, 0, len(h.granted))
	for _, g := range h.granted {
		out = append(out, Holder{Tx: g.tx, Mode: g.mode, Adaptive: g.adaptive})
	}
	return out
}

// Conflicting lists transactions other than tx whose granted locks on item
// are incompatible with mode. The callback machinery sends this list in
// "callback-blocked" replies.
func (m *Manager) Conflicting(item storage.ItemID, mode Mode, tx TxID) []TxID {
	return m.ConflictingInto(item, mode, tx, nil)
}

// ConflictingInto is Conflicting with a caller-supplied result buffer:
// conflicting transactions are appended to out (which may be nil) and the
// extended slice returned. Hot callers that probe conflicts per operation
// reuse one buffer across calls and stay allocation-free.
func (m *Manager) ConflictingInto(item storage.ItemID, mode Mode, tx TxID, out []TxID) []TxID {
	s := m.shardOf(item)
	s.mu.Lock()
	defer s.mu.Unlock()
	h := s.lookupLocked(item)
	if h == nil {
		return out
	}
	for _, g := range h.granted {
		if g.tx != tx && !Compatible(g.mode, mode) {
			out = append(out, g.tx)
		}
	}
	return out
}

// SetAdaptive sets or clears the adaptive bit inside tx's granted page lock
// (paper §4.1.2). It is a no-op if tx holds no lock on item.
func (m *Manager) SetAdaptive(tx TxID, item storage.ItemID, v bool) {
	s := m.shardOf(item)
	s.mu.Lock()
	defer s.mu.Unlock()
	if h := s.lookupLocked(item); h != nil {
		if g := h.find(tx); g != nil {
			g.adaptive = v
		}
	}
}

// IsAdaptive reports the adaptive bit of tx's lock on item.
func (m *Manager) IsAdaptive(tx TxID, item storage.ItemID) bool {
	s := m.shardOf(item)
	s.mu.Lock()
	defer s.mu.Unlock()
	if h := s.lookupLocked(item); h != nil {
		if g := h.find(tx); g != nil {
			return g.adaptive
		}
	}
	return false
}

// AdaptiveHolders lists transactions holding an adaptive lock on item.
func (m *Manager) AdaptiveHolders(item storage.ItemID) []TxID {
	s := m.shardOf(item)
	s.mu.Lock()
	defer s.mu.Unlock()
	h := s.lookupLocked(item)
	if h == nil {
		return nil
	}
	var out []TxID
	for _, g := range h.granted {
		if g.adaptive {
			out = append(out, g.tx)
		}
	}
	return out
}

// HeldItems lists every item tx holds a lock on, with modes (for tests).
func (m *Manager) HeldItems(tx TxID) map[storage.ItemID]Mode {
	out := make(map[storage.ItemID]Mode)
	mask := m.txShardMask(tx)
	for i := uint(0); mask != 0; i++ {
		if mask&(1<<i) == 0 {
			continue
		}
		mask &^= 1 << i
		s := &m.shards[i]
		s.mu.Lock()
		if set := s.byTx[tx]; set != nil {
			for _, ref := range set.refs {
				out[ref.h.id] = ref.g.mode
			}
		}
		s.mu.Unlock()
	}
	return out
}

// TxsBySite lists every transaction homed at site that currently holds or
// awaits a lock in this table. Crash reclamation uses it to find the state
// a dead peer left behind.
func (m *Manager) TxsBySite(site string) []TxID {
	seen := make(map[TxID]bool)
	m.tmu.Lock()
	for tx := range m.txShards {
		if tx.Site == site {
			seen[tx] = true
		}
	}
	m.tmu.Unlock()
	m.wmu.Lock()
	for tx := range m.waiting {
		if tx.Site == site {
			seen[tx] = true
		}
	}
	m.wmu.Unlock()
	out := make([]TxID, 0, len(seen))
	for tx := range seen {
		out = append(out, tx)
	}
	return out
}

// NumItems reports the number of live lock heads (for tests).
func (m *Manager) NumItems() int {
	n := 0
	m.forEachHead(func(*head) bool { n++; return true })
	return n
}
