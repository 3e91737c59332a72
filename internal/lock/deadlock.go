package lock

// Deadlock detection-at-block with a *scoped* waits-for walk: instead of
// rebuilding the whole waits-for graph from the full lock table (O(table)
// under a global mutex, as the pre-sharding implementation did), the walk
// starts at the just-blocked request and expands edges lazily — the
// blockers of one waiting request are computed under that request's shard
// mutex only, and a transaction's other outstanding waits come from the
// waiter registry. At most one shard mutex is held at any moment, so the
// walk is deadlock-free itself and its cost tracks the depth of the
// dependency chain, not the table size.
//
// Because the walk reads shards at different instants, it sees a slightly
// loose snapshot: a cycle that forms *while* the walk runs may be missed
// (the later of the two closing requests will see it, because requests
// register in the waiter list before their walk starts; genuinely
// concurrent misses are resolved by lock-wait timeouts, exactly as
// distributed deadlocks are), and an edge that vanishes mid-walk can in
// principle produce a stale victim — a safe outcome, since ErrDeadlock
// aborts are an expected event the protocol already retries.

// addWaiter registers a blocked request in the waiter registry. Called
// with the request's shard mutex held (shard → wmu ordering).
func (m *Manager) addWaiter(req *request) {
	m.wmu.Lock()
	set, ok := m.waiting[req.tx]
	if !ok {
		set = make(map[*request]struct{})
		m.waiting[req.tx] = set
	}
	set[req] = struct{}{}
	m.wmu.Unlock()
}

// removeWaiter unregisters a settled request.
func (m *Manager) removeWaiter(req *request) {
	m.wmu.Lock()
	if set, ok := m.waiting[req.tx]; ok {
		delete(set, req)
		if len(set) == 0 {
			delete(m.waiting, req.tx)
		}
	}
	m.wmu.Unlock()
}

// waitersOf snapshots tx's outstanding waiting requests.
func (m *Manager) waitersOf(tx TxID) []*request {
	m.wmu.Lock()
	defer m.wmu.Unlock()
	set := m.waiting[tx]
	out := make([]*request, 0, len(set))
	for r := range set {
		out = append(out, r)
	}
	return out
}

// blockersOf computes the out-edges of one waiting request: the holders of
// incompatible granted locks on its item plus earlier incompatible waiters
// in its queue. It locks only the request's shard.
func (m *Manager) blockersOf(r *request) []TxID {
	s := m.shardOf(r.item)
	s.mu.Lock()
	defer s.mu.Unlock()
	if r.done {
		return nil
	}
	h := s.lookupLocked(r.item)
	if h == nil {
		return nil
	}
	var out []TxID
	for _, g := range h.granted {
		if g.tx != r.tx && !Compatible(g.mode, r.mode) {
			out = append(out, g.tx)
		}
	}
	for _, earlier := range h.queue {
		if earlier == r {
			break
		}
		if earlier.tx != r.tx && !Compatible(earlier.mode, r.mode) {
			out = append(out, earlier.tx)
		}
	}
	return out
}

// wouldDeadlock reports whether req's wait closes a waits-for cycle back
// to req.tx. The victim policy is the paper's: the requesting transaction
// whose wait closed the cycle is aborted.
func (m *Manager) wouldDeadlock(req *request) bool {
	return m.reaches(m.blockersOf(req), req.tx, nil)
}

// reaches runs the lazy DFS: from the given frontier of transactions,
// following waits-for edges, can `target` be reached? Transactions in
// `excluded` are treated as already-aborted (their edges are skipped).
func (m *Manager) reaches(frontier []TxID, target TxID, excluded map[TxID]bool) bool {
	seen := make(map[TxID]bool)
	stack := frontier
	for len(stack) > 0 {
		t := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if t == target {
			return true
		}
		if seen[t] || excluded[t] {
			continue
		}
		seen[t] = true
		for _, r := range m.waitersOf(t) {
			stack = append(stack, m.blockersOf(r)...)
		}
	}
	return false
}

// DetectAll runs a deadlock search over every currently-waiting
// transaction and returns one victim per discovered cycle. The protocol
// normally relies on detection-at-block; this entry point exists for the
// explicit check invoked after replicating callback conflicts and for
// tests.
func (m *Manager) DetectAll() []TxID {
	m.wmu.Lock()
	txs := make([]TxID, 0, len(m.waiting))
	for t := range m.waiting {
		txs = append(txs, t)
	}
	m.wmu.Unlock()

	var victims []TxID
	excluded := make(map[TxID]bool)
	for _, t := range txs {
		if excluded[t] {
			continue
		}
		var frontier []TxID
		for _, r := range m.waitersOf(t) {
			frontier = append(frontier, m.blockersOf(r)...)
		}
		if m.reaches(frontier, t, excluded) {
			victims = append(victims, t)
			excluded[t] = true
		}
	}
	return victims
}
