package lock

import (
	"adaptivecc/internal/storage"
)

// Info describes one granted lock in a table scan.
type Info struct {
	Tx       TxID
	Item     storage.ItemID
	Mode     Mode
	Adaptive bool
}

// emitHeadLocked feeds every granted entry of h to fn; it reports whether
// iteration should continue. Caller holds the head's shard mutex.
func emitHeadLocked(h *head, fn func(Info) bool) bool {
	if h == nil {
		return true
	}
	for _, g := range h.granted {
		if !fn(Info{Tx: g.tx, Item: h.id, Mode: g.mode, Adaptive: g.adaptive}) {
			return false
		}
	}
	return true
}

// ForEachLockWithin calls fn for every granted lock on item or its
// descendants, without allocating. Page scope — the protocol's hot case
// (availability masks before every page ship, deescalation collection) —
// locks a single shard and walks that page's node, so the cost tracks the
// locks actually under the page, not the table size.
//
// fn runs with a shard mutex held: it must be fast, must not block, and
// must not call back into the Manager. Returning false stops the scan.
// Locks granted or released concurrently with the scan may or may not be
// observed (same as any snapshot taken by a separate Manager call).
func (m *Manager) ForEachLockWithin(item storage.ItemID, fn func(Info) bool) {
	emit := func(h *head) bool { return emitHeadLocked(h, fn) }
	switch item.Level {
	case storage.LevelObject:
		s := m.shardOf(item)
		s.mu.Lock()
		emit(s.lookupLocked(item))
		s.mu.Unlock()

	case storage.LevelPage:
		// The page head and all of its object heads hang from one node.
		s := m.shardOf(item)
		s.mu.Lock()
		if n := s.pages[item]; n != nil {
			n.heads(emit)
		}
		s.mu.Unlock()

	case storage.LevelFile:
		// The file's page nodes are spread across shards; each shard's
		// byFile entry lists exactly its own.
		for i := range m.shards {
			s := &m.shards[i]
			s.mu.Lock()
			cont := emit(s.items[item])
			if f := s.byFile[item]; cont && f != nil {
				for _, n := range f.nodes {
					if cont = n.heads(emit); !cont {
						break
					}
				}
			}
			s.mu.Unlock()
			if !cont {
				return
			}
		}

	default: // volume scope: rare, full filtered scan
		m.forEachHead(func(h *head) bool { return !item.Contains(h.id) || emit(h) })
	}
}

// forEachHead visits every live head, shard by shard under that shard's
// mutex, until visit returns false.
func (m *Manager) forEachHead(visit func(*head) bool) {
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.Lock()
		cont := s.forEachHeadLocked(visit)
		s.mu.Unlock()
		if !cont {
			return
		}
	}
}

func (s *shard) forEachHeadLocked(visit func(*head) bool) bool {
	for _, h := range s.items {
		if !visit(h) {
			return false
		}
	}
	for _, n := range s.pages {
		if !n.heads(visit) {
			return false
		}
	}
	return true
}

// ForEachLock calls fn for every granted lock in the table, shard by
// shard. The same caveats as ForEachLockWithin apply: fn runs with a
// shard mutex held and must not call back into the Manager; the scan is
// a per-shard snapshot, not a global one. The invariant auditor uses it
// to sweep whole tables.
func (m *Manager) ForEachLock(fn func(Info) bool) {
	m.forEachHead(func(h *head) bool { return emitHeadLocked(h, fn) })
}

// OthersHoldWithin reports whether any transaction other than self holds
// a granted lock on item or one of its descendants. Identities for which
// ignore returns true (callback threads, say) are not counted. The
// consistency-policy layer uses it as a grain hint: a write may widen to
// page grain only while no other local transaction holds locks inside the
// page. The answer is a snapshot with ForEachLockWithin's caveats.
func (m *Manager) OthersHoldWithin(item storage.ItemID, self TxID, ignore func(TxID) bool) bool {
	found := false
	m.ForEachLockWithin(item, func(in Info) bool {
		if in.Tx == self || (ignore != nil && ignore(in.Tx)) {
			return true
		}
		found = true
		return false
	})
	return found
}

// LocksWithin lists every granted lock on item or its descendants. The
// protocol uses it to compute unavailable-object masks before shipping a
// page and to collect the object locks replicated during deescalation and
// page purges. Callers that only iterate should prefer ForEachLockWithin,
// which does not allocate the slice.
func (m *Manager) LocksWithin(item storage.ItemID) []Info {
	var out []Info
	m.ForEachLockWithin(item, func(in Info) bool {
		out = append(out, in)
		return true
	})
	return out
}
