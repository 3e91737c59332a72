package lock

import (
	"sync"

	"adaptivecc/internal/storage"
)

// The lock table is striped into numShards independently-locked shards so
// that concurrent protocol actions on unrelated items never serialize on a
// single mutex. Items are assigned to shards by a hash of their hierarchy
// prefix with one deliberate twist: a page and all of its objects hash to
// the same shard (the page prefix), so the hot page-scope queries
// (LocksWithin, availability masks, deescalation collection) lock exactly
// one shard and walk that page's node instead of scanning the whole table.
const numShards = 64

// shard is one stripe of the lock table. Inside a shard the table follows
// the hierarchy it locks: volume and file heads sit in items, and every
// page with a live lock on itself or on one of its objects has one
// pageNode holding those heads, so an object access costs one map lookup
// (the node) and a scan of at most a page's worth of slots.
type shard struct {
	mu  sync.Mutex
	idx uint // position in Manager.shards, for the tx→shards mask
	// items holds volume- and file-level heads only.
	items map[storage.ItemID]*head
	// pages holds one node per page (keyed by the page's ItemID) that has a
	// live page or object head; the node goes with its last head.
	pages map[storage.ItemID]*pageNode
	// byFile lists, per file ItemID, the page nodes of that file living in
	// this shard, so file-scope scans do not visit other files' pages.
	byFile map[storage.ItemID]*fileNodes
	// byTx indexes this shard's granted entries by transaction, so release
	// paths walk exactly the heads the transaction holds here.
	byTx map[TxID]*txSet

	// Free lists: heads, grant entries, page nodes and index sets are
	// recycled instead of reallocated, since the grant/release fast path
	// creates and destroys a handful of them per transaction step.
	headPool  []*head
	grantPool []*grantEntry
	nodePool  []*pageNode
	filePool  []*fileNodes
	setPool   []*txSet
}

// pageNode collects the live heads of one page: the page's own head (nil
// while only objects of the page are locked, as under SkipAncestors
// callbacks and ForceGrant) and its object heads, unordered and found by
// slot scan — a page has at most ObjectsPerPage objects plus the dummy
// slot, so the scan beats a second map.
type pageNode struct {
	id   storage.ItemID // the page
	page *head
	objs []*head
	file *fileNodes // the byFile set listing this node
	fidx int        // position in file.nodes, for O(1) unlinking
}

// fileNodes is one byFile entry.
type fileNodes struct {
	id    storage.ItemID // the file
	nodes []*pageNode
}

// heldRef is one granted entry seen from its transaction.
type heldRef struct {
	h *head
	g *grantEntry
}

// txSet lists the grants one transaction holds in one shard. byTx maps to
// a pointer so that appending a grant is one map lookup, not a lookup and
// a store.
type txSet struct {
	refs []heldRef
}

// poolCap bounds each per-shard free list.
const poolCap = 128

func (s *shard) init(idx uint) {
	s.idx = idx
	s.items = make(map[storage.ItemID]*head)
	s.pages = make(map[storage.ItemID]*pageNode)
	s.byFile = make(map[storage.ItemID]*fileNodes)
	s.byTx = make(map[TxID]*txSet)
}

// shardOf maps an item to its shard. Objects use their page's prefix so
// page-scope scans stay within one shard; files and volumes hash their own
// prefix.
func (m *Manager) shardOf(id storage.ItemID) *shard {
	var h uint64
	switch id.Level {
	case storage.LevelVolume:
		h = uint64(id.Vol)
	case storage.LevelFile:
		h = uint64(id.Vol)<<32 | uint64(id.File)
	default:
		h = uint64(id.Vol)<<52 ^ uint64(id.File)<<26 ^ uint64(id.Page)
	}
	h *= 0x9E3779B97F4A7C15 // Fibonacci hashing; shard index from the top bits
	return &m.shards[h>>58]
}

// pageOf returns the ItemID of the page a page- or object-level id belongs
// to: the key of its node. Unlike ItemID.PageID it accepts any level, so an
// id with a malformed level (ids arrive in messages) finds nothing instead
// of panicking.
func pageOf(id storage.ItemID) storage.ItemID {
	return storage.PageItem(id.Vol, id.File, id.Page)
}

// lookupLocked returns the live head for id, or nil. Caller holds s.mu.
func (s *shard) lookupLocked(id storage.ItemID) *head {
	if id.Level < storage.LevelPage {
		return s.items[id]
	}
	n := s.pages[pageOf(id)]
	if n == nil {
		return nil
	}
	if id.Level == storage.LevelPage {
		return n.page
	}
	return n.object(id.Slot)
}

// heads visits the node's live heads — the page's own, then its objects' —
// until visit returns false.
func (n *pageNode) heads(visit func(*head) bool) bool {
	if n.page != nil && !visit(n.page) {
		return false
	}
	for _, h := range n.objs {
		if !visit(h) {
			return false
		}
	}
	return true
}

// swapRemove deletes s[i] without keeping the order, zeroing the vacated
// slot so that a recycled slice pins nothing.
func swapRemove[T any](s []T, i int) []T {
	last := len(s) - 1
	s[i] = s[last]
	var zero T
	s[last] = zero
	return s[:last]
}

// object returns the node's live head for slot, or nil.
func (n *pageNode) object(slot uint16) *head {
	for _, h := range n.objs {
		if h.id.Slot == slot {
			return h
		}
	}
	return nil
}

// headOfLocked returns (creating if needed) the head for id, together with
// the page node and byFile entry a page- or object-level head hangs from.
// Caller holds s.mu.
func (s *shard) headOfLocked(id storage.ItemID) *head {
	if id.Level < storage.LevelPage {
		h := s.items[id]
		if h == nil {
			h = s.newHeadLocked(id, nil)
			s.items[id] = h
		}
		return h
	}
	pid := pageOf(id)
	n := s.pages[pid]
	if n == nil {
		n = s.newNodeLocked(pid)
	}
	if id.Level == storage.LevelPage {
		if n.page == nil {
			n.page = s.newHeadLocked(id, n)
		}
		return n.page
	}
	h := n.object(id.Slot)
	if h == nil {
		h = s.newHeadLocked(id, n)
		n.objs = append(n.objs, h)
	}
	return h
}

func (s *shard) newHeadLocked(id storage.ItemID, n *pageNode) *head {
	var h *head
	if k := len(s.headPool); k > 0 {
		h = s.headPool[k-1]
		s.headPool = s.headPool[:k-1]
	} else {
		h = &head{}
	}
	h.id, h.node = id, n
	return h
}

// newNodeLocked creates the node of page pid and lists it under its file.
func (s *shard) newNodeLocked(pid storage.ItemID) *pageNode {
	var n *pageNode
	if k := len(s.nodePool); k > 0 {
		n = s.nodePool[k-1]
		s.nodePool = s.nodePool[:k-1]
	} else {
		n = &pageNode{}
	}
	fid := storage.FileItem(pid.Vol, pid.File)
	f := s.byFile[fid]
	if f == nil {
		if k := len(s.filePool); k > 0 {
			f = s.filePool[k-1]
			s.filePool = s.filePool[:k-1]
		} else {
			f = &fileNodes{}
		}
		f.id = fid
		s.byFile[fid] = f
	}
	n.id, n.file, n.fidx = pid, f, len(f.nodes)
	f.nodes = append(f.nodes, n)
	s.pages[pid] = n
	return n
}

// newGrantLocked returns a zeroed grant entry for tx, recycling from the
// shard free list. Caller holds s.mu.
func (s *shard) newGrantLocked(tx TxID) *grantEntry {
	if n := len(s.grantPool); n > 0 {
		g := s.grantPool[n-1]
		s.grantPool = s.grantPool[:n-1]
		*g = grantEntry{tx: tx}
		return g
	}
	return &grantEntry{tx: tx}
}

// freeGrantLocked recycles a grant entry once both references to it (the
// head's granted group and the shard's byTx index) have been dropped. Caller
// holds s.mu.
func (s *shard) freeGrantLocked(g *grantEntry) {
	if g != nil && len(s.grantPool) < poolCap {
		*g = grantEntry{}
		s.grantPool = append(s.grantPool, g)
	}
}

// gcHeadLocked removes an empty head; a page or object head is unlinked
// from its node, and the node (with its byFile entry) goes with its last
// head. Caller holds s.mu.
func (s *shard) gcHeadLocked(h *head) {
	if len(h.granted) != 0 || len(h.queue) != 0 {
		return
	}
	if n := h.node; n == nil {
		delete(s.items, h.id)
	} else {
		if n.page == h {
			n.page = nil
		} else {
			for i, o := range n.objs {
				if o == h {
					n.objs = swapRemove(n.objs, i)
					break
				}
			}
		}
		if n.page == nil && len(n.objs) == 0 {
			s.freeNodeLocked(n)
		}
	}
	if len(s.headPool) < poolCap {
		// granted and queue are empty here and keep their capacity.
		h.queue = h.queue[:0]
		h.node = nil
		s.headPool = append(s.headPool, h)
	}
}

func (s *shard) freeNodeLocked(n *pageNode) {
	delete(s.pages, n.id)
	f := n.file
	f.nodes = swapRemove(f.nodes, n.fidx)
	if n.fidx < len(f.nodes) {
		f.nodes[n.fidx].fidx = n.fidx
	}
	if len(f.nodes) == 0 {
		delete(s.byFile, f.id)
		if len(s.filePool) < poolCap {
			s.filePool = append(s.filePool, f)
		}
	}
	if len(s.nodePool) < poolCap {
		n.file = nil
		s.nodePool = append(s.nodePool, n)
	}
}

// indexLocked records a granted entry in the shard's per-transaction index
// and notes the shard in the manager's transaction→shards mask on the first
// entry. Caller holds s.mu.
func (m *Manager) indexLocked(s *shard, tx TxID, h *head, g *grantEntry) {
	set := s.byTx[tx]
	if set == nil {
		if n := len(s.setPool); n > 0 {
			set = s.setPool[n-1]
			s.setPool = s.setPool[:n-1]
		} else {
			set = &txSet{}
		}
		s.byTx[tx] = set
		m.noteTxShard(tx, s)
	}
	set.refs = append(set.refs, heldRef{h, g})
}

// unindexLocked removes tx's entry for h from the per-transaction index,
// clearing the shard bit when the transaction's last entry here goes away.
// The search is linear: only the single-item release paths (Unlock,
// Downgrade to NL) come here, and they are rare, server-side ones. Caller
// holds s.mu.
func (m *Manager) unindexLocked(s *shard, tx TxID, h *head) {
	set := s.byTx[tx]
	if set == nil {
		return
	}
	for i := range set.refs {
		if set.refs[i].h == h {
			set.refs = swapRemove(set.refs, i)
			break
		}
	}
	if len(set.refs) == 0 {
		delete(s.byTx, tx)
		s.freeSetLocked(set)
		m.dropTxShard(tx, s)
	}
}

// freeSetLocked recycles a per-transaction set that has left byTx.
func (s *shard) freeSetLocked(set *txSet) {
	if len(s.setPool) < poolCap {
		clear(set.refs)
		set.refs = set.refs[:0]
		s.setPool = append(s.setPool, set)
	}
}

func (m *Manager) noteTxShard(tx TxID, s *shard) {
	bit := uint64(1) << s.idx
	m.tmu.Lock()
	m.txShards[tx] |= bit
	m.tmu.Unlock()
}

func (m *Manager) dropTxShard(tx TxID, s *shard) {
	bit := uint64(1) << s.idx
	m.tmu.Lock()
	if rem := m.txShards[tx] &^ bit; rem == 0 {
		delete(m.txShards, tx)
	} else {
		m.txShards[tx] = rem
	}
	m.tmu.Unlock()
}

// txShardMask snapshots the set of shards where tx currently holds grants.
func (m *Manager) txShardMask(tx TxID) uint64 {
	m.tmu.Lock()
	mask := m.txShards[tx]
	m.tmu.Unlock()
	return mask
}
