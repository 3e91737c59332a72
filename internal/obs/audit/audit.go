// Package audit is an online oracle for the paper's cache-consistency
// invariants. It consumes the typed event stream (as an obs sink) and
// sweeps live per-peer state through a narrow View interface, checking:
//
//	single-ex        at most one EX holder per lock item
//	avail-copies     a client-cached page with any available object has a
//	                 matching entry in the owner's copy table
//	adaptive-solo    an adaptive page lock is held only while no *other*
//	                 site caches the page
//	callback-acks    a callback round that completed "ok" collected an ack
//	                 from every site it called back
//	lock-ancestors   every descendant lock has covering intention locks
//	                 (IS/IX) on all of its ancestors
//
// Violations are reported as counters plus a first-violation dump per
// invariant. Sweeps run against live, concurrently mutating lock and copy
// tables, so a candidate violation is confirmed by re-checking it a few
// times across short pauses: transient states (a per-shard ReleaseAll in
// flight, a purge ack mid-round) vanish, real protocol damage persists.
// At quiescence the confirmation passes are exact.
//
// The auditor is nil-guarded and off by default: nothing in the protocol
// references it unless core.Config.Audit is set.
package audit

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"adaptivecc/internal/lock"
	"adaptivecc/internal/obs"
	"adaptivecc/internal/storage"
)

// Invariant identifies one checked consistency property.
type Invariant int

// The invariant catalog (see DESIGN.md §10).
const (
	InvSingleEX Invariant = iota
	InvAvailCopies
	InvAdaptiveSolo
	InvCallbackAcks
	InvLockAncestors
	NumInvariants
)

// String names the invariant as it appears in reports.
func (iv Invariant) String() string {
	switch iv {
	case InvSingleEX:
		return "single-ex"
	case InvAvailCopies:
		return "avail-copies"
	case InvAdaptiveSolo:
		return "adaptive-solo"
	case InvCallbackAcks:
		return "callback-acks"
	case InvLockAncestors:
		return "lock-ancestors"
	default:
		return "unknown"
	}
}

// CachedPage is one page resident in a peer's client pool together with
// its availability mask.
type CachedPage struct {
	Page  storage.ItemID
	Avail storage.AvailMask
}

// View is the auditor's window into one peer's live state. All methods
// must be safe to call from the auditor's goroutine while the peer runs;
// they read the same tables the protocol mutates, so individual calls are
// point snapshots, not a consistent cut — the sweep's confirmation passes
// absorb that.
type View interface {
	// Site is the peer's name.
	Site() string
	// Down reports whether the peer has crashed; down peers are skipped.
	Down() bool
	// Owns reports whether this peer is the owning server of item's volume.
	Owns(item storage.ItemID) bool

	// ForEachLock iterates every granted lock in the peer's table.
	ForEachLock(fn func(lock.Info) bool)
	// Holders lists the granted locks on one item.
	Holders(item storage.ItemID) []lock.Info
	// HeldMode reports tx's granted mode on item (NL if none).
	HeldMode(tx lock.TxID, item storage.ItemID) lock.Mode
	// AdaptiveHolders lists transactions holding item adaptively.
	AdaptiveHolders(item storage.ItemID) []lock.TxID

	// CachedPages lists the pages in the peer's client buffer pool.
	CachedPages() []CachedPage
	// CachedAvail reports the availability mask of one cached page.
	CachedAvail(page storage.ItemID) (storage.AvailMask, bool)
	// CopyClients lists the clients the owner believes cache page.
	CopyClients(page storage.ItemID) []string
	// HasCopy reports whether the owner's copy table lists client for page.
	HasCopy(page storage.ItemID, client string) bool
}

// Confirmation policy for sweep candidates: a candidate must still hold
// after confirmRetries re-checks separated by confirmPause. Quiesced
// systems pass instantly (the state no longer moves); live systems get
// ~10ms for an in-flight multi-shard release or ship to settle.
const (
	confirmRetries = 3
	confirmPause   = 2 * time.Millisecond
)

// roundState accumulates one callback round's fan-out from the event
// stream, keyed by the round's span id.
type roundState struct {
	tx    string
	item  string
	sent  []string
	acked map[string]bool
}

// maxRounds bounds the in-flight round map; rounds are normally removed
// when their EvCallbackRound closes, this guards against event loss.
const maxRounds = 4096

// Auditor checks the invariant catalog against a running system. Create
// with New, attach one View per peer, feed it events via OnEvent (wired
// automatically when core.Config.Audit is set), and call Sweep
// periodically and/or at quiescence. Counters are monotonic.
type Auditor struct {
	mu     sync.Mutex
	views  []View
	rounds map[uint64]*roundState
	order  []uint64 // round insertion order, for bounded eviction

	violations [NumInvariants]atomic.Int64

	firstMu sync.Mutex
	first   [NumInvariants]string
}

// New returns an empty auditor.
func New() *Auditor {
	return &Auditor{rounds: make(map[uint64]*roundState)}
}

// AttachView registers one peer's state view.
func (a *Auditor) AttachView(v View) {
	a.mu.Lock()
	a.views = append(a.views, v)
	a.mu.Unlock()
}

// violate records one violation of iv, keeping the first dump.
func (a *Auditor) violate(iv Invariant, dump string) {
	if a.violations[iv].Add(1) == 1 {
		a.firstMu.Lock()
		if a.first[iv] == "" {
			a.first[iv] = dump
		}
		a.firstMu.Unlock()
	}
}

// Violations reports the count for one invariant.
func (a *Auditor) Violations(iv Invariant) int64 { return a.violations[iv].Load() }

// Total reports the summed violation count across all invariants.
func (a *Auditor) Total() int64 {
	var n int64
	for i := Invariant(0); i < NumInvariants; i++ {
		n += a.violations[i].Load()
	}
	return n
}

// First returns the first recorded violation dump for iv ("" if none).
func (a *Auditor) First(iv Invariant) string {
	a.firstMu.Lock()
	defer a.firstMu.Unlock()
	return a.first[iv]
}

// Report renders the counters and first-violation dumps.
func (a *Auditor) Report() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "invariant audit: %d violations\n", a.Total())
	for iv := Invariant(0); iv < NumInvariants; iv++ {
		n := a.violations[iv].Load()
		fmt.Fprintf(&sb, "  %-15s %d\n", iv.String(), n)
		if first := a.First(iv); first != "" {
			fmt.Fprintf(&sb, "    first: %s\n", first)
		}
	}
	return sb.String()
}

// OnEvent is the obs sink half of the auditor: it reconstructs callback
// rounds from the event stream and checks that every round which reported
// success collected an ack from every site it called back (the
// callback-acks invariant). Cheap for every other event kind. Safe for
// concurrent callers (the protocol emits from many goroutines).
func (a *Auditor) OnEvent(ev obs.Event) {
	switch ev.Kind {
	case obs.EvCallbackSent, obs.EvCallbackAcked:
		if ev.Parent == 0 || ev.Peer == "" {
			return
		}
		a.mu.Lock()
		rs := a.rounds[ev.Parent]
		if rs == nil {
			if len(a.order) >= maxRounds {
				delete(a.rounds, a.order[0])
				a.order = a.order[1:]
			}
			rs = &roundState{tx: ev.Tx, item: ev.Item, acked: make(map[string]bool)}
			a.rounds[ev.Parent] = rs
			a.order = append(a.order, ev.Parent)
		}
		if ev.Kind == obs.EvCallbackSent {
			rs.sent = append(rs.sent, ev.Peer)
		} else {
			rs.acked[ev.Peer] = true
		}
		a.mu.Unlock()

	case obs.EvCallbackRound:
		if ev.Span == 0 {
			return
		}
		a.mu.Lock()
		rs := a.rounds[ev.Span]
		delete(a.rounds, ev.Span)
		a.mu.Unlock()
		// Only rounds that claim success owe a complete ack set; rounds
		// that ended in timeout or abort report their error in Note.
		if rs == nil || ev.Note != "ok" {
			return
		}
		var missing []string
		for _, c := range rs.sent {
			if !rs.acked[c] {
				missing = append(missing, c)
			}
		}
		if len(missing) > 0 {
			a.violate(InvCallbackAcks, fmt.Sprintf(
				"site %s round span=%d tx=%s item=%s completed ok without acks from %v (sent=%v)",
				ev.Site, ev.Span, rs.tx, rs.item, missing, rs.sent))
		}
	}
}

// confirm re-evaluates a candidate violation across short pauses; it
// reports true only if the violation persists every time.
func confirm(bad func() bool) bool {
	for i := 0; i < confirmRetries; i++ {
		time.Sleep(confirmPause)
		if !bad() {
			return false
		}
	}
	return true
}

// Sweep runs the state-based invariants (single-ex, avail-copies,
// adaptive-solo, lock-ancestors) over every attached view once. It is
// safe to call while the system runs and exact once the system has
// quiesced. Check is an alias for the quiescent reading.
func (a *Auditor) Sweep() {
	a.mu.Lock()
	views := make([]View, len(a.views))
	copy(views, a.views)
	a.mu.Unlock()

	for _, v := range views {
		if v.Down() {
			continue
		}
		a.sweepLockTable(v)
		a.sweepCopies(v, views)
	}
}

// Check runs one exact sweep; call at quiescence (e.g. after an
// experiment window or before shutdown).
func (a *Auditor) Check() { a.Sweep() }

// sweepLockTable walks one peer's lock table checking single-ex,
// adaptive-solo, and lock-ancestors in a single pass.
func (a *Auditor) sweepLockTable(v View) {
	type adaptiveCand struct {
		tx   lock.TxID
		page storage.ItemID
	}
	var (
		exHolders = make(map[storage.ItemID][]lock.TxID)
		ancCands  []lock.Info
		adCands   []adaptiveCand
	)
	v.ForEachLock(func(in lock.Info) bool {
		if in.Mode == lock.EX {
			exHolders[in.Item] = append(exHolders[in.Item], in.Tx)
		}
		if in.Adaptive && in.Item.Level == storage.LevelPage && v.Owns(in.Item) {
			adCands = append(adCands, adaptiveCand{tx: in.Tx, page: in.Item})
		}
		// Callback threads take page locks without ancestors by design
		// (they act under the blocked requester's authority).
		if !in.Tx.IsCallbackThread() && in.Item.Level > storage.LevelVolume {
			ancCands = append(ancCands, in)
		}
		return true
	})

	// single-ex: more than one EX holder on one item is never legal (an
	// EX plus SH holders is — the server's capped projection of remote
	// object locks coexists with a local writer's EX during callback).
	for item, txs := range exHolders {
		if len(txs) < 2 {
			continue
		}
		item := item
		if confirm(func() bool { return countEX(v, item) > 1 }) {
			a.violate(InvSingleEX, fmt.Sprintf(
				"site %s item %s has %d EX holders: %v", v.Site(), item, len(txs), txs))
		}
	}

	// adaptive-solo: while a page lock is adaptive, no *other* site may
	// cache the page (§4's escalation precondition). The holder's own
	// site keeps its shipped copy.
	for _, c := range adCands {
		c := c
		bad := func() bool {
			if !holdsAdaptive(v, c.tx, c.page) {
				return false
			}
			for _, client := range v.CopyClients(c.page) {
				if client != c.tx.Site && v.HasCopy(c.page, client) {
					return true
				}
			}
			return false
		}
		if confirm(bad) {
			a.violate(InvAdaptiveSolo, fmt.Sprintf(
				"site %s page %s held adaptively by %s while remote copies exist: %v",
				v.Site(), c.page, c.tx, remoteCopies(v, c.page, c.tx.Site)))
		}
	}

	// lock-ancestors: every descendant lock needs covering intention
	// modes on the full ancestor chain.
	for _, in := range ancCands {
		in := in
		if missingAncestor(v, in.Tx, in.Item) == nil {
			continue
		}
		if confirm(func() bool { return missingAncestor(v, in.Tx, in.Item) != nil }) {
			anc := missingAncestor(v, in.Tx, in.Item)
			if anc == nil {
				continue // released between confirm and dump
			}
			a.violate(InvLockAncestors, fmt.Sprintf(
				"site %s tx %s holds %s on %s without covering intention lock on %s (held %s, need %s)",
				v.Site(), in.Tx, v.HeldMode(in.Tx, in.Item), in.Item,
				*anc, v.HeldMode(in.Tx, *anc), lock.IntentionFor(v.HeldMode(in.Tx, in.Item))))
		}
	}
}

// countEX re-reads the EX holder count on one item.
func countEX(v View, item storage.ItemID) int {
	n := 0
	for _, h := range v.Holders(item) {
		if h.Mode == lock.EX {
			n++
		}
	}
	return n
}

// holdsAdaptive re-reads whether tx still holds page adaptively.
func holdsAdaptive(v View, tx lock.TxID, page storage.ItemID) bool {
	for _, t := range v.AdaptiveHolders(page) {
		if t == tx {
			return true
		}
	}
	return false
}

// remoteCopies lists the copy-table clients for page other than site.
func remoteCopies(v View, page storage.ItemID, site string) []string {
	var out []string
	for _, c := range v.CopyClients(page) {
		if c != site {
			out = append(out, c)
		}
	}
	return out
}

// missingAncestor returns the first ancestor of item on which tx lacks a
// covering intention lock, or nil when the chain is intact. The required
// mode is derived from the currently held descendant mode, so a
// concurrent downgrade or release resolves the candidate rather than
// tripping it.
func missingAncestor(v View, tx lock.TxID, item storage.ItemID) *storage.ItemID {
	cur := v.HeldMode(tx, item)
	if cur == lock.NL {
		return nil
	}
	need := lock.IntentionFor(cur)
	for _, anc := range item.Ancestors() {
		if !lock.Covers(v.HeldMode(tx, anc), need) {
			anc := anc
			return &anc
		}
	}
	return nil
}

// sweepCopies checks avail-copies for one client view: every cached page
// with at least one available object must appear in the owning server's
// copy table under this client's name. The inverse (a copy-table entry
// for a page the client no longer caches) is legal — purge notices are
// asynchronous and the protocol tolerates stale entries.
func (a *Auditor) sweepCopies(v View, views []View) {
	for _, cp := range v.CachedPages() {
		if cp.Avail == 0 || v.Owns(cp.Page) {
			continue
		}
		owner := ownerOf(views, cp.Page)
		if owner == nil || owner.Down() {
			continue
		}
		page, ow := cp.Page, owner
		bad := func() bool {
			av, ok := v.CachedAvail(page)
			return ok && av != 0 && !ow.HasCopy(page, v.Site())
		}
		if !bad() {
			continue
		}
		if confirm(bad) {
			av, _ := v.CachedAvail(page)
			a.violate(InvAvailCopies, fmt.Sprintf(
				"client %s caches page %s (avail=%#x) but owner %s has no copy-table entry for it",
				v.Site(), page, uint64(av), ow.Site()))
		}
	}
}

// ownerOf finds the attached view owning item's volume (nil if absent).
func ownerOf(views []View, item storage.ItemID) View {
	for _, v := range views {
		if v.Owns(item) {
			return v
		}
	}
	return nil
}
