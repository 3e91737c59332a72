package core

import (
	"adaptivecc/internal/lock"
	"adaptivecc/internal/obs/audit"
	"adaptivecc/internal/storage"
)

// peerView adapts one Peer to the invariant auditor's read-only View. All
// methods delegate to the peer's concurrency-safe tables (lock manager,
// client pool, copy table), so the auditor can sweep while the protocol
// runs; each call is a point snapshot, which the auditor's confirmation
// passes absorb.
type peerView struct{ p *Peer }

func (v peerView) Site() string { return v.p.name }

func (v peerView) Down() bool { return v.p.sys.net.Crashed(v.p.name) }

func (v peerView) Owns(item storage.ItemID) bool { return v.p.owns(item) }

func (v peerView) ForEachLock(fn func(lock.Info) bool) { v.p.locks.ForEachLock(fn) }

func (v peerView) Holders(item storage.ItemID) []lock.Info {
	hs := v.p.locks.Holders(item)
	out := make([]lock.Info, 0, len(hs))
	for _, h := range hs {
		out = append(out, lock.Info{Tx: h.Tx, Item: item, Mode: h.Mode, Adaptive: h.Adaptive})
	}
	return out
}

func (v peerView) HeldMode(t lock.TxID, item storage.ItemID) lock.Mode {
	return v.p.locks.HeldMode(t, item)
}

func (v peerView) AdaptiveHolders(item storage.ItemID) []lock.TxID {
	return v.p.locks.AdaptiveHolders(item)
}

func (v peerView) CachedPages() []audit.CachedPage {
	ids := v.p.pool.AllPages()
	out := make([]audit.CachedPage, 0, len(ids))
	for _, id := range ids {
		if am, ok := v.p.pool.Avail(id); ok {
			out = append(out, audit.CachedPage{Page: id, Avail: am})
		}
	}
	return out
}

func (v peerView) CachedAvail(page storage.ItemID) (storage.AvailMask, bool) {
	return v.p.pool.Avail(page)
}

func (v peerView) CopyClients(page storage.ItemID) []string {
	copies, _ := v.p.ct.copiesOf(page, "")
	out := make([]string, 0, len(copies))
	for c := range copies {
		out = append(out, c)
	}
	return out
}

func (v peerView) HasCopy(page storage.ItemID, client string) bool {
	return v.p.ct.hasCopy(page, client)
}
