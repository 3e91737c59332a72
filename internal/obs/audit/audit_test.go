package audit

import (
	"strings"
	"testing"

	"adaptivecc/internal/lock"
	"adaptivecc/internal/obs"
	"adaptivecc/internal/storage"
)

var (
	vol  = storage.VolumeID(1)
	file = storage.FileItem(vol, 1)
	page = storage.PageItem(vol, 1, 1)
	obj  = storage.ObjectItem(vol, 1, 1, 0)
)

// fakeView is a scriptable View over plain in-memory state.
type fakeView struct {
	site   string
	down   bool
	owner  bool // owns everything, or nothing
	locks  []lock.Info
	cached map[storage.ItemID]storage.AvailMask
	copies map[storage.ItemID]map[string]bool

	// onRead, when set, runs before every accessor — transient-state
	// tests use it to heal the violation mid-confirmation.
	onRead func(v *fakeView)
}

func (v *fakeView) read() {
	if v.onRead != nil {
		v.onRead(v)
	}
}

func (v *fakeView) Site() string             { return v.site }
func (v *fakeView) Down() bool               { return v.down }
func (v *fakeView) Owns(storage.ItemID) bool { return v.owner }
func (v *fakeView) ForEachLock(fn func(lock.Info) bool) {
	v.read()
	for _, in := range v.locks {
		if !fn(in) {
			return
		}
	}
}
func (v *fakeView) Holders(item storage.ItemID) []lock.Info {
	v.read()
	var out []lock.Info
	for _, in := range v.locks {
		if in.Item == item {
			out = append(out, in)
		}
	}
	return out
}
func (v *fakeView) HeldMode(tx lock.TxID, item storage.ItemID) lock.Mode {
	v.read()
	for _, in := range v.locks {
		if in.Tx == tx && in.Item == item {
			return in.Mode
		}
	}
	return lock.NL
}
func (v *fakeView) AdaptiveHolders(item storage.ItemID) []lock.TxID {
	v.read()
	var out []lock.TxID
	for _, in := range v.locks {
		if in.Item == item && in.Adaptive {
			out = append(out, in.Tx)
		}
	}
	return out
}
func (v *fakeView) CachedPages() []CachedPage {
	v.read()
	var out []CachedPage
	for p, av := range v.cached {
		out = append(out, CachedPage{Page: p, Avail: av})
	}
	return out
}
func (v *fakeView) CachedAvail(p storage.ItemID) (storage.AvailMask, bool) {
	v.read()
	av, ok := v.cached[p]
	return av, ok
}
func (v *fakeView) CopyClients(p storage.ItemID) []string {
	v.read()
	var out []string
	for c := range v.copies[p] {
		out = append(out, c)
	}
	return out
}
func (v *fakeView) HasCopy(p storage.ItemID, client string) bool {
	v.read()
	return v.copies[p][client]
}

func tx(site string, seq uint64) lock.TxID { return lock.TxID{Site: site, Seq: seq} }

// chain builds the full ancestor chain for an EX lock on obj.
func chain(t lock.TxID) []lock.Info {
	return []lock.Info{
		{Tx: t, Item: storage.VolumeItem(vol), Mode: lock.IX},
		{Tx: t, Item: file, Mode: lock.IX},
		{Tx: t, Item: page, Mode: lock.IX},
		{Tx: t, Item: obj, Mode: lock.EX},
	}
}

func onlyViolation(t *testing.T, a *Auditor, want Invariant, n int64) {
	t.Helper()
	for iv := Invariant(0); iv < NumInvariants; iv++ {
		wantN := int64(0)
		if iv == want {
			wantN = n
		}
		if got := a.Violations(iv); got != wantN {
			t.Errorf("%s violations = %d, want %d", iv, got, wantN)
		}
	}
}

func TestSingleEXViolation(t *testing.T) {
	v := &fakeView{site: "srv", owner: true}
	v.locks = append(chain(tx("c1", 1)), chain(tx("c2", 1))...)
	a := New()
	a.AttachView(v)
	a.Sweep()
	onlyViolation(t, a, InvSingleEX, 1)
	if first := a.First(InvSingleEX); !strings.Contains(first, "2 EX holders") {
		t.Errorf("first dump = %q", first)
	}
}

func TestSingleEXTransientTolerated(t *testing.T) {
	// The second EX disappears after the first table scan — a release in
	// flight. Confirmation must absorb it.
	v := &fakeView{site: "srv", owner: true}
	v.locks = append(chain(tx("c1", 1)), chain(tx("c2", 1))...)
	scans := 0
	v.onRead = func(fv *fakeView) {
		scans++
		if scans > 1 {
			fv.locks = chain(tx("c1", 1))
		}
	}
	a := New()
	a.AttachView(v)
	a.Sweep()
	if got := a.Total(); got != 0 {
		t.Fatalf("transient double-EX tripped the auditor: %d violations\n%s", got, a.Report())
	}
}

func TestAvailCopiesViolation(t *testing.T) {
	owner := &fakeView{site: "srv", owner: true, copies: map[storage.ItemID]map[string]bool{}}
	client := &fakeView{site: "c1", cached: map[storage.ItemID]storage.AvailMask{page: 0x3}}
	a := New()
	a.AttachView(owner)
	a.AttachView(client)
	a.Sweep()
	onlyViolation(t, a, InvAvailCopies, 1)

	// With the copy-table entry present, the same state is clean.
	owner.copies[page] = map[string]bool{"c1": true}
	b := New()
	b.AttachView(owner)
	b.AttachView(client)
	b.Sweep()
	if b.Total() != 0 {
		t.Fatalf("consistent copy table flagged:\n%s", b.Report())
	}
}

func TestAvailCopiesSkipsDownAndZeroAvail(t *testing.T) {
	owner := &fakeView{site: "srv", owner: true, down: true}
	client := &fakeView{site: "c1", cached: map[storage.ItemID]storage.AvailMask{page: 0x1}}
	a := New()
	a.AttachView(owner)
	a.AttachView(client)
	a.Sweep()
	if a.Total() != 0 {
		t.Fatalf("crashed owner should be skipped:\n%s", a.Report())
	}

	owner2 := &fakeView{site: "srv", owner: true, copies: map[storage.ItemID]map[string]bool{}}
	empty := &fakeView{site: "c2", cached: map[storage.ItemID]storage.AvailMask{page: 0}}
	b := New()
	b.AttachView(owner2)
	b.AttachView(empty)
	b.Sweep()
	if b.Total() != 0 {
		t.Fatalf("fully-unavailable cached page should be skipped:\n%s", b.Report())
	}
}

func TestAdaptiveSoloViolation(t *testing.T) {
	w := tx("c1", 7)
	v := &fakeView{
		site:  "srv",
		owner: true,
		locks: []lock.Info{
			{Tx: w, Item: storage.VolumeItem(vol), Mode: lock.IX},
			{Tx: w, Item: file, Mode: lock.IX},
			{Tx: w, Item: page, Mode: lock.EX, Adaptive: true},
		},
		copies: map[storage.ItemID]map[string]bool{page: {"c1": true, "c2": true}},
	}
	a := New()
	a.AttachView(v)
	a.Sweep()
	onlyViolation(t, a, InvAdaptiveSolo, 1)
	if first := a.First(InvAdaptiveSolo); !strings.Contains(first, "c2") {
		t.Errorf("dump should name the offending copy: %q", first)
	}

	// The holder's own copy does not break the invariant.
	v.copies[page] = map[string]bool{"c1": true}
	b := New()
	b.AttachView(v)
	b.Sweep()
	if b.Total() != 0 {
		t.Fatalf("holder's own copy flagged:\n%s", b.Report())
	}
}

func TestLockAncestorsViolation(t *testing.T) {
	// EX on an object with no intention locks anywhere above it.
	v := &fakeView{site: "srv", owner: true,
		locks: []lock.Info{{Tx: tx("c1", 3), Item: obj, Mode: lock.EX}}}
	a := New()
	a.AttachView(v)
	a.Sweep()
	onlyViolation(t, a, InvLockAncestors, 1)
	if first := a.First(InvLockAncestors); !strings.Contains(first, "need IX") {
		t.Errorf("dump should state the required mode: %q", first)
	}
}

func TestLockAncestorsAccepts(t *testing.T) {
	cb := lock.CallbackThread("srv", 1)
	sh := tx("c2", 4)
	v := &fakeView{site: "srv", owner: true}
	// A full IX chain, a callback thread without ancestors (by design),
	// an SH object under an SH page (SH covers IS), and a bare volume lock.
	v.locks = append(chain(tx("c1", 1)),
		lock.Info{Tx: cb, Item: page, Mode: lock.IX},
		lock.Info{Tx: sh, Item: storage.VolumeItem(vol), Mode: lock.IS},
		lock.Info{Tx: sh, Item: file, Mode: lock.IS},
		lock.Info{Tx: sh, Item: page, Mode: lock.SH},
		lock.Info{Tx: sh, Item: obj, Mode: lock.SH},
		lock.Info{Tx: tx("c3", 5), Item: storage.VolumeItem(vol), Mode: lock.EX},
	)
	a := New()
	a.AttachView(v)
	a.Sweep()
	if a.Total() != 0 {
		t.Fatalf("legal hierarchy flagged:\n%s", a.Report())
	}
}

func roundEvents(span uint64, note string, sent, acked []string) []obs.Event {
	var evs []obs.Event
	for _, c := range sent {
		evs = append(evs, obs.Event{Kind: obs.EvCallbackSent, Site: "srv",
			Tx: "c1:1", Item: obj.String(), Parent: span, Peer: c})
	}
	for _, c := range acked {
		evs = append(evs, obs.Event{Kind: obs.EvCallbackAcked, Site: "srv",
			Tx: "c1:1", Item: obj.String(), Parent: span, Peer: c})
	}
	return append(evs, obs.Event{Kind: obs.EvCallbackRound, Site: "srv",
		Tx: "c1:1", Item: obj.String(), Span: span, Note: note})
}

func TestCallbackAcksViolation(t *testing.T) {
	a := New()
	for _, ev := range roundEvents(41, "ok", []string{"c2", "c3"}, []string{"c2"}) {
		a.OnEvent(ev)
	}
	onlyViolation(t, a, InvCallbackAcks, 1)
	if first := a.First(InvCallbackAcks); !strings.Contains(first, "c3") {
		t.Errorf("dump should name the missing ack: %q", first)
	}
}

func TestCallbackAcksCleanAndErrorRounds(t *testing.T) {
	a := New()
	// Complete round: no violation.
	for _, ev := range roundEvents(51, "ok", []string{"c2", "c3"}, []string{"c3", "c2"}) {
		a.OnEvent(ev)
	}
	// Timed-out round missing an ack: excused, the round reported failure.
	for _, ev := range roundEvents(52, "callback timeout", []string{"c2"}, nil) {
		a.OnEvent(ev)
	}
	if a.Total() != 0 {
		t.Fatalf("clean/error rounds flagged:\n%s", a.Report())
	}
	// Round state must be released either way.
	a.mu.Lock()
	n := len(a.rounds)
	a.mu.Unlock()
	if n != 0 {
		t.Fatalf("round state leaked: %d entries", n)
	}
}

func TestReportFormat(t *testing.T) {
	a := New()
	for _, ev := range roundEvents(61, "ok", []string{"c2"}, nil) {
		a.OnEvent(ev)
	}
	rep := a.Report()
	for _, want := range []string{"1 violations", "single-ex", "avail-copies",
		"adaptive-solo", "callback-acks", "lock-ancestors", "first:"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
}
