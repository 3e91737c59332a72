package lock

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"adaptivecc/internal/sim"
	"adaptivecc/internal/storage"
)

var (
	txA = TxID{Site: "A", Seq: 1}
	txB = TxID{Site: "B", Seq: 1}
	txC = TxID{Site: "C", Seq: 1}
)

func obj(page uint32, slot uint16) storage.ItemID {
	return storage.ObjectItem(1, 1, page, slot)
}

func page(p uint32) storage.ItemID { return storage.PageItem(1, 1, p) }

func newTestManager() *Manager { return NewManager(nil, nil) }

func TestLockGrantsAncestorIntents(t *testing.T) {
	m := newTestManager()
	o := obj(5, 3)
	if err := m.Lock(txA, o, SH, Options{}); err != nil {
		t.Fatalf("Lock: %v", err)
	}
	if got := m.HeldMode(txA, o); got != SH {
		t.Errorf("object mode = %v, want SH", got)
	}
	if got := m.HeldMode(txA, page(5)); got != IS {
		t.Errorf("page mode = %v, want IS", got)
	}
	if got := m.HeldMode(txA, storage.FileItem(1, 1)); got != IS {
		t.Errorf("file mode = %v, want IS", got)
	}
	if got := m.HeldMode(txA, storage.VolumeItem(1)); got != IS {
		t.Errorf("volume mode = %v, want IS", got)
	}
}

func TestExclusiveTakesIXAncestors(t *testing.T) {
	m := newTestManager()
	if err := m.Lock(txA, obj(5, 3), EX, Options{}); err != nil {
		t.Fatalf("Lock: %v", err)
	}
	if got := m.HeldMode(txA, page(5)); got != IX {
		t.Errorf("page mode = %v, want IX", got)
	}
}

func TestSkipAncestors(t *testing.T) {
	m := newTestManager()
	if err := m.Lock(txA, obj(5, 3), EX, Options{SkipAncestors: true}); err != nil {
		t.Fatalf("Lock: %v", err)
	}
	if got := m.HeldMode(txA, page(5)); got != NL {
		t.Errorf("page mode = %v, want NL", got)
	}
}

func TestCompatibleSharersCoexist(t *testing.T) {
	m := newTestManager()
	o := obj(1, 0)
	if err := m.Lock(txA, o, SH, Options{}); err != nil {
		t.Fatal(err)
	}
	if err := m.Lock(txB, o, SH, Options{}); err != nil {
		t.Fatal(err)
	}
}

func TestConflictBlocksAndUnlockWakes(t *testing.T) {
	m := newTestManager()
	o := obj(1, 0)
	if err := m.Lock(txA, o, EX, Options{}); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- m.Lock(txB, o, SH, Options{}) }()
	select {
	case err := <-done:
		t.Fatalf("SH granted while EX held: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	m.Unlock(txA, o)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Lock after unlock: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("waiter never woke")
	}
}

func TestNoWait(t *testing.T) {
	m := newTestManager()
	o := obj(1, 0)
	if err := m.Lock(txA, o, EX, Options{}); err != nil {
		t.Fatal(err)
	}
	if err := m.Lock(txB, o, SH, Options{NoWait: true}); !errors.Is(err, ErrWouldBlock) {
		t.Fatalf("err = %v, want ErrWouldBlock", err)
	}
}

func TestReentrantAndUpgrade(t *testing.T) {
	m := newTestManager()
	o := obj(1, 0)
	if err := m.Lock(txA, o, SH, Options{}); err != nil {
		t.Fatal(err)
	}
	if err := m.Lock(txA, o, SH, Options{}); err != nil {
		t.Fatal(err)
	}
	if err := m.Lock(txA, o, EX, Options{}); err != nil {
		t.Fatal(err)
	}
	if got := m.HeldMode(txA, o); got != EX {
		t.Errorf("mode = %v, want EX", got)
	}
}

func TestUpgradeWaitsForSharers(t *testing.T) {
	m := newTestManager()
	o := obj(1, 0)
	if err := m.Lock(txA, o, SH, Options{}); err != nil {
		t.Fatal(err)
	}
	if err := m.Lock(txB, o, SH, Options{}); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- m.Lock(txA, o, EX, Options{}) }()
	select {
	case <-done:
		t.Fatal("upgrade granted while other sharer exists")
	case <-time.After(20 * time.Millisecond):
	}
	m.Unlock(txB, o)
	if err := <-done; err != nil {
		t.Fatalf("upgrade after release: %v", err)
	}
}

func TestConversionJumpsQueue(t *testing.T) {
	m := newTestManager()
	o := obj(1, 0)
	if err := m.Lock(txA, o, SH, Options{}); err != nil {
		t.Fatal(err)
	}
	// B queues a fresh EX request behind A.
	bDone := make(chan error, 1)
	go func() { bDone <- m.Lock(txB, o, EX, Options{}) }()
	time.Sleep(10 * time.Millisecond)
	// A's upgrade must be granted even though B waits.
	if err := m.Lock(txA, o, EX, Options{}); err != nil {
		t.Fatalf("conversion: %v", err)
	}
	m.ReleaseAll(txA)
	if err := <-bDone; err != nil {
		t.Fatalf("B after A released: %v", err)
	}
}

func TestUpgradeDeadlockDetected(t *testing.T) {
	m := newTestManager()
	o := obj(1, 0)
	if err := m.Lock(txA, o, SH, Options{}); err != nil {
		t.Fatal(err)
	}
	if err := m.Lock(txB, o, SH, Options{}); err != nil {
		t.Fatal(err)
	}
	aDone := make(chan error, 1)
	go func() { aDone <- m.Lock(txA, o, EX, Options{}) }()
	time.Sleep(10 * time.Millisecond)
	// B's upgrade closes the cycle: B waits for A's SH, A waits for B's SH.
	err := m.Lock(txB, o, EX, Options{})
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("second upgrader err = %v, want ErrDeadlock", err)
	}
	m.ReleaseAll(txB)
	if err := <-aDone; err != nil {
		t.Fatalf("first upgrader: %v", err)
	}
}

func TestTwoItemDeadlockDetected(t *testing.T) {
	m := newTestManager()
	o1, o2 := obj(1, 0), obj(1, 1)
	if err := m.Lock(txA, o1, EX, Options{}); err != nil {
		t.Fatal(err)
	}
	if err := m.Lock(txB, o2, EX, Options{}); err != nil {
		t.Fatal(err)
	}
	aDone := make(chan error, 1)
	go func() { aDone <- m.Lock(txA, o2, EX, Options{}) }()
	time.Sleep(10 * time.Millisecond)
	if err := m.Lock(txB, o1, EX, Options{}); !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
	m.ReleaseAll(txB)
	if err := <-aDone; err != nil {
		t.Fatalf("survivor: %v", err)
	}
}

func TestTimeout(t *testing.T) {
	m := newTestManager()
	o := obj(1, 0)
	if err := m.Lock(txA, o, EX, Options{}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err := m.Lock(txB, o, EX, Options{Timeout: 30 * time.Millisecond})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if time.Since(start) < 25*time.Millisecond {
		t.Error("returned before timeout elapsed")
	}
	// The timed-out request must be gone: A can release, nobody is woken,
	// and a fresh C request succeeds.
	m.Unlock(txA, o)
	if err := m.Lock(txC, o, EX, Options{}); err != nil {
		t.Fatalf("fresh lock after timeout: %v", err)
	}
}

func TestCancelWaits(t *testing.T) {
	m := newTestManager()
	o := obj(1, 0)
	if err := m.Lock(txA, o, EX, Options{}); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- m.Lock(txB, o, EX, Options{}) }()
	time.Sleep(10 * time.Millisecond)
	m.CancelWaits(txB)
	if err := <-done; !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}

func TestDowngradeWakesCompatibleWaiter(t *testing.T) {
	m := newTestManager()
	o := obj(1, 0)
	if err := m.Lock(txA, o, EX, Options{}); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- m.Lock(txB, o, SH, Options{}) }()
	time.Sleep(10 * time.Millisecond)
	if err := m.Downgrade(txA, o, SH); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("waiter after downgrade: %v", err)
	}
	if got := m.HeldMode(txA, o); got != SH {
		t.Errorf("A mode = %v, want SH", got)
	}
}

func TestDowngradeToNLReleases(t *testing.T) {
	m := newTestManager()
	o := obj(1, 0)
	if err := m.Lock(txA, o, EX, Options{}); err != nil {
		t.Fatal(err)
	}
	if err := m.Downgrade(txA, o, NL); err != nil {
		t.Fatal(err)
	}
	if got := m.HeldMode(txA, o); got != NL {
		t.Errorf("mode = %v, want NL", got)
	}
}

func TestDowngradeErrors(t *testing.T) {
	m := newTestManager()
	o := obj(1, 0)
	if err := m.Downgrade(txA, o, SH); err == nil {
		t.Error("downgrade of unheld item succeeded")
	}
	if err := m.Lock(txA, o, SH, Options{}); err != nil {
		t.Fatal(err)
	}
	if err := m.Downgrade(txA, o, EX); err == nil {
		t.Error("upgrade via Downgrade succeeded")
	}
}

func TestForceGrantReplicatesConflict(t *testing.T) {
	// Reproduce the paper's Fig. 4 lock-table dance: A holds EX, downgrades
	// to SH, force-grants SH to C on behalf of the client conflict, then
	// upgrades back — and must wait for C.
	m := newTestManager()
	o := obj(1, 0)
	if err := m.Lock(txA, o, EX, Options{SkipAncestors: true}); err != nil {
		t.Fatal(err)
	}
	if err := m.Downgrade(txA, o, SH); err != nil {
		t.Fatal(err)
	}
	m.ForceGrant(txC, o, SH)
	done := make(chan error, 1)
	go func() { done <- m.Lock(txA, o, EX, Options{SkipAncestors: true}) }()
	select {
	case <-done:
		t.Fatal("upgrade granted despite replicated SH")
	case <-time.After(20 * time.Millisecond):
	}
	m.ReleaseAll(txC)
	if err := <-done; err != nil {
		t.Fatalf("upgrade after C released: %v", err)
	}
}

func TestAdaptiveBit(t *testing.T) {
	m := newTestManager()
	p := page(1)
	if err := m.Lock(txA, p, IX, Options{}); err != nil {
		t.Fatal(err)
	}
	if m.IsAdaptive(txA, p) {
		t.Error("adaptive bit set before SetAdaptive")
	}
	m.SetAdaptive(txA, p, true)
	if !m.IsAdaptive(txA, p) {
		t.Error("adaptive bit not set")
	}
	holders := m.AdaptiveHolders(p)
	if len(holders) != 1 || holders[0] != txA {
		t.Errorf("AdaptiveHolders = %v, want [A]", holders)
	}
	m.SetAdaptive(txA, p, false)
	if m.IsAdaptive(txA, p) {
		t.Error("adaptive bit not cleared")
	}
}

func TestMultipleAdaptiveHoldersFromSameClient(t *testing.T) {
	// Paper §4.1.2: multiple transactions from the same client may hold
	// adaptive locks on a page simultaneously (both hold IX).
	m := newTestManager()
	p := page(1)
	tx2 := TxID{Site: "A", Seq: 2}
	for _, tx := range []TxID{txA, tx2} {
		if err := m.Lock(tx, p, IX, Options{}); err != nil {
			t.Fatal(err)
		}
		m.SetAdaptive(tx, p, true)
	}
	if got := len(m.AdaptiveHolders(p)); got != 2 {
		t.Errorf("adaptive holders = %d, want 2", got)
	}
}

func TestReleaseAllCleansTable(t *testing.T) {
	m := newTestManager()
	for i := uint16(0); i < 10; i++ {
		if err := m.Lock(txA, obj(1, i), EX, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	m.ReleaseAll(txA)
	if n := m.NumItems(); n != 0 {
		t.Errorf("NumItems = %d after ReleaseAll, want 0", n)
	}
	if got := m.HeldItems(txA); len(got) != 0 {
		t.Errorf("HeldItems = %v, want empty", got)
	}
}

func TestConflictingList(t *testing.T) {
	m := newTestManager()
	o := obj(1, 0)
	if err := m.Lock(txA, o, SH, Options{}); err != nil {
		t.Fatal(err)
	}
	if err := m.Lock(txB, o, SH, Options{}); err != nil {
		t.Fatal(err)
	}
	got := m.Conflicting(o, EX, txC)
	if len(got) != 2 {
		t.Fatalf("Conflicting = %v, want both sharers", got)
	}
	if got := m.Conflicting(o, EX, txA); len(got) != 1 || got[0] != txB {
		t.Errorf("Conflicting excluding A = %v, want [B]", got)
	}
	if got := m.Conflicting(o, IS, txC); len(got) != 0 {
		t.Errorf("Conflicting(IS) = %v, want none", got)
	}
}

func TestFairnessNoOvertake(t *testing.T) {
	// A fresh SH must not overtake a queued EX (no starvation).
	m := newTestManager()
	o := obj(1, 0)
	if err := m.Lock(txA, o, SH, Options{}); err != nil {
		t.Fatal(err)
	}
	bDone := make(chan error, 1)
	go func() { bDone <- m.Lock(txB, o, EX, Options{}) }()
	time.Sleep(10 * time.Millisecond)
	if err := m.Lock(txC, o, SH, Options{NoWait: true}); !errors.Is(err, ErrWouldBlock) {
		t.Fatalf("fresh SH overtook queued EX: %v", err)
	}
	m.ReleaseAll(txA)
	if err := <-bDone; err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentStress(t *testing.T) {
	// Many goroutines lock/unlock overlapping objects; the test passes if
	// there are no panics, races, or lost wakeups.
	m := newTestManager()
	const workers = 8
	const iters = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tx := TxID{Site: "S", Seq: uint64(w + 1)}
			for i := 0; i < iters; i++ {
				o := obj(uint32(i%7), uint16(i%3))
				mode := SH
				if (i+w)%4 == 0 {
					mode = EX
				}
				err := m.Lock(tx, o, mode, Options{Timeout: 2 * time.Second})
				if err != nil && !errors.Is(err, ErrDeadlock) && !errors.Is(err, ErrTimeout) {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				m.ReleaseAll(tx)
			}
		}(w)
	}
	wg.Wait()
	if n := m.NumItems(); n != 0 {
		t.Errorf("NumItems = %d after stress, want 0", n)
	}
}

func TestHoldersReportsModes(t *testing.T) {
	m := newTestManager()
	p := page(3)
	if err := m.Lock(txA, p, IX, Options{}); err != nil {
		t.Fatal(err)
	}
	if err := m.Lock(txB, p, IS, Options{}); err != nil {
		t.Fatal(err)
	}
	hs := m.Holders(p)
	if len(hs) != 2 {
		t.Fatalf("Holders = %v, want 2", hs)
	}
	modes := make(map[TxID]Mode)
	for _, h := range hs {
		modes[h.Tx] = h.Mode
	}
	if modes[txA] != IX || modes[txB] != IS {
		t.Errorf("modes = %v", modes)
	}
}

func TestLocksWithinScan(t *testing.T) {
	m := newTestManager()
	if err := m.Lock(txA, obj(1, 0), EX, Options{}); err != nil {
		t.Fatal(err)
	}
	if err := m.Lock(txB, obj(1, 1), SH, Options{}); err != nil {
		t.Fatal(err)
	}
	if err := m.Lock(txC, obj(2, 0), SH, Options{}); err != nil {
		t.Fatal(err)
	}

	infos := m.LocksWithin(page(1))
	byItem := make(map[storage.ItemID][]Info)
	for _, in := range infos {
		byItem[in.Item] = append(byItem[in.Item], in)
	}
	if len(byItem[obj(1, 0)]) != 1 || byItem[obj(1, 0)][0].Mode != EX {
		t.Errorf("obj(1,0) infos = %v", byItem[obj(1, 0)])
	}
	if len(byItem[obj(1, 1)]) != 1 || byItem[obj(1, 1)][0].Mode != SH {
		t.Errorf("obj(1,1) infos = %v", byItem[obj(1, 1)])
	}
	// The page head itself (intention locks) is included.
	if len(byItem[page(1)]) != 2 {
		t.Errorf("page intents = %v", byItem[page(1)])
	}
	// Objects of other pages are excluded.
	if len(byItem[obj(2, 0)]) != 0 {
		t.Error("scan leaked into another page")
	}

	// The same questions over seeded random histories, answered three ways.
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("random-%d", seed), func(t *testing.T) { scanEquivalence(t, seed) })
		t.Run(fmt.Sprintf("group-%d", seed), func(t *testing.T) { grantedGroupEquivalence(t, seed) })
	}
}

// grantedGroupEquivalence crowds one page head with ten transactions in
// IS/IX/SH mixes, one of them adaptive, and after every grant and release
// requires the head's accessors to agree with a model of the granted group.
// The group is a slice with swap-remove deletion: an Unlock, Downgrade to NL
// or ReleaseAll from the middle of a large group must neither lose nor
// duplicate an entry.
func grantedGroupEquivalence(t *testing.T, seed int64) {
	m := newTestManager()
	rng := rand.New(rand.NewSource(seed))
	pg := storage.PageItem(1, 1, 5)
	txs := make([]TxID, 10)
	for i := range txs {
		txs[i] = TxID{Site: "g", Seq: uint64(i + 1)}
	}
	type grantState struct {
		mode     Mode
		adaptive bool
	}
	model := make(map[TxID]grantState)
	sorted := func(ids []TxID) []TxID {
		sort.Slice(ids, func(i, j int) bool { return ids[i].Seq < ids[j].Seq })
		return ids
	}
	check := func(step int, what string) {
		t.Helper()
		got := make(map[TxID]grantState)
		for _, h := range m.Holders(pg) {
			if _, dup := got[h.Tx]; dup {
				t.Fatalf("step %d (%s): Holders lists %v twice", step, what, h.Tx)
			}
			got[h.Tx] = grantState{h.Mode, h.Adaptive}
		}
		if !reflect.DeepEqual(got, model) {
			t.Fatalf("step %d (%s): Holders = %v, model = %v", step, what, got, model)
		}
		var adaptive []TxID
		for tx, g := range model {
			if g.adaptive {
				adaptive = append(adaptive, tx)
			}
		}
		if got := m.AdaptiveHolders(pg); !reflect.DeepEqual(sorted(got), sorted(adaptive)) {
			t.Fatalf("step %d (%s): AdaptiveHolders = %v, want %v", step, what, got, adaptive)
		}
		for _, mode := range []Mode{SH, EX} {
			var want []TxID
			for tx, g := range model {
				if tx != txs[0] && !Compatible(g.mode, mode) {
					want = append(want, tx)
				}
			}
			if got := m.Conflicting(pg, mode, txs[0]); !reflect.DeepEqual(sorted(got), sorted(want)) {
				t.Fatalf("step %d (%s): Conflicting(%v) = %v, want %v", step, what, mode, got, want)
			}
		}
		for _, tx := range txs {
			if got := m.HeldMode(tx, pg); got != model[tx].mode {
				t.Fatalf("step %d (%s): HeldMode(%v) = %v, want %v", step, what, tx, got, model[tx].mode)
			}
		}
	}

	largest := 0
	for step := 0; step < 2000; step++ {
		tx := txs[rng.Intn(len(txs))]
		what := ""
		switch r := rng.Intn(10); {
		case r < 6: // IS/IX crowd the head; SH joins whenever no IX is granted
			mode := []Mode{IS, IS, IX, SH}[rng.Intn(4)]
			what = fmt.Sprintf("Lock(%v, %v)", tx, mode)
			target := Supremum(model[tx].mode, mode)
			ok := true
			for other, g := range model {
				if other != tx && !Compatible(g.mode, target) {
					ok = false
				}
			}
			err := m.Lock(tx, pg, mode, Options{NoWait: true, SkipAncestors: true})
			if (err == nil) != ok {
				t.Fatalf("step %d (%s): err = %v, model grants = %v", step, what, err, ok)
			}
			if ok {
				model[tx] = grantState{target, model[tx].adaptive}
			}
		case r == 6:
			what = fmt.Sprintf("SetAdaptive(%v)", tx)
			if g, held := model[tx]; held {
				v := len(m.AdaptiveHolders(pg)) == 0 // at most one adaptive holder
				m.SetAdaptive(tx, pg, v)
				model[tx] = grantState{g.mode, v}
			}
		case r == 7:
			what = fmt.Sprintf("Unlock(%v)", tx)
			m.Unlock(tx, pg)
			delete(model, tx)
		case r == 8:
			what = fmt.Sprintf("Downgrade(%v, NL)", tx)
			_, was := model[tx]
			if err := m.Downgrade(tx, pg, NL); (err == nil) != was {
				t.Fatalf("step %d (%s): err = %v, held = %v", step, what, err, was)
			}
			delete(model, tx)
		default:
			what = fmt.Sprintf("ReleaseAll(%v)", tx)
			m.ReleaseAll(tx)
			delete(model, tx)
		}
		largest = max(largest, len(model))
		check(step, what)
	}
	if largest < 8 {
		t.Errorf("granted group never exceeded %d holders, want >= 8", largest)
	}
	for _, tx := range txs {
		m.ReleaseAll(tx)
	}
	if n := m.NumItems(); n != 0 {
		t.Errorf("NumItems = %d after every ReleaseAll, want 0", n)
	}
}

// held is one granted lock as the scans and the model name it.
type held struct {
	tx   TxID
	item storage.ItemID
}

// scanEquivalence drives a random history of grants and releases at every
// level — object locks with and without their ancestor chain, ForceGrant on
// pages that have no head of their own, Unlock, Downgrade to NL, ReleaseAll —
// over pages chosen to share one shard, and after every step requires the
// table's three views to agree with each other and with a model of what was
// granted: ForEachLock, LocksWithin at each scope, and HeldItems.
//
// Modes are picked so that a NoWait request can only fail at its object
// (ancestors take IS/IX, pages and files are locked in IS/IX only), which
// keeps the model exact without re-implementing the grant rule.
func scanEquivalence(t *testing.T, seed int64) {
	m := newTestManager()
	rng := rand.New(rand.NewSource(seed))

	// Three pages of file 1 and two of file 2 in one shard (so a byFile entry
	// lists several nodes and unlinking has something to move), one more
	// page of file 2 wherever it falls.
	home := m.shardOf(storage.PageItem(1, 1, 0))
	var pages []storage.ItemID
	for file, want := uint32(1), 3; file <= 2; file, want = file+1, 2 {
		for pg := uint32(0); want > 0; pg++ {
			if id := storage.PageItem(1, file, pg); m.shardOf(id) == home {
				pages = append(pages, id)
				want--
			}
		}
	}
	pages = append(pages, storage.PageItem(1, 2, 7777))
	const slots = 4
	var objs []storage.ItemID
	for _, pg := range pages {
		for sl := uint16(0); sl < slots; sl++ {
			objs = append(objs, storage.ObjectItem(pg.Vol, pg.File, pg.Page, sl))
		}
	}
	files := []storage.ItemID{storage.FileItem(1, 1), storage.FileItem(1, 2)}
	scopes := append(append(append([]storage.ItemID{storage.VolumeItem(1)}, files...), pages...), objs...)
	txs := []TxID{txA, txB, txC, {Site: "D", Seq: 1}}

	model := make(map[held]Mode)
	grant := func(tx TxID, item storage.ItemID, mode Mode) {
		k := held{tx, item}
		model[k] = Supremum(model[k], mode)
	}
	grantChain := func(tx TxID, item storage.ItemID, mode Mode) {
		for _, anc := range item.Ancestors() {
			grant(tx, anc, IntentionFor(mode))
		}
	}

	check := func(step int, what string) {
		t.Helper()
		all := make(map[held]Mode)
		m.ForEachLock(func(in Info) bool {
			k := held{in.Tx, in.Item}
			if _, dup := all[k]; dup {
				t.Fatalf("step %d (%s): ForEachLock reported %v twice", step, what, k)
			}
			all[k] = in.Mode
			return true
		})
		if !reflect.DeepEqual(all, model) {
			t.Fatalf("step %d (%s): ForEachLock = %v, model = %v", step, what, all, model)
		}
		for _, scope := range scopes {
			want := make(map[held]Mode)
			for k, mode := range all {
				if scope.Contains(k.item) {
					want[k] = mode
				}
			}
			got := make(map[held]Mode)
			infos := m.LocksWithin(scope)
			for _, in := range infos {
				got[held{in.Tx, in.Item}] = in.Mode
			}
			if len(infos) != len(got) || !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d (%s): LocksWithin(%v) = %v, want %v", step, what, scope, infos, want)
			}
		}
		items := make(map[storage.ItemID]bool)
		for _, tx := range txs {
			want := make(map[storage.ItemID]Mode)
			for k, mode := range all {
				items[k.item] = true
				if k.tx == tx {
					want[k.item] = mode
				}
			}
			if got := m.HeldItems(tx); !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d (%s): HeldItems(%v) = %v, want %v", step, what, tx, got, want)
			}
		}
		if n := m.NumItems(); n != len(items) {
			t.Fatalf("step %d (%s): NumItems = %d, want %d", step, what, n, len(items))
		}
	}

	for step := 0; step < 1500; step++ {
		tx := txs[rng.Intn(len(txs))]
		o := objs[rng.Intn(len(objs))]
		target := scopes[1+rng.Intn(len(scopes)-1)] // anything below the volume
		what := ""
		switch rng.Intn(10) {
		case 0, 1, 2: // object lock with its ancestor chain
			mode := []Mode{SH, SH, EX}[rng.Intn(3)]
			what = fmt.Sprintf("Lock(%v, %v, %v)", tx, o, mode)
			err := m.Lock(tx, o, mode, Options{NoWait: true})
			grantChain(tx, o, mode)
			if err == nil {
				grant(tx, o, mode)
			} else if !errors.Is(err, ErrWouldBlock) {
				t.Fatalf("%s: %v", what, err)
			}
		case 3, 4: // object lock alone, as a callback thread takes it
			mode := []Mode{SH, EX}[rng.Intn(2)]
			what = fmt.Sprintf("Lock(%v, %v, %v, SkipAncestors)", tx, o, mode)
			err := m.Lock(tx, o, mode, Options{NoWait: true, SkipAncestors: true})
			if err == nil {
				grant(tx, o, mode)
			} else if !errors.Is(err, ErrWouldBlock) {
				t.Fatalf("%s: %v", what, err)
			}
		case 5: // intention lock on a page or a file
			it := scopes[1+rng.Intn(len(files)+len(pages))]
			mode := []Mode{IS, IX}[rng.Intn(2)]
			what = fmt.Sprintf("Lock(%v, %v, %v)", tx, it, mode)
			if err := m.Lock(tx, it, mode, Options{NoWait: true}); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			grantChain(tx, it, mode)
			grant(tx, it, mode)
		case 6: // replicated object lock; its page may have no head
			what = fmt.Sprintf("ForceGrant(%v, %v, SH)", tx, o)
			m.ForceGrant(tx, o, SH)
			grant(tx, o, SH)
		case 7:
			what = fmt.Sprintf("Unlock(%v, %v)", tx, target)
			m.Unlock(tx, target)
			delete(model, held{tx, target})
		case 8:
			what = fmt.Sprintf("Downgrade(%v, %v, NL)", tx, target)
			_, was := model[held{tx, target}]
			if err := m.Downgrade(tx, target, NL); (err == nil) != was {
				t.Fatalf("%s: err = %v, held = %v", what, err, was)
			}
			delete(model, held{tx, target})
		case 9:
			what = fmt.Sprintf("ReleaseAll(%v)", tx)
			m.ReleaseAll(tx)
			for k := range model {
				if k.tx == tx {
					delete(model, k)
				}
			}
		}
		check(step, what)
	}

	for _, tx := range txs {
		m.ReleaseAll(tx)
	}
	if n := m.NumItems(); n != 0 {
		t.Errorf("NumItems = %d after every ReleaseAll, want 0", n)
	}
	for i := range m.shards {
		s := &m.shards[i]
		if len(s.items)+len(s.pages)+len(s.byFile)+len(s.byTx) != 0 {
			t.Errorf("shard %d leaks: %d items, %d page nodes, %d byFile entries, %d tx sets",
				i, len(s.items), len(s.pages), len(s.byFile), len(s.byTx))
		}
	}
	if len(m.txShards) != 0 {
		t.Errorf("txShards leaks %v", m.txShards)
	}
}

func TestDetectAllFindsExistingCycle(t *testing.T) {
	m := newTestManager()
	o1, o2 := obj(1, 0), obj(1, 1)
	if err := m.Lock(txA, o1, EX, Options{}); err != nil {
		t.Fatal(err)
	}
	if err := m.Lock(txB, o2, EX, Options{}); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 2)
	// Suppress at-block detection to create a standing cycle.
	go func() { done <- m.Lock(txA, o2, EX, Options{NoDeadlock: true, Timeout: 2 * time.Second}) }()
	time.Sleep(10 * time.Millisecond)
	go func() { done <- m.Lock(txB, o1, EX, Options{NoDeadlock: true, Timeout: 2 * time.Second}) }()
	time.Sleep(20 * time.Millisecond)

	victims := m.DetectAll()
	if len(victims) == 0 {
		t.Fatal("DetectAll found no cycle")
	}
	m.ReleaseAll(victims[0])
	// One waiter errors (canceled) and the other is granted.
	errs := []error{<-done, <-done}
	var granted, failed int
	for _, err := range errs {
		if err == nil {
			granted++
		} else {
			failed++
		}
	}
	if granted != 1 || failed != 1 {
		t.Errorf("granted=%d failed=%d (errs=%v)", granted, failed, errs)
	}
	m.ReleaseAll(txA)
	m.ReleaseAll(txB)
}

func TestForceGrantUpgradesExisting(t *testing.T) {
	m := newTestManager()
	o := obj(1, 0)
	m.ForceGrant(txA, o, SH)
	if got := m.HeldMode(txA, o); got != SH {
		t.Fatalf("mode = %v", got)
	}
	m.ForceGrant(txA, o, EX)
	if got := m.HeldMode(txA, o); got != EX {
		t.Errorf("mode after re-grant = %v, want EX (supremum)", got)
	}
	m.ForceGrant(txA, o, SH)
	if got := m.HeldMode(txA, o); got != EX {
		t.Errorf("mode after weaker re-grant = %v, want EX retained", got)
	}
}

func TestTimeoutObservedByTracker(t *testing.T) {
	waits := sim.NewWaitTracker(time.Minute)
	m := NewManager(nil, waits)
	o := obj(1, 0)
	if err := m.Lock(txA, o, EX, Options{}); err != nil {
		t.Fatal(err)
	}
	_ = m.Lock(txB, o, EX, Options{Timeout: 20 * time.Millisecond})
	if waits.Count() == 0 {
		t.Error("blocked wait not observed by tracker")
	}
	m.ReleaseAll(txA)
}

func TestLockStatsCounters(t *testing.T) {
	stats := sim.NewStats()
	m := NewManager(stats, nil)
	o := obj(1, 0)
	if err := m.Lock(txA, o, EX, Options{}); err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(20 * time.Millisecond)
		m.ReleaseAll(txA)
	}()
	if err := m.Lock(txB, o, EX, Options{}); err != nil {
		t.Fatal(err)
	}
	if got := stats.Get(sim.CtrLockWaits); got != 1 {
		t.Errorf("lock waits = %d, want 1", got)
	}
	m.ReleaseAll(txB)
}
