package consistency

import (
	"testing"

	"adaptivecc/internal/sim"
	"adaptivecc/internal/storage"
)

var (
	testPage = storage.PageItem(1, 1, 7)
	testObj  = storage.ObjectItem(1, 1, 7, 3)
)

// TestStaticDecisionTable pins every static policy to the decision table
// the inlined cfg.Protocol branches used to encode, so the refactor cannot
// silently change a protocol's answers.
func TestStaticDecisionTable(t *testing.T) {
	cases := []struct {
		proto       Protocol
		objectGrain bool
		unit        Unit
		pageFirst   bool
		objFallback bool
		escalate    bool
	}{
		{PS, false, UnitPage, true, false, false},
		{PSOO, true, UnitPage, false, true, false},
		{PSOA, true, UnitPage, true, true, false},
		{PSAA, true, UnitPage, true, true, true},
		{OS, true, UnitObject, false, true, false},
	}
	for _, c := range cases {
		t.Run(c.proto.String(), func(t *testing.T) {
			pol := PolicyFor(c.proto, nil)
			if pol.Protocol() != c.proto {
				t.Errorf("Protocol() = %v", pol.Protocol())
			}
			wantTarget := testObj
			if !c.objectGrain {
				wantTarget = testPage
			}
			if got := pol.LockTarget(testObj); got != wantTarget {
				t.Errorf("LockTarget = %v, want %v", got, wantTarget)
			}
			if got := pol.TransferUnit(); got != c.unit {
				t.Errorf("TransferUnit = %v, want %v", got, c.unit)
			}
			if got := pol.PageFirstCallbacks(testPage); got != c.pageFirst {
				t.Errorf("PageFirstCallbacks = %v, want %v", got, c.pageFirst)
			}
			if got := pol.ObjectFallback(); got != c.objFallback {
				t.Errorf("ObjectFallback = %v, want %v", got, c.objFallback)
			}
			if got := pol.EscalateOnWrite(testPage); got != c.escalate {
				t.Errorf("EscalateOnWrite = %v, want %v", got, c.escalate)
			}
			// No static policy ever demotes callbacks or upgrades writes;
			// those are advisor-only answers.
			if pol.CallbackObjectGrain(testPage) {
				t.Error("CallbackObjectGrain = true for a static policy")
			}
			if pol.WantsPageGrain(testPage) {
				t.Error("WantsPageGrain = true for a static policy")
			}
			// Note must be a no-op, not a panic.
			pol.Note(EvDeescalated, testPage)
		})
	}
}

func TestParseRoundTrip(t *testing.T) {
	for _, p := range []Protocol{PS, PSOO, PSOA, PSAA, OS, PSAH} {
		got, err := Parse(p.String())
		if err != nil || got != p {
			t.Errorf("Parse(%q) = %v, %v", p.String(), got, err)
		}
	}
	for _, s := range []string{"psaa", "PS_AA", "ps-ah", "PSAH"} {
		if _, err := Parse(s); err != nil {
			t.Errorf("Parse(%q) failed: %v", s, err)
		}
	}
	_, err := Parse("bogus")
	if err == nil {
		t.Fatal("Parse accepted bogus name")
	}
	if want := `unknown protocol "bogus" (PS, PS-OO, PS-OA, PS-AA, PS-AH, OS)`; err.Error() != want {
		t.Errorf("Parse error = %q, want %q", err, want)
	}
}

func TestOrDefault(t *testing.T) {
	if OrDefault(0) != PSAA {
		t.Errorf("OrDefault(0) = %v", OrDefault(0))
	}
	if OrDefault(PS) != PS {
		t.Errorf("OrDefault(PS) = %v", OrDefault(PS))
	}
}

// TestAdvisorColdIsPSAA: a page with no history must answer exactly like
// the PSAA truth table.
func TestAdvisorColdIsPSAA(t *testing.T) {
	pol := PolicyFor(PSAH, sim.NewStats())
	if pol.Protocol() != PSAH {
		t.Fatalf("Protocol() = %v", pol.Protocol())
	}
	if pol.LockTarget(testObj) != testObj {
		t.Error("cold LockTarget is not the object")
	}
	if pol.TransferUnit() != UnitPage {
		t.Error("cold TransferUnit is not the page")
	}
	if !pol.PageFirstCallbacks(testPage) || !pol.ObjectFallback() {
		t.Error("cold callback strategy differs from PSAA")
	}
	if !pol.EscalateOnWrite(testPage) {
		t.Error("cold page does not escalate")
	}
	if pol.CallbackObjectGrain(testPage) || pol.WantsPageGrain(testPage) {
		t.Error("cold page triggers advisor overrides")
	}
}

func TestAdvisorSuppressesEscalationAfterDeescalations(t *testing.T) {
	st := sim.NewStats()
	pol := PolicyFor(PSAH, st)
	pol.Note(EvDeescalated, testPage)
	if !pol.EscalateOnWrite(testPage) {
		t.Fatal("suppressed after a single deescalation")
	}
	pol.Note(EvDeescalated, testPage)
	if pol.EscalateOnWrite(testPage) {
		t.Fatal("still escalating after repeated deescalations")
	}
	if st.Snapshot()[sim.CtrAdvisorEscSuppressed] == 0 {
		t.Error("suppression not counted")
	}
	// Another page's history is untouched.
	other := storage.PageItem(1, 1, 8)
	if !pol.EscalateOnWrite(other) {
		t.Error("suppression leaked to an unrelated page")
	}
}

func TestAdvisorObjectGrainCallbacksAfterConflicts(t *testing.T) {
	st := sim.NewStats()
	pol := PolicyFor(PSAH, st)
	pol.Note(EvCallbackBlocked, testPage)
	if pol.CallbackObjectGrain(testPage) {
		t.Fatal("object grain after a single conflict")
	}
	pol.Note(EvExtraRound, testPage)
	if !pol.CallbackObjectGrain(testPage) {
		t.Fatal("still page grain after repeated conflicts")
	}
	if st.Snapshot()[sim.CtrAdvisorObjectGrainCB] == 0 {
		t.Error("demotion not counted")
	}
}

func TestAdvisorPageGrainAfterQuietWriteStreak(t *testing.T) {
	st := sim.NewStats()
	pol := PolicyFor(PSAH, st)
	for i := 0; i < pageGrainStreak; i++ {
		if pol.WantsPageGrain(testPage) {
			t.Fatalf("page grain after only %d writes", i)
		}
		pol.Note(EvLocalWrite, testPage)
	}
	if !pol.WantsPageGrain(testPage) {
		t.Fatal("no page grain after a quiet write streak")
	}
	if st.Snapshot()[sim.CtrAdvisorPageGrainWrites] == 0 {
		t.Error("upgrade not counted")
	}
	// Any remote event breaks the streak.
	pol.Note(EvCallbackReceived, testPage)
	if pol.WantsPageGrain(testPage) {
		t.Error("page grain survived a remote callback")
	}
}

// TestAdvisorDecay: a hot history ages back to cold behavior once the page
// goes quiet while other pages stay busy.
func TestAdvisorDecay(t *testing.T) {
	pol := PolicyFor(PSAH, sim.NewStats()).(*advisor)
	pol.Note(EvDeescalated, testPage)
	pol.Note(EvDeescalated, testPage)
	if pol.EscalateOnWrite(testPage) {
		t.Fatal("not suppressed while hot")
	}
	// Busy traffic on other pages advances the clock past resetAge.
	other := storage.PageItem(1, 1, 9)
	for i := 0; i < resetAge+1; i++ {
		pol.Note(EvLocalWrite, other)
	}
	if !pol.EscalateOnWrite(testPage) {
		t.Error("history did not decay back to PSAA behavior")
	}
}

// TestAdvisorNoteAcceptsObjectIDs: Note normalizes object IDs to their
// page so feed sites may pass whichever they have.
func TestAdvisorNoteAcceptsObjectIDs(t *testing.T) {
	pol := PolicyFor(PSAH, sim.NewStats())
	pol.Note(EvDeescalated, testObj)
	pol.Note(EvDeescalated, testObj)
	if pol.EscalateOnWrite(testPage) {
		t.Error("object-ID notes did not reach the page history")
	}
}
