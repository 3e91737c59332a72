package bounded

import "testing"

func TestCapacityAndEvictionOrder(t *testing.T) {
	m := New[int, string](3)
	for k := 1; k <= 3; k++ {
		m.Put(k, "v")
	}
	if m.Len() != 3 {
		t.Fatalf("Len = %d, want 3", m.Len())
	}
	// Each new key past capacity evicts the oldest remaining one, in
	// insertion order, wrapping around the ring more than once.
	for k := 4; k <= 10; k++ {
		m.Put(k, "v")
		if m.Len() != 3 {
			t.Fatalf("after Put(%d): Len = %d, want 3", k, m.Len())
		}
		if m.Has(k - 3) {
			t.Errorf("after Put(%d): key %d survived, want it evicted", k, k-3)
		}
		for live := k - 2; live <= k; live++ {
			if !m.Has(live) {
				t.Errorf("after Put(%d): key %d evicted, want kept", k, live)
			}
		}
	}
}

func TestReinsertTakesNoSecondSlot(t *testing.T) {
	m := New[string, int](2)
	m.Put("a", 1)
	m.Put("a", 2) // overwrite: "a" keeps its single, oldest slot
	m.Put("b", 3)
	if v, ok := m.Get("a"); !ok || v != 2 {
		t.Fatalf(`Get("a") = %d, %v, want 2, true`, v, ok)
	}
	if m.Len() != 2 {
		t.Fatalf("Len = %d, want 2", m.Len())
	}
	// A third key evicts "a", the first inserted; a re-insert that took a
	// second slot would have evicted "b" via a stale duplicate instead.
	m.Put("c", 4)
	if m.Has("a") || !m.Has("b") || !m.Has("c") {
		t.Errorf("after Put(c): a=%v b=%v c=%v, want a evicted, b and c kept",
			m.Has("a"), m.Has("b"), m.Has("c"))
	}
	m.Put("d", 5)
	if m.Has("b") || !m.Has("c") || !m.Has("d") {
		t.Errorf("after Put(d): b=%v c=%v d=%v, want b evicted, c and d kept",
			m.Has("b"), m.Has("c"), m.Has("d"))
	}
}

func TestUpdateAfterEvict(t *testing.T) {
	m := New[int, int](1)
	m.Put(1, 10)
	if !m.Update(1, 11) {
		t.Fatal("Update of a present key reported absent")
	}
	if v, _ := m.Get(1); v != 11 {
		t.Fatalf("Get(1) = %d after Update, want 11", v)
	}
	m.Put(2, 20) // evicts 1
	if m.Update(1, 12) {
		t.Error("Update of an evicted key reported present")
	}
	if m.Has(1) || m.Len() != 1 {
		t.Errorf("Update resurrected an evicted key: Has(1)=%v Len=%d", m.Has(1), m.Len())
	}
	if v, ok := m.Get(2); !ok || v != 20 {
		t.Errorf("Get(2) = %d, %v, want 20, true", v, ok)
	}
}
