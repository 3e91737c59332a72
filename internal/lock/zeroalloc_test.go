// Zero-allocation guards for the lock-manager fast path. The benchmarks
// report allocs/op, but a benchmark only runs when someone benchmarks;
// these tests make the property a plain `go test` failure the moment a
// change puts an allocation back on the hot path.
package lock_test

import (
	"testing"

	"adaptivecc/internal/lock"
)

// TestUncontendedGrantReleaseZeroAlloc pins the every-local-access path:
// one transaction taking locks and releasing everything must not allocate
// once the manager's shards and per-transaction bookkeeping (heads, page
// nodes and their object slices, byFile entries, transaction sets) are
// warm.
func TestUncontendedGrantReleaseZeroAlloc(t *testing.T) {
	tx := lock.TxID{Site: "zero", Seq: 1}
	for _, tc := range []struct {
		name  string
		cycle func(m *lock.Manager) error
	}{
		{"object-EX-with-ancestors", func(m *lock.Manager) error {
			return m.Lock(tx, benchObj(7, 3), lock.EX, lock.Options{})
		}},
		// The repo benchmark's cached read-only transaction, one page of it:
		// the first object brings the ancestor chain, its siblings skip it.
		{"page-of-16-SH-ancestors-once", func(m *lock.Manager) error {
			for slot := uint16(0); slot < 16; slot++ {
				if err := m.Lock(tx, benchObj(7, slot), lock.SH, lock.Options{SkipAncestors: slot > 0}); err != nil {
					return err
				}
			}
			return nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := lock.NewManager(nil, nil)
			cycle := func() {
				if err := tc.cycle(m); err != nil {
					t.Fatal(err)
				}
				m.ReleaseAll(tx)
			}
			cycle() // warm: the first cycle builds the shard entries and free lists
			if n := testing.AllocsPerRun(200, cycle); n != 0 {
				t.Errorf("uncontended grant/release allocates %.2f allocs/op, want 0", n)
			}
		})
	}
}
