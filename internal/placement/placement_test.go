package placement

import (
	"errors"
	"math/rand"
	"testing"

	"adaptivecc/internal/storage"
)

// randomItems generates a deterministic pseudo-random item population
// spanning all four grains.
func randomItems(seed int64, n int) []storage.ItemID {
	rng := rand.New(rand.NewSource(seed))
	items := make([]storage.ItemID, 0, n)
	for i := 0; i < n; i++ {
		vol := storage.VolumeID(rng.Intn(4) + 1)
		file := uint32(rng.Intn(3) + 1)
		page := uint32(rng.Intn(512))
		switch rng.Intn(4) {
		case 0:
			items = append(items, storage.VolumeItem(vol))
		case 1:
			items = append(items, storage.FileItem(vol, file))
		case 2:
			items = append(items, storage.PageItem(vol, file, page))
		default:
			items = append(items, storage.ObjectItem(vol, file, page, uint16(rng.Intn(20))))
		}
	}
	return items
}

// Property: every item routes to exactly one shard — the lookup succeeds,
// the result is a member of the configured shard list, and repeating the
// lookup never changes the answer.
func TestHashEveryItemRoutesToExactlyOneShard(t *testing.T) {
	shards := []string{"srv1", "srv2", "srv3", "srv4"}
	h, err := NewHash(shards)
	if err != nil {
		t.Fatal(err)
	}
	member := make(map[string]bool)
	for _, s := range shards {
		member[s] = true
	}
	hit := make(map[string]int)
	for _, item := range randomItems(7, 4000) {
		owner, err := h.Owner(item)
		if err != nil {
			t.Fatalf("Owner(%v): %v", item, err)
		}
		if !member[owner] {
			t.Fatalf("Owner(%v) = %q, not in shard list", item, owner)
		}
		again, _ := h.Owner(item)
		if again != owner {
			t.Fatalf("Owner(%v) unstable: %q then %q", item, owner, again)
		}
		hit[owner]++
	}
	for _, s := range shards {
		if hit[s] == 0 {
			t.Fatalf("shard %s received no items — degenerate distribution: %v", s, hit)
		}
	}
}

// Property: object-grain items route with their page. The page is the
// protocol's transfer and callback unit, so every slot of a page must land
// on the same shard as the page itself.
func TestHashObjectsRouteWithTheirPage(t *testing.T) {
	h, err := NewHash([]string{"a", "b", "c"})
	if err != nil {
		t.Fatal(err)
	}
	for page := uint32(0); page < 300; page++ {
		pageOwner, _ := h.Owner(storage.PageItem(1, 1, page))
		for slot := uint16(0); slot < 4; slot++ {
			objOwner, _ := h.Owner(storage.ObjectItem(1, 1, page, slot))
			if objOwner != pageOwner {
				t.Fatalf("page %d owned by %s but slot %d routed to %s", page, pageOwner, slot, objOwner)
			}
		}
	}
}

// Property: re-keying — rebuilding a map from the same configuration —
// yields element-wise identical routing for both implementations.
func TestRekeyingSelfConsistency(t *testing.T) {
	shards := []string{"s1", "s2", "s3"}
	h1, _ := NewHash(shards)
	h2, _ := NewHash(append([]string(nil), shards...))

	build := func() *Table {
		tb := NewTable()
		tb.SetVolume(1, "s1")
		tb.SetVolume(2, "s2")
		return tb
	}
	t1, t2 := build(), build()

	for _, item := range randomItems(11, 4000) {
		ha, ea := h1.Owner(item)
		hb, eb := h2.Owner(item)
		if ha != hb || (ea == nil) != (eb == nil) {
			t.Fatalf("hash maps disagree on %v: %q/%v vs %q/%v", item, ha, ea, hb, eb)
		}
		ta, ea := t1.Owner(item)
		tb, eb := t2.Owner(item)
		if ta != tb || (ea == nil) != (eb == nil) {
			t.Fatalf("tables disagree on %v: %q/%v vs %q/%v", item, ta, ea, tb, eb)
		}
	}
}

func TestTableUnplacedVolumeIsTypedError(t *testing.T) {
	tb := NewTable()
	tb.SetVolume(1, "s1")
	if _, err := tb.Owner(storage.PageItem(9, 1, 0)); !errors.Is(err, ErrUnplaced) {
		t.Fatalf("want ErrUnplaced for unknown volume, got %v", err)
	}
}

func TestShardsEnumeration(t *testing.T) {
	tb := NewTable()
	tb.SetVolume(2, "beta")
	tb.SetVolume(1, "alpha")
	tb.SetVolume(3, "gamma")
	got := tb.Shards()
	want := []string{"alpha", "beta", "gamma"}
	if len(got) != len(want) {
		t.Fatalf("Shards() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Shards() = %v, want %v", got, want)
		}
	}

	h, _ := NewHash([]string{"z", "a"})
	hs := h.Shards()
	if len(hs) != 2 || hs[0] != "a" || hs[1] != "z" {
		t.Fatalf("hash Shards() = %v, want sorted [a z]", hs)
	}
}

func TestNewHashRejectsEmptyShardList(t *testing.T) {
	if _, err := NewHash(nil); err == nil {
		t.Fatal("NewHash(nil) should fail")
	}
}

func TestEqualSlice(t *testing.T) {
	slices := func(pages uint32, n int) []uint32 {
		t.Helper()
		out := make([]uint32, n)
		var sum uint32
		for i := range out {
			c, err := EqualSlice(pages, n, i)
			if err != nil {
				t.Fatalf("EqualSlice(%d, %d, %d): %v", pages, n, i, err)
			}
			out[i] = c
			sum += c
		}
		if sum != pages {
			t.Errorf("slices of %d pages sum to %d", pages, sum)
		}
		return out
	}
	for _, tc := range []struct {
		pages uint32
		n     int
		want  []uint32
	}{
		{1200, 2, []uint32{600, 600}},
		{1201, 2, []uint32{600, 601}}, // remainder on the last
		{1000, 3, []uint32{333, 333, 334}},
		{10, 4, []uint32{2, 2, 2, 4}},
		{3, 3, []uint32{1, 1, 1}}, // n = pages
		{7, 1, []uint32{7}},
	} {
		got := slices(tc.pages, tc.n)
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("split of %d pages into %d = %v, want %v", tc.pages, tc.n, got, tc.want)
				break
			}
		}
	}
	for _, bad := range []struct {
		pages uint32
		n, i  int
	}{
		{3, 4, 0}, {3, 4, 3}, // n > pages: some slice would be empty
		{10, 2, 2}, {10, 2, -1}, {10, 0, 0},
	} {
		if _, err := EqualSlice(bad.pages, bad.n, bad.i); err == nil {
			t.Errorf("EqualSlice(%d, %d, %d) accepted", bad.pages, bad.n, bad.i)
		}
	}
}
