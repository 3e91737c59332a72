// Package placement maps database items to the servers that own them.
//
// The pre-sharding system kept one implicit owner per volume in a private
// map inside core.System; this package makes that decision an explicit,
// swappable layer so a database can be partitioned across N page servers.
// Two implementations are provided:
//
//   - Table: a directory-driven map of volume owners, populated while the
//     deployment is wired. This is the extraction of the old owners map,
//     and routes exactly as the pre-placement system.
//   - Hash: a static hash over the item's page coordinates modulo a fixed
//     shard list, for fleets that want placement to be pure computation
//     with no directory state.
//
// Both are build-then-read: populate the map while the topology is
// constructed, then treat it as immutable. Lookups after that point are
// lock-free, keeping the per-access routing cost at a map probe — the
// same cost the implicit owners map had.
package placement

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"

	"adaptivecc/internal/storage"
)

// ErrMisdirected reports that a request reached a server that does not own
// the item it names. Servers answer misdirected requests with this typed
// error instead of silently serving (or vaguely failing): a client with a
// stale or corrupt placement map must learn that its routing is wrong, not
// that the object is missing.
var ErrMisdirected = errors.New("placement: request misdirected to a non-owner")

// ErrUnplaced reports that the map has no owner for the item's location.
var ErrUnplaced = errors.New("placement: item has no placed owner")

// EqualSlice returns the page count of slice i (0-based) when pages are
// split into n contiguous equal slices, the remainder landing on the last.
// It is the one split rule of the deployment: shored -shard and shorecli's
// comma-separated -addr both size shard i with it, so they agree on which
// shard serves a page. It fails when i is out of [0, n) or n > pages
// (some slice would be empty).
func EqualSlice(pages uint32, n, i int) (uint32, error) {
	if n < 1 || i < 0 || i >= n {
		return 0, fmt.Errorf("placement: slice %d of %d out of range", i, n)
	}
	if uint32(n) > pages {
		return 0, fmt.Errorf("placement: %d pages cannot fill %d slices", pages, n)
	}
	slice := pages / uint32(n)
	if i == n-1 {
		return pages - slice*uint32(n-1), nil
	}
	return slice, nil
}

// Map resolves the owning server of any item. Implementations must be
// deterministic — the same item always routes to the same shard — and
// total over the deployment's configured item space.
type Map interface {
	// Owner returns the name of the server owning the item.
	Owner(item storage.ItemID) (string, error)
	// Shards lists every server name the map can return, sorted.
	Shards() []string
}

// Table is the directory-driven placement map: explicit assignments at
// volume grain. The zero value is not usable; call NewTable. Populate
// during topology construction only — lookups take no lock.
type Table struct {
	vols map[storage.VolumeID]string
}

// NewTable returns an empty table.
func NewTable() *Table {
	return &Table{vols: make(map[storage.VolumeID]string)}
}

// SetVolume assigns every item of a volume to owner (the coarse grain the
// pre-placement system supported).
func (t *Table) SetVolume(vol storage.VolumeID, owner string) {
	t.vols[vol] = owner
}

// VolumeOwner reports the volume-grain assignment, if any.
func (t *Table) VolumeOwner(vol storage.VolumeID) (string, bool) {
	o, ok := t.vols[vol]
	return o, ok
}

// Owner resolves the owner of the item's volume.
func (t *Table) Owner(item storage.ItemID) (string, error) {
	if o, ok := t.vols[item.Vol]; ok {
		return o, nil
	}
	return "", fmt.Errorf("%w: volume %d has no owner", ErrUnplaced, item.Vol)
}

// Shards lists the distinct owners in the table, sorted.
func (t *Table) Shards() []string {
	set := make(map[string]bool)
	for _, o := range t.vols {
		set[o] = true
	}
	out := make([]string, 0, len(set))
	for o := range set {
		out = append(out, o)
	}
	sort.Strings(out)
	return out
}

// Hash is the static-hash placement map: an item routes to
// shards[fnv1a(vol,file,page) mod N]. Placement is pure computation — no
// directory state — at the cost of ignoring locality. The shard list is
// part of the placement identity: two Hash maps agree iff their lists are
// element-wise equal.
type Hash struct {
	shards []string
}

// NewHash returns a hash map over the given shard names (at least one).
func NewHash(shards []string) (*Hash, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("placement: hash map needs at least one shard")
	}
	return &Hash{shards: append([]string(nil), shards...)}, nil
}

// Owner hashes the item's page coordinates onto the shard list. All items
// of one page route together — the page is the protocol's transfer and
// callback unit, so splitting a page across shards would be incoherent.
func (h *Hash) Owner(item storage.ItemID) (string, error) {
	f := fnv.New32a()
	var b [10]byte
	b[0] = byte(item.Vol)
	b[1] = byte(item.Vol >> 8)
	b[2] = byte(item.File)
	b[3] = byte(item.File >> 8)
	b[4] = byte(item.File >> 16)
	b[5] = byte(item.File >> 24)
	b[6] = byte(item.Page)
	b[7] = byte(item.Page >> 8)
	b[8] = byte(item.Page >> 16)
	b[9] = byte(item.Page >> 24)
	_, _ = f.Write(b[:])
	return h.shards[f.Sum32()%uint32(len(h.shards))], nil
}

// Shards lists the shard names, sorted.
func (h *Hash) Shards() []string {
	out := append([]string(nil), h.shards...)
	sort.Strings(out)
	return out
}
