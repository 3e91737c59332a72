// Package bounded provides a map that holds a fixed number of keys and
// forgets the oldest first — the shape of the protocol's tombstone and
// dedup sets, which must remember recent history but cannot remember all
// of it.
package bounded

// Map is a K→V map of at most a fixed number of keys. Inserting a new key
// into a full map evicts the key inserted longest ago: eviction is FIFO by
// first insertion, and neither reads nor updates refresh a key. A Map is
// not synchronised; callers guard it with their own mutex.
type Map[K comparable, V any] struct {
	m    map[K]V
	ring []K // keys in insertion order; once full, ring[next] is the oldest
	next int
}

// New returns an empty map that holds at most capacity keys (at least 1).
func New[K comparable, V any](capacity int) *Map[K, V] {
	if capacity < 1 {
		panic("bounded: capacity must be at least 1")
	}
	return &Map[K, V]{m: make(map[K]V), ring: make([]K, 0, capacity)}
}

// Get returns k's value and whether k is present.
func (b *Map[K, V]) Get(k K) (V, bool) {
	v, ok := b.m[k]
	return v, ok
}

// Has reports whether k is present.
func (b *Map[K, V]) Has(k K) bool {
	_, ok := b.m[k]
	return ok
}

// Put sets k's value. A key already present keeps its place in the
// eviction order; a new key evicts the oldest one if the map is full.
func (b *Map[K, V]) Put(k K, v V) {
	if _, ok := b.m[k]; !ok {
		if len(b.ring) < cap(b.ring) {
			b.ring = append(b.ring, k)
		} else {
			delete(b.m, b.ring[b.next])
			b.ring[b.next] = k
			b.next = (b.next + 1) % len(b.ring)
		}
	}
	b.m[k] = v
}

// Update sets k's value only if k is still present — it may have been
// evicted since it was put — and reports whether it was.
func (b *Map[K, V]) Update(k K, v V) bool {
	if _, ok := b.m[k]; !ok {
		return false
	}
	b.m[k] = v
	return true
}

// Len reports the number of keys held.
func (b *Map[K, V]) Len() int { return len(b.m) }
