package core

import "testing"

// Zero-allocation guard for the one recycled piece of the envelope send
// path (DESIGN.md §12). A full end-to-end send crosses goroutines
// (transport path, receiver, disk), so testing.AllocsPerRun — which counts
// mallocs from every goroutine — cannot pin it directly; the end-to-end
// numbers are watched by `bash benchmark/run.sh`
// (shoreclient.allocs_per_commit).

// TestReplyChanReuseZeroAlloc pins the reply-channel free list: after the
// first call has populated it, take/recycle must reuse the same channel
// without making a new one.
func TestReplyChanReuseZeroAlloc(t *testing.T) {
	p := &Peer{}
	p.mu.Lock()
	ch := p.takeReplyChanLocked() // first take allocates the channel
	p.mu.Unlock()
	p.recycleReplyChan(ch)

	n := testing.AllocsPerRun(200, func() {
		p.mu.Lock()
		ch := p.takeReplyChanLocked()
		p.mu.Unlock()
		p.recycleReplyChan(ch)
	})
	if n != 0 {
		t.Errorf("reply-channel take/recycle allocates %.2f allocs/op, want 0", n)
	}
}
