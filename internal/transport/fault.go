// Deterministic fault injection. A FaultPlan installed on a fabric makes
// it unreliable in reproducible ways: per-link seeded RNG streams decide —
// as a pure function of (plan seed, link, message index) — whether each
// message is dropped, duplicated, or delayed out of FIFO order, and
// declarative windows cut one-way partitions. Peers can additionally be
// crashed at runtime, after which the fabric refuses traffic to and from
// them. With no plan installed and no crashes, the send and delivery paths
// run none of this code beyond one nil check per message: no decision
// stream is drawn and no message takes a fault branch, so a fault-free run
// makes exactly the path choices and counter updates it would make if
// fault injection did not exist.
package transport

import (
	"errors"
	"hash/fnv"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// ErrPeerDown is returned by Send when either endpoint has been crashed.
// Unlike injected drops (which are silent, as on a real lossy wire), a
// crashed peer refuses traffic loudly — the moral equivalent of connection
// refused — so callers can fail fast instead of burning their retry budget.
var ErrPeerDown = errors.New("transport: peer is down")

// FaultPlan declares the faults to inject. Probabilities are per message;
// all default to zero (no faults). The zero value injects nothing.
type FaultPlan struct {
	// Seed roots the per-link RNG streams. Two networks given the same
	// plan, topology, and per-link message sequences make identical fault
	// decisions.
	Seed int64
	// DropProb silently discards a message (the sender sees success).
	DropProb float64
	// DupProb enqueues a second copy of the message on the same path,
	// exercising at-least-once delivery.
	DupProb float64
	// DelayProb delivers the message outside its path's FIFO order, after
	// an extra Delay of latency — the reorder fault.
	DelayProb float64
	// Delay is the extra latency of a delayed message (default 1ms).
	Delay time.Duration
	// Partitions are one-way cuts: messages matching a window are silently
	// dropped.
	Partitions []Partition
}

// Partition silently drops messages From->To whose per-link sequence
// number n satisfies FromMsg <= n < ToMsg (ToMsg == 0 means forever).
// Empty From or To matches any endpoint, so {From: "p1"} isolates p1's
// outbound traffic entirely.
type Partition struct {
	From, To       string
	FromMsg, ToMsg uint64
}

// faultAction is the per-message decision.
type faultAction int

const (
	actDeliver faultAction = iota
	actDrop
	actDup
	actDelay
)

// faultState is the mutable fault machinery of one fabric.
type faultState struct {
	mu      sync.Mutex
	plan    FaultPlan
	links   map[linkKey]*linkFaults
	crashed map[string]bool
	parts   map[linkKey]bool // runtime one-way partitions
}

// linkFaults is the deterministic decision stream of one ordered link.
type linkFaults struct {
	rng *rand.Rand
	n   uint64 // messages offered to this link so far
}

func newFaultState(plan FaultPlan) *faultState {
	return &faultState{
		plan:    plan,
		links:   make(map[linkKey]*linkFaults),
		crashed: make(map[string]bool),
		parts:   make(map[linkKey]bool),
	}
}

// linkSeed mixes the plan seed with the link identity.
func linkSeed(seed int64, key linkKey) int64 {
	h := fnv.New64a()
	h.Write([]byte(key.from))
	h.Write([]byte{0})
	h.Write([]byte(key.to))
	return seed ^ int64(h.Sum64())
}

// decide draws this message's fate. Exactly three uniform draws are made
// per message regardless of outcome, so the decision stream for message n
// of a link is independent of which probabilities are set.
func (fs *faultState) decide(key linkKey) (faultAction, time.Duration) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	lf, ok := fs.links[key]
	if !ok {
		lf = &linkFaults{rng: rand.New(rand.NewSource(linkSeed(fs.plan.Seed, key)))}
		fs.links[key] = lf
	}
	n := lf.n
	lf.n++
	if fs.parts[key] || fs.parts[linkKey{key.from, ""}] || fs.parts[linkKey{"", key.to}] {
		return actDrop, 0
	}
	for _, pt := range fs.plan.Partitions {
		if (pt.From == "" || pt.From == key.from) && (pt.To == "" || pt.To == key.to) &&
			n >= pt.FromMsg && (pt.ToMsg == 0 || n < pt.ToMsg) {
			return actDrop, 0
		}
	}
	dropD, dupD, delayD := lf.rng.Float64(), lf.rng.Float64(), lf.rng.Float64()
	switch {
	case dropD < fs.plan.DropProb:
		return actDrop, 0
	case dupD < fs.plan.DupProb:
		return actDup, 0
	case delayD < fs.plan.DelayProb:
		d := fs.plan.Delay
		if d <= 0 {
			d = time.Millisecond
		}
		return actDelay, d
	}
	return actDeliver, 0
}

func (fs *faultState) isCrashed(name string) bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.crashed[name]
}

// faultHost is the fault machinery shared by every Fabric implementation.
// Embedding it gives a fabric the InjectFaults/Crash/Crashed/Partition
// surface with identical per-link decision streams, so the same FaultPlan
// produces the same fault schedule on the simulated Network and on TCP.
// The faults pointer is nil until first use; fault-free fabrics pay one
// atomic load per message.
type faultHost struct {
	faultsMu sync.Mutex // serializes install/create; readers use faults directly
	faults   atomic.Pointer[faultState]
}

// faultsOrCreate returns the fabric's fault state, installing an empty
// one on first use (runtime crashes and partitions work without a plan).
func (h *faultHost) faultsOrCreate() *faultState {
	h.faultsMu.Lock()
	defer h.faultsMu.Unlock()
	if fs := h.faults.Load(); fs != nil {
		return fs
	}
	fs := newFaultState(FaultPlan{})
	h.faults.Store(fs)
	return fs
}

// InjectFaults installs (or replaces) the fabric's fault plan. It may be
// called before traffic starts; replacing a plan mid-run resets the
// per-link decision streams but keeps nothing else (crashed peers and
// runtime partitions are forgotten — inject before crashing).
func (h *faultHost) InjectFaults(plan FaultPlan) {
	h.faultsMu.Lock()
	defer h.faultsMu.Unlock()
	h.faults.Store(newFaultState(plan))
}

// Crash marks an endpoint dead: subsequent sends to or from it fail with
// ErrPeerDown, and messages already queued for it are discarded at
// delivery time (a dead peer processes nothing). Returns false if the peer
// was already crashed. Works without a fault plan.
func (h *faultHost) Crash(name string) bool {
	fs := h.faultsOrCreate()
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.crashed[name] {
		return false
	}
	fs.crashed[name] = true
	return true
}

// Crashed reports whether an endpoint has been crashed.
func (h *faultHost) Crashed(name string) bool {
	fs := h.faults.Load()
	return fs != nil && fs.isCrashed(name)
}

// PartitionLink installs a runtime one-way partition from->to ("" matches
// any endpoint). It stacks with the plan's declarative windows.
func (h *faultHost) PartitionLink(from, to string) {
	fs := h.faultsOrCreate()
	fs.mu.Lock()
	fs.parts[linkKey{from, to}] = true
	fs.mu.Unlock()
}

// HealLink removes a runtime partition installed by PartitionLink.
func (h *faultHost) HealLink(from, to string) {
	fs := h.faults.Load()
	if fs == nil {
		return
	}
	fs.mu.Lock()
	delete(fs.parts, linkKey{from, to})
	fs.mu.Unlock()
}
