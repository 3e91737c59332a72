package obs

import (
	cryptorand "crypto/rand"
	"encoding/binary"
	"sync"
	"sync/atomic"
	"time"
)

// EventKind is the type of one structured trace event.
type EventKind int

// The event vocabulary of the page-server fabric (see DESIGN.md §9).
const (
	EvLockRequest     EventKind = iota + 1 // explicit hierarchical lock request
	EvLockBlock                            // a lock request started waiting
	EvLockGrant                            // a blocked lock request was granted (span)
	EvCallbackSent                         // server sent a callback to a client
	EvCallbackBlocked                      // a client reported a callback conflict
	EvCallbackAcked                        // a client acknowledged a callback
	EvEscalation                           // adaptive page lock granted (PS-AA)
	EvDeescalation                         // adaptive page lock torn down
	EvPageShip                             // a page copy was shipped to a client
	EvWALAppend                            // records forced to the stable log (span)
	EvRetry                                // an RPC attempt was resent
	EvTimeout                              // an RPC or callback round timed out
	EvCrashReclaim                         // state of a crashed peer was reclaimed
	EvClientOp                             // one client operation: Read/Write/LockItem (span)
	EvRPC                                  // one request/reply round trip (span)
	EvServe                                // server-side execution of one request (span)
	EvCallbackRound                        // one server-side callback round (span)
	EvCallbackHandled                      // client-side handling of one callback (span)
	EvCommit                               // Tx.Commit (span)
	EvDiskIO                               // one page read from a volume (span)
)

// String names the kind as it appears in trace exports.
func (k EventKind) String() string {
	switch k {
	case EvLockRequest:
		return "lock.request"
	case EvLockBlock:
		return "lock.block"
	case EvLockGrant:
		return "lock.grant"
	case EvCallbackSent:
		return "callback.sent"
	case EvCallbackBlocked:
		return "callback.blocked"
	case EvCallbackAcked:
		return "callback.acked"
	case EvEscalation:
		return "adaptive.escalation"
	case EvDeescalation:
		return "adaptive.deescalation"
	case EvPageShip:
		return "page.ship"
	case EvWALAppend:
		return "wal.append"
	case EvRetry:
		return "rpc.retry"
	case EvTimeout:
		return "rpc.timeout"
	case EvCrashReclaim:
		return "crash.reclaim"
	case EvClientOp:
		return "client.op"
	case EvRPC:
		return "rpc.call"
	case EvServe:
		return "rpc.serve"
	case EvCallbackRound:
		return "callback.round"
	case EvCallbackHandled:
		return "callback.handled"
	case EvCommit:
		return "tx.commit"
	case EvDiskIO:
		return "disk.io"
	default:
		return "unknown"
	}
}

// Category groups kinds into Chrome trace categories.
func (k EventKind) Category() string {
	switch k {
	case EvLockRequest, EvLockBlock, EvLockGrant:
		return "lock"
	case EvCallbackSent, EvCallbackBlocked, EvCallbackAcked, EvCallbackRound, EvCallbackHandled:
		return "callback"
	case EvEscalation, EvDeescalation:
		return "adaptive"
	case EvPageShip:
		return "transfer"
	case EvWALAppend:
		return "wal"
	case EvRetry, EvTimeout:
		return "resilience"
	case EvCrashReclaim:
		return "recovery"
	case EvClientOp, EvCommit:
		return "tx"
	case EvRPC, EvServe:
		return "rpc"
	case EvDiskIO:
		return "io"
	default:
		return "misc"
	}
}

// SpanContext is the causal identity carried by every protocol message:
// the trace (the driving transaction's "site:seq" identity), this span's
// id, and the parent span's id. Span ids are allocated from one
// process-wide counter, so they are unique across every site of every
// in-process system and a child can always be joined to its parent no
// matter which peer emitted it. The zero value means "no span": it
// propagates freely through the message fabric when observability is off
// and every consumer treats it as absent.
type SpanContext struct {
	Trace  string // transaction identity ("site:seq"); empty = no trace
	Span   uint64 // this span's id; 0 = not a span of its own
	Parent uint64 // parent span id; 0 = root
}

// spanIDs is the process-wide span id allocator.
var spanIDs atomic.Uint64

// SeedSpanIDs namespaces this process's span ids: the allocator restarts
// at ns<<32, so two processes seeded with distinct namespaces can mint up
// to 2³² spans each without ever colliding. Span contexts ride protocol
// messages across address spaces (rpcEnvelope.Span, callbackReq.Span) and
// the fleet collector joins children to parents purely by id, so every
// process of a multi-process deployment MUST seed a distinct namespace
// before emitting its first span — shored and shorecli do this at startup
// via RandomizeSpanIDs. In-process systems need no seeding: one allocator
// already serves every site.
func SeedSpanIDs(ns uint32) {
	spanIDs.Store(uint64(ns) << 32)
}

// RandomizeSpanIDs seeds the span-id namespace with cryptographically
// random bits, making cross-process collisions vanishingly unlikely
// without any coordination. Returns the chosen namespace.
func RandomizeSpanIDs() uint32 {
	var b [4]byte
	if _, err := cryptorand.Read(b[:]); err != nil {
		// No entropy source: fall back to the wall clock. Still unique
		// across processes started more than a nanosecond apart.
		ns := uint32(time.Now().UnixNano())
		SeedSpanIDs(ns)
		return ns
	}
	ns := binary.LittleEndian.Uint32(b[:])
	SeedSpanIDs(ns)
	return ns
}

// NewSpan allocates a child span of parent. trace overrides the trace
// identity; when empty the parent's is inherited. Unlike
// Registry.StartSpan this is unconditional — tests and analyzers use it.
func NewSpan(trace string, parent SpanContext) SpanContext {
	if trace == "" {
		trace = parent.Trace
	}
	return SpanContext{Trace: trace, Span: spanIDs.Add(1), Parent: parent.Span}
}

// Under derives the context for an instant (or leaf span) nested under sc:
// same trace, parented to sc's span, with no span id of its own. The zero
// context stays zero.
func (sc SpanContext) Under() SpanContext {
	return SpanContext{Trace: sc.Trace, Parent: sc.Span}
}

// Event is one structured trace record. At is the completion time of the
// event in simulated (paper) time since the Set's start; Dur, when nonzero,
// makes the event a span ending at At. Tx is the transaction's "site:seq"
// identity and Item the lock-hierarchy path of the item involved. Span and
// Parent place the event in the causal tree of its trace (0 = none); Peer
// names the remote site involved, when there is one (the callback target,
// the RPC destination, the requesting client).
type Event struct {
	Kind   EventKind
	At     time.Duration
	Dur    time.Duration
	Site   string
	Tx     string
	Item   string
	Note   string
	Peer   string
	Span   uint64
	Parent uint64
}

// TraceRing is a bounded ring buffer of events; when full, the oldest
// events are overwritten and counted as dropped.
type TraceRing struct {
	mu      sync.Mutex
	buf     []Event
	next    int
	full    bool
	dropped uint64
}

// newTraceRing returns a ring holding up to cap events.
func newTraceRing(capacity int) *TraceRing {
	if capacity <= 0 {
		capacity = DefaultTraceCap
	}
	return &TraceRing{buf: make([]Event, capacity)}
}

// Add records one event, overwriting the oldest when full.
func (r *TraceRing) Add(ev Event) {
	r.mu.Lock()
	if r.full {
		r.dropped++
	}
	r.buf[r.next] = ev
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
	r.mu.Unlock()
}

// Len reports the number of retained events.
func (r *TraceRing) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.full {
		return len(r.buf)
	}
	return r.next
}

// Dropped reports how many events were overwritten.
func (r *TraceRing) Dropped() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Snapshot copies the retained events oldest-first.
func (r *TraceRing) Snapshot() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.full {
		out := make([]Event, r.next)
		copy(out, r.buf[:r.next])
		return out
	}
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}
