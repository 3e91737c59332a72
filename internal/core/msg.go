package core

import (
	"errors"
	"fmt"

	"adaptivecc/internal/lock"
	"adaptivecc/internal/obs"
	"adaptivecc/internal/placement"
	"adaptivecc/internal/storage"
	"adaptivecc/internal/wal"
)

// Message kinds on the wire.
const (
	kindRequest         = "req"
	kindReply           = "resp"
	kindCallback        = "cb.req"
	kindCallbackAck     = "cb.ack"
	kindCallbackBlocked = "cb.blocked"
)

// errCode serializes protocol errors across peers.
type errCode string

const (
	errNone      errCode = ""
	errDeadlock  errCode = "deadlock"
	errTimeout   errCode = "timeout"
	errCanceled  errCode = "canceled"
	errMisrouted errCode = "misrouted"
	errOther     errCode = "error"
)

// ErrRemote wraps a non-sentinel failure reported by another peer.
var ErrRemote = errors.New("core: remote error")

func encodeErr(err error) (errCode, string) {
	switch {
	case err == nil:
		return errNone, ""
	case errors.Is(err, lock.ErrDeadlock):
		return errDeadlock, err.Error()
	case errors.Is(err, lock.ErrTimeout):
		return errTimeout, err.Error()
	case errors.Is(err, lock.ErrCanceled):
		return errCanceled, err.Error()
	case errors.Is(err, placement.ErrMisdirected):
		return errMisrouted, err.Error()
	default:
		return errOther, err.Error()
	}
}

func decodeErr(code errCode, detail string) error {
	switch code {
	case errNone:
		return nil
	case errDeadlock:
		return lock.ErrDeadlock
	case errTimeout:
		return lock.ErrTimeout
	case errCanceled:
		return lock.ErrCanceled
	case errMisrouted:
		return fmt.Errorf("%w: %s", placement.ErrMisdirected, detail)
	default:
		return fmt.Errorf("%w: %s", ErrRemote, detail)
	}
}

// lockReplica carries one client-held lock to be replicated at the server
// (deescalation replies, purge notices, callback-blocked handling).
type lockReplica struct {
	Tx   lock.TxID
	Item storage.ItemID
	Mode lock.Mode
}

// purgeNotice tells an owner that a page dropped out of a client cache. It
// carries the install count for purge-race detection, the local locks that
// must be replicated when the page was in use, and early-shipped log
// records for dirty objects that were evicted before commit. A notice with
// records travels only in a purge flush (see noticeEvictions).
type purgeNotice struct {
	Page    storage.ItemID
	Install uint64
	Locks   []lockReplica
	Records []wal.Record
}

// rpcEnvelope frames every client->server request, with piggybacked purge
// notices; a purge flush is an envelope with a nil Body. The sender is the
// carrying Message's From. Span is the sender-side RPC span: the receiver
// parents its serve span under it, joining the two sites' trace lanes into
// one causal tree. It is the zero value when observability is off.
type rpcEnvelope struct {
	ReqID uint64
	Span  obs.SpanContext
	Pig   []purgeNotice
	Body  any
}

// rpcReply frames the response. A request answered by success or failure
// alone — lock, prepare, decide, finish, release, flush — has a nil Body.
type rpcReply struct {
	ReqID  uint64
	Code   errCode
	Detail string
	Body   any
}

// readReq asks the owner for read access to Obj: an object item, or a
// page item (PS reads and explicit SH page locks), which asks for the
// whole page.
type readReq struct {
	Tx  lock.TxID
	Obj storage.ItemID
}

// writeReq asks the owner for write permission on Obj (object item; page
// item under PS).
type writeReq struct {
	Tx       lock.TxID
	Obj      storage.ItemID
	HavePage bool
	HaveObj  bool
}

// accessResp answers a read or a write request. Page is set when the owner
// shipped the page, ObjData when it shipped one object (OS reads, and
// writes of an object the client's copy lacks); either way Install is the
// copy's install count. Adaptive grants a write an adaptive page lock.
type accessResp struct {
	Adaptive bool
	Page     *storage.Page
	Avail    storage.AvailMask
	Install  uint64
	ObjData  []byte
}

// lockReq propagates an explicit hierarchical lock request (file, volume,
// or page IS/IX/SIX; SH page locks travel as a readReq of the page item).
type lockReq struct {
	Tx   lock.TxID
	Item storage.ItemID
	Mode lock.Mode
}

// prepareReq ships a transaction's log records to one owner (2PC phase 1).
// Coord names the coordinator shard for a cross-shard transaction: the
// participant writes a prepare record binding the transaction's fate to
// that shard's decision. Empty for a single-owner commit, whose fate needs
// no second phase — the owner's commit record alone decides it, exactly as
// before sharding.
type prepareReq struct {
	Tx      lock.TxID
	Records []wal.Record
	Coord   string
}

// decideReq records a cross-shard transaction's fate at its coordinator
// (the shard owning the first-written item). The coordinator's decision
// record is the transaction's commit point; it refuses a decision that
// contradicts one already recorded (e.g. a presumed abort written while
// answering a status query).
type decideReq struct {
	Tx     lock.TxID
	Commit bool
}

// statusReq asks a coordinator for a prepared transaction's fate. Under
// presumed abort, a coordinator with no recorded decision answers — and
// durably records — abort.
type statusReq struct {
	Tx lock.TxID
}

// statusResp carries the coordinator's recorded decision.
type statusResp struct {
	Commit bool
}

// finishReq finishes a transaction at one owner: commit (phase 2) or abort.
type finishReq struct {
	Tx     lock.TxID
	Commit bool
}

// releaseReq releases a transaction's locks at a peer where they were
// replicated (via callback-blocked replies or purge notices) without the
// transaction having spread there. It is idempotent.
type releaseReq struct {
	Tx lock.TxID
}

// deescReq asks a client to deescalate all adaptive locks on Page.
type deescReq struct {
	Page storage.ItemID
}

// deescResp lists the EX object locks held by the client's transactions on
// objects of the page, to be replicated at the server.
type deescResp struct {
	Locks []lockReplica
}

// callbackReq asks a client to invalidate Item (an object — possibly the
// page's dummy object — or, under PS, the whole page). The calling-back
// server is the carrying Message's From, as for the ack and blocked
// replies below; OpID comes from its request ID space. Span is the
// server-side callback-round span; the client's handling span is parented
// under it so the fan-out appears as one tree across sites.
type callbackReq struct {
	OpID uint64
	Tx   lock.TxID // the calling-back transaction
	Item storage.ItemID
	Page storage.ItemID
	// ObjectGrain demotes the callback to object grain: the client must
	// skip the page-first (whole-page purge) attempt even when its policy
	// would normally make one. Set by the server's policy (PS-AH on pages
	// with a conflict history) so both ends act on one decision; always
	// false under the static protocols.
	ObjectGrain bool
	Span        obs.SpanContext
}

// callbackAck completes one client's part of a callback operation.
// Invalidated reports that the whole page is (now) absent at the client.
type callbackAck struct {
	OpID        uint64
	Invalidated bool
}

// callbackBlocked replicates a client-side lock conflict at the server
// before the callback thread blocks (paper §4.2.1). Item is the item the
// callback blocked on: the page (hierarchical callbacks) or the object.
type callbackBlocked struct {
	OpID      uint64
	Item      storage.ItemID
	Conflicts []lockReplica // the local locks that block the callback
}

// reqName names a request body for trace annotations. Called only on
// observability paths.
func reqName(body any) string {
	switch body.(type) {
	case readReq:
		return "read"
	case writeReq:
		return "write"
	case lockReq:
		return "lock"
	case prepareReq:
		return "prepare"
	case decideReq:
		return "decide"
	case statusReq:
		return "status"
	case finishReq:
		return "finish"
	case releaseReq:
		return "release"
	case deescReq:
		return "deesc"
	case nil:
		return "flush"
	default:
		return fmt.Sprintf("%T", body)
	}
}
