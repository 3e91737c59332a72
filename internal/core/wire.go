package core

import (
	"fmt"

	"adaptivecc/internal/codec"
	"adaptivecc/internal/lock"
	"adaptivecc/internal/obs"
	"adaptivecc/internal/storage"
	"adaptivecc/internal/transport"
	"adaptivecc/internal/wal"
)

// The binary wire encoding of the protocol vocabulary, used by the TCP
// fabric (the simulated Network passes payloads by reference and never
// encodes). Each of the five payload types is a transport.WirePayload
// under its own tag; an envelope or reply carries its body behind a body
// tag. Fields are written in declaration order with internal/codec, whose
// record encoding is also the log image's. Decoders return what handle()
// type-asserts on: pointers for envelopes, replies and callback requests,
// values for acks and blocked replies. Every byte slice they return is a
// fresh allocation (codec.Reader.Bytes), never a view of the frame buffer,
// which is what keeps a shipped page's object slots immutable (DESIGN.md
// §3).

// Payload tags.
const (
	tagEnvelope byte = iota + 1
	tagReply
	tagCallbackReq
	tagCallbackAck
	tagCallbackBlocked
)

// payloadDecoders is indexed by payload tag.
var payloadDecoders = [...]transport.WireDecoder{
	tagEnvelope:        readEnvelope,
	tagReply:           readReply,
	tagCallbackReq:     readCallbackReq,
	tagCallbackAck:     readCallbackAck,
	tagCallbackBlocked: readCallbackBlocked,
}

func init() {
	for tag, dec := range payloadDecoders {
		if dec != nil {
			transport.RegisterWireDecoder(byte(tag), dec)
		}
	}
}

var (
	_ transport.WirePayload = (*rpcEnvelope)(nil)
	_ transport.WirePayload = (*rpcReply)(nil)
	_ transport.WirePayload = (*callbackReq)(nil)
	_ transport.WirePayload = callbackAck{}
	_ transport.WirePayload = callbackBlocked{}
)

func (*rpcEnvelope) WireTag() byte { return tagEnvelope }

func (e *rpcEnvelope) AppendWire(w *codec.Writer) {
	w.U64(e.ReqID)
	appendSpan(w, e.Span)
	w.Count(len(e.Pig))
	for _, n := range e.Pig {
		w.Item(n.Page)
		w.U64(n.Install)
		appendLocks(w, n.Locks)
		appendRecords(w, n.Records)
	}
	appendBody(w, e.Body)
}

// purgeNoticeMinSize is the smallest encoding of a purgeNotice.
const purgeNoticeMinSize = codec.ItemSize + 8 + 4 + 4

func readEnvelope(r *codec.Reader) any {
	e := &rpcEnvelope{ReqID: r.U64(), Span: readSpan(r)}
	if n := r.Count(purgeNoticeMinSize); n > 0 {
		e.Pig = make([]purgeNotice, n)
		for i := range e.Pig {
			e.Pig[i] = purgeNotice{Page: r.Item(), Install: r.U64(), Locks: readLocks(r), Records: readRecords(r)}
		}
	}
	e.Body = readBody(r)
	return e
}

func (*rpcReply) WireTag() byte { return tagReply }

func (rp *rpcReply) AppendWire(w *codec.Writer) {
	w.U64(rp.ReqID)
	w.String(string(rp.Code))
	w.String(rp.Detail)
	appendBody(w, rp.Body)
}

func readReply(r *codec.Reader) any {
	rp := &rpcReply{ReqID: r.U64(), Code: errCode(r.Name()), Detail: r.String()}
	rp.Body = readBody(r)
	return rp
}

func (*callbackReq) WireTag() byte { return tagCallbackReq }

func (c *callbackReq) AppendWire(w *codec.Writer) {
	w.U64(c.OpID)
	w.Tx(c.Tx)
	w.Item(c.Item)
	w.Item(c.Page)
	w.Bool(c.ObjectGrain)
	appendSpan(w, c.Span)
}

func readCallbackReq(r *codec.Reader) any {
	return &callbackReq{OpID: r.U64(), Tx: r.Tx(), Item: r.Item(), Page: r.Item(), ObjectGrain: r.Bool(),
		Span: readSpan(r)}
}

func (callbackAck) WireTag() byte { return tagCallbackAck }

func (a callbackAck) AppendWire(w *codec.Writer) {
	w.U64(a.OpID)
	w.Bool(a.Invalidated)
}

func readCallbackAck(r *codec.Reader) any {
	return callbackAck{OpID: r.U64(), Invalidated: r.Bool()}
}

func (callbackBlocked) WireTag() byte { return tagCallbackBlocked }

func (b callbackBlocked) AppendWire(w *codec.Writer) {
	w.U64(b.OpID)
	w.Item(b.Item)
	appendLocks(w, b.Conflicts)
}

func readCallbackBlocked(r *codec.Reader) any {
	return callbackBlocked{OpID: r.U64(), Item: r.Item(), Conflicts: readLocks(r)}
}

// Body tags of envelopes and replies; bodyNone is a nil body.
const (
	bodyNone byte = iota
	bodyReadReq
	bodyWriteReq
	bodyAccessResp
	bodyLockReq
	bodyPrepareReq
	bodyDecideReq
	bodyStatusReq
	bodyStatusResp
	bodyFinishReq
	bodyReleaseReq
	bodyDeescReq
	bodyDeescResp
)

// appendBody writes body behind its tag. A body type the codec does not
// know fails the writer: the fabric refuses the send, it never panics.
func appendBody(w *codec.Writer, body any) {
	switch b := body.(type) {
	case nil:
		w.U8(bodyNone)
	case readReq:
		w.U8(bodyReadReq)
		w.Tx(b.Tx)
		w.Item(b.Obj)
	case writeReq:
		w.U8(bodyWriteReq)
		w.Tx(b.Tx)
		w.Item(b.Obj)
		w.Bool(b.HavePage)
		w.Bool(b.HaveObj)
	case accessResp:
		w.U8(bodyAccessResp)
		w.Bool(b.Adaptive)
		appendPage(w, b.Page)
		w.U64(uint64(b.Avail))
		w.U64(b.Install)
		w.Bytes(b.ObjData)
	case lockReq:
		w.U8(bodyLockReq)
		w.Tx(b.Tx)
		w.Item(b.Item)
		appendMode(w, b.Mode)
	case prepareReq:
		w.U8(bodyPrepareReq)
		w.Tx(b.Tx)
		appendRecords(w, b.Records)
		w.String(b.Coord)
	case decideReq:
		w.U8(bodyDecideReq)
		w.Tx(b.Tx)
		w.Bool(b.Commit)
	case statusReq:
		w.U8(bodyStatusReq)
		w.Tx(b.Tx)
	case statusResp:
		w.U8(bodyStatusResp)
		w.Bool(b.Commit)
	case finishReq:
		w.U8(bodyFinishReq)
		w.Tx(b.Tx)
		w.Bool(b.Commit)
	case releaseReq:
		w.U8(bodyReleaseReq)
		w.Tx(b.Tx)
	case deescReq:
		w.U8(bodyDeescReq)
		w.Item(b.Page)
	case deescResp:
		w.U8(bodyDeescResp)
		appendLocks(w, b.Locks)
	default:
		w.Fail(fmt.Errorf("core: no wire encoding for body %T", body))
	}
}

func readBody(r *codec.Reader) any {
	switch tag := r.U8(); tag {
	case bodyNone:
		return nil
	case bodyReadReq:
		return readReq{Tx: r.Tx(), Obj: r.Item()}
	case bodyWriteReq:
		return writeReq{Tx: r.Tx(), Obj: r.Item(), HavePage: r.Bool(), HaveObj: r.Bool()}
	case bodyAccessResp:
		return accessResp{Adaptive: r.Bool(), Page: readPage(r), Avail: storage.AvailMask(r.U64()),
			Install: r.U64(), ObjData: r.Bytes()}
	case bodyLockReq:
		return lockReq{Tx: r.Tx(), Item: r.Item(), Mode: readMode(r)}
	case bodyPrepareReq:
		return prepareReq{Tx: r.Tx(), Records: readRecords(r), Coord: r.Name()}
	case bodyDecideReq:
		return decideReq{Tx: r.Tx(), Commit: r.Bool()}
	case bodyStatusReq:
		return statusReq{Tx: r.Tx()}
	case bodyStatusResp:
		return statusResp{Commit: r.Bool()}
	case bodyFinishReq:
		return finishReq{Tx: r.Tx(), Commit: r.Bool()}
	case bodyReleaseReq:
		return releaseReq{Tx: r.Tx()}
	case bodyDeescReq:
		return deescReq{Page: r.Item()}
	case bodyDeescResp:
		return deescResp{Locks: readLocks(r)}
	default:
		r.Fail(fmt.Errorf("core: unknown body tag %d", tag))
		return nil
	}
}

// appendPage writes a presence byte and, for a page, its id, LSN and slots.
func appendPage(w *codec.Writer, pg *storage.Page) {
	w.Bool(pg != nil)
	if pg == nil {
		return
	}
	w.Item(pg.ID)
	w.U64(pg.LSN)
	w.Count(len(pg.Objects))
	for _, o := range pg.Objects {
		w.Bytes(o)
	}
}

func readPage(r *codec.Reader) *storage.Page {
	if !r.Bool() {
		return nil
	}
	pg := &storage.Page{ID: r.Item(), LSN: r.U64()}
	if n := r.Count(4); n > 0 {
		pg.Objects = make([][]byte, n)
		for i := range pg.Objects {
			pg.Objects[i] = r.Bytes()
		}
	}
	return pg
}

// lockReplicaMinSize is the smallest encoding of a lockReplica.
const lockReplicaMinSize = codec.TxSize + codec.ItemSize + 1

func appendLocks(w *codec.Writer, ls []lockReplica) {
	w.Count(len(ls))
	for _, l := range ls {
		w.Tx(l.Tx)
		w.Item(l.Item)
		appendMode(w, l.Mode)
	}
}

func readLocks(r *codec.Reader) []lockReplica {
	n := r.Count(lockReplicaMinSize)
	if n == 0 {
		return nil
	}
	ls := make([]lockReplica, n)
	for i := range ls {
		ls[i] = lockReplica{Tx: r.Tx(), Item: r.Item(), Mode: readMode(r)}
	}
	return ls
}

func appendRecords(w *codec.Writer, recs []wal.Record) {
	w.Count(len(recs))
	for i := range recs {
		wal.AppendRecord(w, &recs[i])
	}
}

func readRecords(r *codec.Reader) []wal.Record {
	n := r.Count(wal.RecordMinSize)
	if n == 0 {
		return nil
	}
	recs := make([]wal.Record, n)
	for i := range recs {
		wal.ReadRecord(r, &recs[i])
	}
	return recs
}

// A lock mode travels as one byte; only the six modes of lock.Mode exist.
func appendMode(w *codec.Writer, m lock.Mode) {
	if m < lock.NL || m > lock.EX {
		w.Fail(fmt.Errorf("core: lock mode %d has no wire encoding", m))
		return
	}
	w.U8(byte(m))
}

func readMode(r *codec.Reader) lock.Mode {
	m := lock.Mode(r.U8())
	if m > lock.EX {
		r.Fail(fmt.Errorf("core: unknown lock mode %d", m))
		return lock.NL
	}
	return m
}

func appendSpan(w *codec.Writer, sc obs.SpanContext) {
	w.String(sc.Trace)
	w.U64(sc.Span)
	w.U64(sc.Parent)
}

func readSpan(r *codec.Reader) obs.SpanContext {
	return obs.SpanContext{Trace: r.String(), Span: r.U64(), Parent: r.U64()}
}
