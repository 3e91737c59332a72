// The codec rung of the performance ladder: what one message of the real
// protocol vocabulary costs to encode, frame, unframe and decode, with
// nothing else in the way — no socket, no goroutine hand-off, no handler.
// It drives transport.StreamEncoder and transport.StreamDecoder, the very
// types the TCP fabric hangs off every socket, in steady state (a warm-up
// message has sized the frame buffers and interned the names, as the first
// messages of a connection do in a running system). EXPERIMENTS.md records
// the numbers.
package core

import (
	"bytes"
	"testing"

	"adaptivecc/internal/lock"
	"adaptivecc/internal/obs"
	"adaptivecc/internal/storage"
	"adaptivecc/internal/transport"
	"adaptivecc/internal/wal"
)

// wireBenchSink keeps the decoded message alive so the round trip cannot
// be optimised away.
var wireBenchSink transport.Message

func BenchmarkWireRoundTrip(b *testing.B) {
	// Geometry of the repository benchmark: 4 KB pages of 20 objects.
	const objectsPerPage, objectSize = 20, 4096 / 20
	tx := lock.TxID{Site: "c1", Seq: 4711}
	obj := objID(17, 3)
	span := obs.SpanContext{}
	page := storage.NewPage(pageID(17), objectsPerPage, objectSize)
	for i, o := range page.Objects {
		for j := range o {
			o[j] = byte(i + j)
		}
	}
	records := make([]wal.Record, 180)
	for i := range records {
		records[i] = wal.Record{
			Tx:     tx,
			Object: objID(uint32(i/7), uint16(i%objectsPerPage)),
			Before: page.Objects[i%objectsPerPage],
			After:  []byte{0, 0, 0, 1, 0, 0, 0, byte(i)},
		}
	}
	request := func(body any) transport.Message {
		return transport.Message{From: "c1", To: "srv", Kind: kindRequest,
			Payload: &rpcEnvelope{ReqID: 99, Span: span, Body: body}}
	}
	reply := func(body any, carriesPage bool) transport.Message {
		return transport.Message{From: "srv", To: "c1", Kind: kindReply, CarriesPage: carriesPage,
			Payload: &rpcReply{ReqID: 99, Body: body}}
	}
	cases := []struct {
		name string
		msg  transport.Message
	}{
		{"writeReq", request(writeReq{Tx: tx, Obj: obj, HavePage: true, HaveObj: true})},
		{"accessResp", reply(accessResp{Adaptive: true, Avail: 0xFFFFF, Install: 3}, false)},
		{"accessResp-4KBpage", reply(accessResp{Page: page, Avail: 0xFFFFF, Install: 3}, true)},
		{"prepareReq-180records", request(prepareReq{Tx: tx, Records: records})},
		{"callbackReq", transport.Message{From: "srv", To: "c2", Kind: kindCallback,
			Payload: &callbackReq{OpID: 7, Tx: tx, Item: obj, Page: pageID(17), Span: span}}},
		{"callbackAck", transport.Message{From: "c2", To: "srv", Kind: kindCallbackAck,
			Payload: callbackAck{OpID: 7, Invalidated: true}}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			var wire bytes.Reader
			enc := transport.NewStreamEncoder()
			dec := transport.NewStreamDecoder(&wire)
			roundTrip := func() int {
				frame, err := enc.Encode(tc.msg)
				if err != nil {
					b.Fatal(err)
				}
				wire.Reset(frame)
				if wireBenchSink, err = dec.Decode(); err != nil {
					b.Fatal(err)
				}
				return len(frame)
			}
			roundTrip() // warm-up: buffers sized, names interned
			b.ReportAllocs()
			b.ResetTimer()
			var frameBytes int
			for i := 0; i < b.N; i++ {
				frameBytes = roundTrip()
			}
			b.ReportMetric(float64(frameBytes), "B/frame")
		})
	}
}
