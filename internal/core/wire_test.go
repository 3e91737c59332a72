package core

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"

	"adaptivecc/internal/codec"
	"adaptivecc/internal/obs"
	"adaptivecc/internal/transport"
)

// One value of every request and reply body type.
var (
	requestBodies = []any{readReq{}, writeReq{}, lockReq{}, prepareReq{}, decideReq{},
		statusReq{}, finishReq{}, releaseReq{}, deescReq{}}
	replyBodies = []any{accessResp{}, statusResp{}, deescResp{}}
)

// fill sets every field reachable from v to a non-zero value: structs
// field by field, pointers to a filled value, byte slices to three
// non-zero bytes, other slices to two filled elements. Integers stay in
// 1..5 so lock modes and item levels are valid; interface fields are left
// for the caller.
func fill(t testing.TB, v reflect.Value, n *int) {
	*n++
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(1 + *n%5))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(uint64(*n))
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", *n))
	case reflect.Slice:
		if v.Type().Elem().Kind() == reflect.Uint8 {
			v.SetBytes([]byte{byte(1 + *n%255), 0xA5, 7})
			return
		}
		s := reflect.MakeSlice(v.Type(), 2, 2)
		for i := 0; i < s.Len(); i++ {
			fill(t, s.Index(i), n)
		}
		v.Set(s)
	case reflect.Pointer:
		p := reflect.New(v.Type().Elem())
		fill(t, p.Elem(), n)
		v.Set(p)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fill(t, v.Field(i), n)
		}
	case reflect.Interface:
	default:
		t.Fatalf("fill: no rule for %s", v.Type())
	}
}

// zeroField names a field reachable from v that is still its zero value.
func zeroField(v reflect.Value, path string) string {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if z := zeroField(v.Field(i), path+"."+v.Type().Field(i).Name); z != "" {
				return z
			}
		}
		return ""
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			return path
		}
		return zeroField(v.Elem(), path)
	case reflect.Slice:
		if v.Len() == 0 {
			return path
		}
		for i := 0; i < v.Len(); i++ {
			if z := zeroField(v.Index(i), fmt.Sprintf("%s[%d]", path, i)); z != "" {
				return z
			}
		}
		return ""
	}
	if v.IsZero() {
		return path
	}
	return ""
}

// filled returns a pointer to a filled value of v's type.
func filled(t testing.TB, v any, n *int) reflect.Value {
	p := reflect.New(reflect.TypeOf(v))
	fill(t, p.Elem(), n)
	return p
}

// wireSamples returns every payload of the vocabulary with every field,
// nested ones included, non-zero: an envelope around each request body,
// a reply around each reply body, and the three callback messages.
func wireSamples(t testing.TB) []transport.Message {
	var n int
	var msgs []transport.Message
	add := func(kind string, p any) {
		msgs = append(msgs, transport.Message{From: "c1", To: "srv", Kind: kind, CarriesPage: true, Payload: p})
	}
	for _, body := range requestBodies {
		env := filled(t, rpcEnvelope{}, &n).Interface().(*rpcEnvelope)
		env.Body = filled(t, body, &n).Elem().Interface()
		add(kindRequest, env)
	}
	for _, body := range replyBodies {
		reply := filled(t, rpcReply{}, &n).Interface().(*rpcReply)
		reply.Body = filled(t, body, &n).Elem().Interface()
		add(kindReply, reply)
	}
	add(kindCallback, filled(t, callbackReq{}, &n).Interface())
	add(kindCallbackAck, filled(t, callbackAck{}, &n).Elem().Interface())
	add(kindCallbackBlocked, filled(t, callbackBlocked{}, &n).Elem().Interface())
	for _, m := range msgs {
		if z := zeroField(reflect.ValueOf(m), "Message"); z != "" {
			t.Fatalf("sample %T leaves %s zero: the round trip would not check it", m.Payload, z)
		}
	}
	return msgs
}

// edgeSamples are payloads of the vocabulary that leave fields zero on
// purpose: nil bodies (a purge flush, an acknowledgement, an error reply)
// and an object ship, whose reply carries no page.
func edgeSamples() []transport.Message {
	return []transport.Message{
		{From: "c1", To: "srv", Kind: kindRequest, Payload: &rpcEnvelope{ReqID: 3}},
		{From: "srv", To: "c1", Kind: kindReply, Payload: &rpcReply{ReqID: 4}},
		{From: "srv", To: "c1", Kind: kindReply, Payload: &rpcReply{ReqID: 3, Code: errOther, Detail: "x"}},
		{From: "srv", To: "c1", Kind: kindReply, Payload: &rpcReply{ReqID: 5, Body: accessResp{Install: 2, ObjData: []byte{1, 2}}}},
	}
}

// TestWireCodecRoundTrip sends every vocabulary type, every field set,
// through the TCP fabric's codec and requires the very value back. A field
// the codec forgets decodes as its zero value and fails the comparison.
func TestWireCodecRoundTrip(t *testing.T) {
	samples := append(wireSamples(t), edgeSamples()...)
	var wire bytes.Buffer
	enc := transport.NewStreamEncoder()
	dec := transport.NewStreamDecoder(&wire)
	for round := 0; round < 2; round++ { // the second round decodes interned names
		for _, in := range samples {
			frame, err := enc.Encode(in)
			if err != nil {
				t.Fatalf("encode %T: %v", in.Payload, err)
			}
			wire.Write(frame)
			out, err := dec.Decode()
			if err != nil {
				t.Fatalf("decode %T: %v", in.Payload, err)
			}
			if !reflect.DeepEqual(out, in) {
				t.Fatalf("%T round trip:\n got %+v\nwant %+v", in.Payload,
					reflect.Indirect(reflect.ValueOf(out.Payload)), reflect.Indirect(reflect.ValueOf(in.Payload)))
			}
		}
	}

	// A body the codec does not know is an encode error, never a panic.
	bad := transport.Message{From: "c1", To: "srv", Kind: kindRequest, Payload: &rpcEnvelope{Body: struct{ X int }{1}}}
	if _, err := transport.NewStreamEncoder().Encode(bad); err == nil {
		t.Fatal("encoding an envelope with an unknown body succeeded")
	}
}

// heapAllocated reports the bytes allocated by this process so far.
func heapAllocated() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// FuzzDecodeWire feeds hostile bytes to the decoder of every payload tag
// (the first input byte is the tag). A decoder may refuse, never panic;
// what it allocates is bounded by its input, because every count and
// length is checked against the bytes left before anything is allocated
// (the factor covers a list element's in-memory size over its smallest
// encoding: 24 bytes of slice header per 4-byte page slot); interning
// changes no value; and whatever it accepts re-encodes to the very bytes
// it read, so the encoding is canonical.
func FuzzDecodeWire(f *testing.F) {
	for _, m := range append(wireSamples(f), edgeSamples()...) {
		p := m.Payload.(transport.WirePayload)
		var w codec.Writer
		p.AppendWire(&w)
		f.Add(append([]byte{p.WireTag()}, w.B...))
	}
	var huge codec.Writer // an envelope whose notice count claims four billion notices
	huge.U64(1)
	appendSpan(&huge, obs.SpanContext{})
	huge.U32(math.MaxUint32)
	f.Add(append([]byte{tagEnvelope}, huge.B...))
	f.Add([]byte{tagReply})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		tag := int(in[0]) % len(payloadDecoders)
		decode := payloadDecoders[tag]
		if decode == nil {
			return
		}

		// Decode three times and keep the least allocation seen: the fuzzing
		// worker's own goroutines allocate now and then while we measure.
		var v any
		var err error
		least := uint64(math.MaxUint64)
		for i := 0; i < 3; i++ {
			r := codec.NewReader(in[1:], nil)
			before := heapAllocated()
			v = decode(&r)
			err = r.Finish()
			least = min(least, heapAllocated()-before)
		}
		if limit := uint64(8*len(in) + 1024); least > limit {
			t.Fatalf("tag %d: decoding %d bytes allocated %d, limit %d", tag, len(in), least, limit)
		}

		var names codec.Interner
		ri := codec.NewReader(in[1:], &names)
		vi := decode(&ri)
		if erri := ri.Finish(); (erri == nil) != (err == nil) || (err == nil && !reflect.DeepEqual(vi, v)) {
			t.Fatalf("tag %d: interning changed the result: %v / %v", tag, err, erri)
		}
		if err != nil {
			return
		}
		p, ok := v.(transport.WirePayload)
		if !ok || p.WireTag() != byte(tag) {
			t.Fatalf("tag %d decoded %T", tag, v)
		}
		var w codec.Writer
		p.AppendWire(&w)
		if w.Err() != nil || !bytes.Equal(w.B, in[1:]) {
			t.Fatalf("tag %d: accepted input re-encodes differently (%v)", tag, w.Err())
		}
	})
}
