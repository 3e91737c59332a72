package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"testing"

	"adaptivecc/internal/codec"
)

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{
		[]byte("x"),
		[]byte("hello, frame"),
		bytes.Repeat([]byte{0xAB}, 4096),
		bytes.Repeat([]byte("page"), 64*1024),
	}
	var wire bytes.Buffer
	for _, p := range payloads {
		if err := writeFrame(&wire, p); err != nil {
			t.Fatalf("writeFrame: %v", err)
		}
	}
	for i, want := range payloads {
		got, err := readFrame(&wire)
		if err != nil {
			t.Fatalf("readFrame #%d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame #%d: got %d bytes, want %d", i, len(got), len(want))
		}
	}
	if _, err := readFrame(&wire); !errors.Is(err, io.EOF) {
		t.Fatalf("read past last frame: %v, want EOF", err)
	}
}

// frame builds a raw frame with full control over each header field, for
// corruption tests.
func frame(version byte, length uint32, crc uint32, payload []byte) []byte {
	var b bytes.Buffer
	var hdr [wireHeaderSize]byte
	binary.BigEndian.PutUint32(hdr[0:4], length)
	hdr[4] = version
	binary.BigEndian.PutUint32(hdr[5:9], crc)
	b.Write(hdr[:])
	b.Write(payload)
	return b.Bytes()
}

func TestFrameDecodeErrors(t *testing.T) {
	good := appendFrame(nil, []byte("payload"))
	cases := []struct {
		name string
		raw  []byte
		want error
	}{
		{"truncated header", good[:5], io.ErrUnexpectedEOF},
		{"truncated payload", good[:len(good)-3], ErrBadFrame},
		{"empty payload", frame(wireVersion, 0, 0, nil), ErrEmptyFrame},
		{"wrong version", frame(wireVersion+1, 7, 0, []byte("payload")), ErrBadVersion},
		{"oversized length", frame(wireVersion, maxFramePayload+1, 0, nil), ErrFrameTooBig},
		{"garbage length", frame(wireVersion, 0xFFFFFFFF, 0, nil), ErrFrameTooBig},
		{"corrupt crc", frame(wireVersion, 7, 0xDEADBEEF, []byte("payload")), ErrBadChecksum},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := readFrame(bytes.NewReader(tc.raw))
			if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
		})
	}

	// A flipped payload bit must be caught by the checksum.
	bad := append([]byte(nil), good...)
	bad[wireHeaderSize] ^= 0x01
	if _, err := readFrame(bytes.NewReader(bad)); !errors.Is(err, ErrBadChecksum) {
		t.Fatalf("bit flip err = %v, want ErrBadChecksum", err)
	}
}

type fuzzPayload struct {
	N int
	S string
	B []byte
}

// latePayload is a wire type no test sends until a stream is well under
// way, so its descriptor first crosses mid-stream.
type latePayload struct {
	Tag  string
	Vals []uint64
}

func init() {
	RegisterWireType(fuzzPayload{})
	RegisterWireType(latePayload{})
	RegisterWireDecoder(binPayloadTag, func(r *codec.Reader) any { return binPayload{N: r.U64(), S: r.Name()} })
}

// binPayload is a payload with its own binary encoding, which crosses in
// formatBinary frames beside the gob-registered test types.
type binPayload struct {
	N uint64
	S string
}

const binPayloadTag = 200

func (binPayload) WireTag() byte { return binPayloadTag }

func (p binPayload) AppendWire(w *codec.Writer) {
	w.U64(p.N)
	w.String(p.S)
}

// TestFrameVersionPinned pins the wire version: a frame stamped with an
// earlier version is refused by the header check alone, before a single
// payload byte is read — let alone shown to a decoder. Version 3's frames
// are bare gob segments, which a later decoder would otherwise read as a
// format byte followed by garbage; version 4's core bodies carry tags that
// version 5 renumbered, so they would decode as the wrong message; version
// 5's callback messages carry a sender name that version 6 no longer
// reads, so every later field would shift; version 6's purge flush is a
// message kind version 7 drops unread, records and all.
func TestFrameVersionPinned(t *testing.T) {
	if wireVersion != 7 {
		t.Fatalf("wireVersion = %d, want 7 (bump deliberately, with the peers)", wireVersion)
	}
	for old := byte(1); old < wireVersion; old++ {
		stale := appendFrame(nil, []byte("a payload only an older peer can read"))
		stale[4] = old
		src := bytes.NewReader(stale)
		msg, err := NewStreamDecoder(src).Decode()
		if !errors.Is(err, ErrBadVersion) {
			t.Fatalf("v%d frame: msg = %+v, err = %v, want ErrBadVersion", old, msg, err)
		}
		if got, want := src.Len(), len(stale)-wireHeaderSize; got != want {
			t.Fatalf("v%d frame: decoder left %d bytes unread, want %d (the whole payload)", old, got, want)
		}
	}
}

func sameMessage(t *testing.T, got, want Message) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded %+v, want %+v", got, want)
	}
}

// TestStreamCodecRoundTrip sends a run of messages down one connection's
// codec. Every Encode is exactly one frame; the type descriptors ride in
// the first frame that needs them and never again; and a payload type
// that first appears on the 100th message of the live stream round-trips
// like any other.
func TestStreamCodecRoundTrip(t *testing.T) {
	var wire bytes.Buffer
	enc := NewStreamEncoder()
	dec := NewStreamDecoder(&wire)
	var first, steady int
	for i := 1; i <= 120; i++ {
		in := Message{
			From: "c1", To: "srv", Kind: "req", CarriesPage: i%2 == 0,
			Payload: fuzzPayload{N: i, S: "hello", B: []byte{1, 2, 3}},
		}
		if i >= 100 {
			in.Payload = latePayload{Tag: "late", Vals: []uint64{uint64(i), 7}}
		}
		frame, err := enc.Encode(in)
		if err != nil {
			t.Fatalf("encode #%d: %v", i, err)
		}
		switch i {
		case 1:
			first = len(frame)
		case 2:
			steady = len(frame)
		}
		wire.Write(frame)
		out, err := dec.Decode()
		if err != nil {
			t.Fatalf("decode #%d: %v", i, err)
		}
		sameMessage(t, out, in)
		if wire.Len() != 0 {
			t.Fatalf("message #%d left %d bytes on the wire: one Encode must be one frame", i, wire.Len())
		}
	}
	if steady*2 > first {
		t.Errorf("steady-state frame is %d bytes against %d for the first: descriptors are being re-sent", steady, first)
	}
}

// TestStreamsDoNotMix pins the lifetime rule: a stream's frames mean
// something only to the decoder that has read that stream from its
// start. A steady-state frame of an old connection shown to a new
// connection's decoder is refused (its descriptors never crossed the new
// socket), the refusal is final, and a fresh encoder/decoder pair works.
func TestStreamsDoNotMix(t *testing.T) {
	msg := Message{From: "a", To: "b", Kind: "req", Payload: fuzzPayload{N: 1}}
	old := NewStreamEncoder()
	if _, err := old.Encode(msg); err != nil {
		t.Fatal(err)
	}
	stale, err := old.Encode(msg) // descriptors already sent: value only
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewStreamEncoder().Encode(msg)
	if err != nil {
		t.Fatal(err)
	}

	var wire bytes.Buffer
	wire.Write(stale)
	wire.Write(fresh)
	dec := NewStreamDecoder(&wire)
	if _, err := dec.Decode(); !errors.Is(err, ErrBadStream) {
		t.Fatalf("stale frame on a new stream: err = %v, want ErrBadStream", err)
	}
	if _, err := dec.Decode(); !errors.Is(err, ErrBadStream) {
		t.Fatalf("decode after a stream error: err = %v, want the same error (the stream is dead)", err)
	}

	out, err := NewStreamDecoder(bytes.NewReader(fresh)).Decode()
	if err != nil {
		t.Fatalf("first frame of a fresh stream: %v", err)
	}
	sameMessage(t, out, msg)
}

// TestStreamFrameBoundaries pins the one-frame-per-Decode rule on both
// sides: a message cut across two CRC-valid frames is refused rather
// than completed from the next frame, and so is a frame with bytes left
// over after its message.
func TestStreamFrameBoundaries(t *testing.T) {
	frame, err := NewStreamEncoder().Encode(Message{From: "a", To: "b", Payload: fuzzPayload{N: 1}})
	if err != nil {
		t.Fatal(err)
	}
	payload := frame[wireHeaderSize:]

	half := len(payload) / 2
	split := appendFrame(appendFrame(nil, payload[:half]), payload[half:])
	src := bytes.NewReader(split)
	if _, err := NewStreamDecoder(src).Decode(); !errors.Is(err, ErrBadStream) {
		t.Fatalf("message split across frames: err = %v, want ErrBadStream", err)
	}
	if got, want := src.Len(), wireHeaderSize+len(payload)-half; got != want {
		t.Fatalf("decoder left %d bytes unread, want %d: it read past the current frame", got, want)
	}

	padded := appendFrame(nil, append(append([]byte(nil), payload...), 0))
	if _, err := NewStreamDecoder(bytes.NewReader(padded)).Decode(); !errors.Is(err, ErrBadStream) {
		t.Fatalf("trailing byte after message: err = %v, want ErrBadStream", err)
	}
}

// TestStreamEncodeErrorIsFatal documents why the TCP writer drops the
// socket when Encode fails: the failed call has already recorded type
// descriptors as sent, so the next frame from the same encoder is
// undecodable by a peer that never saw them.
func TestStreamEncodeErrorIsFatal(t *testing.T) {
	type unregistered struct{ X int }
	enc := NewStreamEncoder()
	if _, err := enc.Encode(Message{From: "a", To: "b", Payload: unregistered{1}}); err == nil {
		t.Fatal("encoding an unregistered payload type succeeded")
	}
	frame, err := enc.Encode(Message{From: "a", To: "b", Payload: fuzzPayload{N: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewStreamDecoder(bytes.NewReader(frame)).Decode(); !errors.Is(err, ErrBadStream) {
		t.Fatalf("frame after a failed Encode: err = %v, want ErrBadStream", err)
	}
}

// FuzzReadFrame throws arbitrary bytes at the length-prefix decoder: it
// must never panic or over-allocate, and whenever it does accept a frame,
// re-encoding the payload must reproduce a decodable frame (round-trip
// property).
func FuzzReadFrame(f *testing.F) {
	f.Add(appendFrame(nil, []byte("seed payload")))
	f.Add(frame(wireVersion, 0xFFFFFFFF, 0, nil))
	f.Add(frame(wireVersion+3, 4, 0, []byte("vers")))
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	f.Fuzz(func(t *testing.T, raw []byte) {
		payload, err := readFrame(bytes.NewReader(raw))
		if err != nil {
			return
		}
		// Accepted frames must round-trip.
		again, err := readFrame(bytes.NewReader(appendFrame(nil, payload)))
		if err != nil {
			t.Fatalf("re-encoded frame rejected: %v", err)
		}
		if !bytes.Equal(again, payload) {
			t.Fatal("payload changed across round trip")
		}
		// And the decoder must have consumed exactly header+len bytes of
		// the input prefix.
		if len(payload)+wireHeaderSize > len(raw) {
			t.Fatalf("decoder produced %d payload bytes from %d input bytes", len(payload), len(raw))
		}
	})
}

// chunks lays payloads out the way FuzzDecodeStream cuts its input: each
// chunk is a two-byte big-endian length followed by that many bytes.
func chunks(payloads ...[]byte) []byte {
	var b []byte
	for _, p := range payloads {
		b = binary.BigEndian.AppendUint16(b, uint16(len(p)))
		b = append(b, p...)
	}
	return b
}

// FuzzDecodeStream feeds one connection's decoder a hostile stream: the
// input is cut into chunks, every chunk is wrapped in a CRC-valid frame
// (so the framing checks pass and the bytes reach gob), and the frames
// are decoded in order. The decoder may refuse, never panic; it must
// consume exactly one frame per Decode, never reading past the current
// one; and once it has refused a frame it delivers nothing more.
func FuzzDecodeStream(f *testing.F) {
	enc := NewStreamEncoder()
	var good [][]byte
	for _, m := range []Message{
		{From: "a", To: "b", Kind: "req", Payload: fuzzPayload{N: 1, S: "x", B: []byte{9}}},
		{From: "a", To: "b", Kind: "req", CarriesPage: true, Payload: fuzzPayload{N: 2}},
		{From: "b", To: "a", Kind: "late", Payload: latePayload{Tag: "t", Vals: []uint64{1, 2}}},
		{From: "a", To: "b", Kind: "bin", Payload: binPayload{N: 7, S: "x"}},
	} {
		frame, err := enc.Encode(m)
		if err != nil {
			f.Fatal(err)
		}
		good = append(good, append([]byte(nil), frame[wireHeaderSize:]...))
	}
	bin := good[3]
	f.Add(chunks(good[:3]...))
	f.Add(chunks(good[1], good[0]))                  // value before its descriptors
	f.Add(chunks(good[0], good[0]))                  // descriptors defined twice
	f.Add(chunks(good[0][:len(good[0])/2], good[1])) // message cut short by its frame
	f.Add(chunks([]byte("not gob at all")))
	f.Add(chunks(nil))
	f.Add([]byte{})
	f.Add(chunks(bin, good[0], bin, good[1], bin))                   // binary frames between gob segments
	f.Add(chunks(bin[:len(bin)-1]))                                  // a binary message cut short
	f.Add(chunks(append(append([]byte(nil), bin...), 0)))            // a byte left over
	f.Add(chunks(append([]byte{formatBinary}, bin[len(bin)-2:]...))) // no header fields
	f.Add(chunks([]byte{9, 1, 2}))                                   // an unknown format byte
	f.Fuzz(func(t *testing.T, raw []byte) {
		var wire []byte
		var ends []int // wire offset at the end of each frame
		for len(raw) >= 2 {
			n := int(binary.BigEndian.Uint16(raw))
			raw = raw[2:]
			if n > len(raw) {
				n = len(raw)
			}
			wire = appendFrame(wire, raw[:n])
			ends = append(ends, len(wire))
			raw = raw[n:]
		}
		src := bytes.NewReader(wire)
		dec := NewStreamDecoder(src)
		for _, end := range ends {
			_, err := dec.Decode()
			if consumed := len(wire) - src.Len(); consumed != end {
				t.Fatalf("after a Decode the reader stands at byte %d, want the frame boundary %d", consumed, end)
			}
			if err == nil {
				continue
			}
			if !errors.Is(err, ErrBadFrame) {
				t.Fatalf("refusal does not wrap ErrBadFrame: %v", err)
			}
			for i := 0; i < 3; i++ {
				if msg, again := dec.Decode(); again == nil {
					t.Fatalf("decoder delivered %+v after refusing a frame (%v)", msg, err)
				}
			}
			if consumed := len(wire) - src.Len(); consumed != end {
				t.Fatalf("dead decoder kept reading: at byte %d, refused at %d", consumed, end)
			}
			return
		}
		if _, err := dec.Decode(); !errors.Is(err, io.EOF) {
			t.Fatalf("decode past the last frame: %v, want EOF", err)
		}
	})
}
