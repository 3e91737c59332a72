// Wire format of the TCP fabric. Every frame on a connection is
//
//	[length uint32][version byte][crc32 uint32][payload ...]
//
// with big-endian integers. length counts payload bytes only (the header
// is fixed at 9 bytes), version is wireVersion, and the checksum is
// IEEE CRC-32 over the payload.
//
// The first frame on a connection is the hello: a wireHello in the binary
// encoding of internal/codec naming the dialing link, decoded before
// anything else is known about the socket. Every later frame carries one
// Message, and its payload opens with a format byte:
//
//   - formatBinary: a self-contained frame. From, To, Kind and CarriesPage,
//     then the payload's one-byte WireTag and the bytes its AppendWire
//     wrote; the decoder registered under that tag reads them back. This is
//     how every protocol message of internal/core travels. No state
//     crosses from one binary frame to the next except the per-socket
//     interner that lets a repeated name allocate once.
//   - formatGob: one segment of a gob stream that belongs to the
//     connection, for payloads that do not implement WirePayload (they must
//     be registered with RegisterWireType). Each socket end owns at most one
//     gob encoder and one gob decoder, started by the first such payload
//     and living exactly as long as the socket, so gob's type descriptors
//     cross once per connection and its engines compile once.
//
// Framing cuts both kinds at message boundaries — one Encode is exactly one
// frame, and the decoder is shown one frame per Decode — so a message that
// wants bytes beyond its frame, or leaves bytes behind, is ErrBadStream and
// hostile input stays bounded by the frame cap.
//
// Codec state never outlives its socket. A redial, an accepted socket
// handed to a reply path, or DropConnections starts a fresh stream on
// both ends, descriptors included; a truncated, corrupt or undecodable
// frame kills the socket it arrived on and the decoder with it, so it
// cannot poison a successor. The frame lost in between is the resilient-
// RPC layer's to recover, as for any socket loss.
package transport

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"adaptivecc/internal/codec"
)

const (
	// wireVersion is bumped on any incompatible framing or schema change;
	// both ends refuse mismatched frames instead of misparsing them.
	// Version 1 carried one self-contained gob stream per frame; version 2
	// frames are segments of a per-connection stream, which a v1 peer
	// cannot decode (and vice versa). Version 3 dropped the coalesced-notice
	// fields from the request envelope. Version 4 opens every post-hello
	// frame with a format byte and carries core's messages, and the hello,
	// in a binary encoding a v3 peer cannot read. Version 5 renumbers core's
	// body tags: one reply for reads and writes, and nil bodies for bare
	// acknowledgements. Version 6 drops the sender's name from core's
	// callback request, ack and blocked reply: it is the frame's From.
	// Version 7 drops core's fire-and-forget purge flush: a flush is a
	// request, and a v6 peer's flush would be dropped unread, with the log
	// records it carries.
	wireVersion = 7

	// wireHeaderSize is the fixed frame header: length + version + crc.
	wireHeaderSize = 4 + 1 + 4

	// maxFramePayload bounds a single frame. The largest legitimate frame
	// is a page ship plus piggybacked notices — well under a megabyte —
	// so 16 MiB rejects garbage lengths without constraining the protocol.
	maxFramePayload = 16 << 20

	// maxRetainedBuf bounds the frame buffer a connection keeps between
	// messages: one unusually large frame must not pin megabytes on every
	// socket for the rest of its life.
	maxRetainedBuf = 1 << 20
)

// The format byte that opens every post-hello frame payload.
const (
	formatBinary byte = 1
	formatGob    byte = 2
)

// Framing errors. All wrap ErrBadFrame so readers can treat any of them as
// "this connection is poisoned, drop it".
var (
	ErrBadFrame    = errors.New("transport: bad frame")
	ErrBadVersion  = fmt.Errorf("%w: wire version mismatch", ErrBadFrame)
	ErrFrameTooBig = fmt.Errorf("%w: length exceeds limit", ErrBadFrame)
	ErrBadChecksum = fmt.Errorf("%w: crc mismatch", ErrBadFrame)
	ErrEmptyFrame  = fmt.Errorf("%w: zero-length payload", ErrBadFrame)
	// ErrBadStream marks a frame that passed every framing check but does
	// not decode: an unknown format or payload tag, a short or over-long
	// binary message, or a gob segment that does not continue the
	// connection's stream.
	ErrBadStream = fmt.Errorf("%w: frame does not continue the stream", ErrBadFrame)
)

// wireHello is the first frame on every connection: the dialer declares
// which ordered link and path index the connection carries.
type wireHello struct {
	From string
	To   string
	Path int
}

// WirePayload is a Message payload with a binary encoding of its own:
// AppendWire appends its bytes (reporting a value it cannot encode through
// w.Fail), and the decoder registered under its WireTag reads them back.
type WirePayload interface {
	WireTag() byte
	AppendWire(w *codec.Writer)
}

// WireDecoder reads back the bytes a WirePayload appended, reporting
// malformed input through r.
type WireDecoder func(r *codec.Reader) any

// wireDecoders is the decoder registry, filled by init functions.
var wireDecoders [256]WireDecoder

// RegisterWireDecoder installs the decoder for payloads tagged tag. Call
// from an init function; registering a tag twice panics.
func RegisterWireDecoder(tag byte, dec WireDecoder) {
	if wireDecoders[tag] != nil {
		panic(fmt.Sprintf("transport: wire tag %d registered twice", tag))
	}
	wireDecoders[tag] = dec
}

// wireFrame is the gob-encoded body of a formatGob frame: one Message whose
// Payload rides as a gob interface value, so its concrete type must be
// registered with RegisterWireType.
type wireFrame struct {
	Msg Message
}

// RegisterWireType registers a concrete Message payload type that is not a
// WirePayload with the gob codec. Call from an init function; registering
// the same type twice with the same name is a no-op, mismatches panic (as
// gob.Register does).
func RegisterWireType(v any) { gob.Register(v) }

// sealFrame fills in the header of a frame whose payload already sits at
// frame[wireHeaderSize:].
func sealFrame(frame []byte) {
	payload := frame[wireHeaderSize:]
	binary.BigEndian.PutUint32(frame[0:4], uint32(len(payload)))
	frame[4] = wireVersion
	binary.BigEndian.PutUint32(frame[5:9], crc32.ChecksumIEEE(payload))
}

// appendFrame appends a complete frame (header + payload) to dst and
// returns the extended slice. It never fails: size enforcement happens at
// decode.
func appendFrame(dst, payload []byte) []byte {
	start := len(dst)
	var hdr [wireHeaderSize]byte
	dst = append(dst, hdr[:]...)
	dst = append(dst, payload...)
	sealFrame(dst[start:])
	return dst
}

// readFrame reads one length-prefixed frame from r into a fresh buffer
// and returns its verified payload. See readFrameInto.
func readFrame(r io.Reader) ([]byte, error) {
	var hdr [wireHeaderSize]byte
	return readFrameInto(r, &hdr, nil)
}

// readFrameInto reads one length-prefixed frame from r, its header into
// hdr, and returns its verified payload, stored in buf when buf has the
// capacity and in a new allocation otherwise. Errors are either I/O errors
// from r or wrap ErrBadFrame; a reader must abandon the connection on any
// of them, since after a framing error the stream position is unknown.
// The version and length are refused before a single payload byte is read.
func readFrameInto(r io.Reader, hdr *[wireHeaderSize]byte, buf []byte) ([]byte, error) {
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[0:4])
	if hdr[4] != wireVersion {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrBadVersion, hdr[4], wireVersion)
	}
	if n == 0 {
		return nil, ErrEmptyFrame
	}
	if n > maxFramePayload {
		return nil, fmt.Errorf("%w: %d > %d", ErrFrameTooBig, n, maxFramePayload)
	}
	var payload []byte
	if uint32(cap(buf)) >= n {
		payload = buf[:n]
	} else {
		payload = make([]byte, n)
	}
	if _, err := io.ReadFull(r, payload); err != nil {
		// A short payload after a complete header is a truncated frame,
		// not a clean EOF.
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, fmt.Errorf("%w: truncated payload: %v", ErrBadFrame, err)
		}
		return nil, err
	}
	if got, want := crc32.ChecksumIEEE(payload), binary.BigEndian.Uint32(hdr[5:9]); got != want {
		return nil, fmt.Errorf("%w: %08x != %08x", ErrBadChecksum, got, want)
	}
	return payload, nil
}

// StreamEncoder is the write half of one connection's codec, one frame
// per Message. It belongs to a single socket end and a single goroutine
// (the path writer holding that socket), and must be discarded with the
// socket — its gob stream, once started, has sent exactly the type
// descriptors its peer decoder has seen, and no other decoder has.
type StreamEncoder struct {
	w    codec.Writer // header + payload of the frame being built; reused
	gob  *gob.Encoder // nil until the first gob-format payload
	body wireFrame
}

// NewStreamEncoder starts the write half of a fresh stream.
func NewStreamEncoder() *StreamEncoder { return &StreamEncoder{} }

// gobSink lets gob append its segment to the frame being built.
type gobSink struct{ w *codec.Writer }

func (s gobSink) Write(p []byte) (int, error) {
	s.w.B = append(s.w.B, p...)
	return len(p), nil
}

// Encode returns msg as one complete frame, ready to be written to the
// socket in a single Write. The slice is valid until the next Encode. After
// an error the gob stream may have recorded type descriptors as sent that
// no frame ever carried, so the stream — and with it the socket — must be
// abandoned.
func (e *StreamEncoder) Encode(msg Message) ([]byte, error) {
	b := e.w.B[:0]
	if cap(b) > maxRetainedBuf {
		b = nil
	}
	var hdr [wireHeaderSize]byte // reserved; sealFrame fills it in
	e.w.Reset(append(b, hdr[:]...))
	var err error
	if p, ok := msg.Payload.(WirePayload); ok {
		e.w.U8(formatBinary)
		e.w.String(msg.From)
		e.w.String(msg.To)
		e.w.String(msg.Kind)
		e.w.Bool(msg.CarriesPage)
		e.w.U8(p.WireTag())
		p.AppendWire(&e.w)
		err = e.w.Err()
	} else {
		e.w.U8(formatGob)
		if e.gob == nil {
			e.gob = gob.NewEncoder(gobSink{&e.w})
		}
		e.body.Msg = msg
		err = e.gob.Encode(&e.body) // descriptors (first use of a type only), then the value
		e.body.Msg = Message{}      // do not pin the payload until the next send
	}
	if err == nil && len(e.w.B)-wireHeaderSize > maxFramePayload {
		err = fmt.Errorf("%w: %d > %d", ErrFrameTooBig, len(e.w.B)-wireHeaderSize, maxFramePayload)
	}
	if err != nil {
		return nil, fmt.Errorf("transport: encode %s %s->%s: %w", msg.Kind, msg.From, msg.To, err)
	}
	sealFrame(e.w.B)
	return e.w.B, nil
}

// StreamDecoder is the read half of one connection's codec. It reads one
// frame per Decode and decodes that frame only, so a message can neither
// reach into its successor nor leave bytes behind. It belongs to a single
// socket end and a single goroutine (that socket's reader) and dies with
// the socket: the first error is final.
type StreamDecoder struct {
	r     io.Reader
	hdr   [wireHeaderSize]byte
	buf   []byte         // reusable frame payload buffer; decoders copy out of it
	bin   codec.Reader   // binary frames
	names codec.Interner // the socket's repeated names: peers, kinds, sites
	// frame is what gob reads: the undecoded rest of the current frame,
	// io.EOF at its end. Being an io.ByteReader, it keeps gob from adding
	// a bufio.Reader of its own that would read ahead of the message.
	frame bytes.Reader
	gob   *gob.Decoder // nil until the first gob-format frame
	err   error
}

// NewStreamDecoder starts the read half of a fresh stream over r, which
// must be positioned at a frame boundary (just past the hello on a
// socket).
func NewStreamDecoder(r io.Reader) *StreamDecoder {
	d := &StreamDecoder{r: r}
	d.bin = codec.NewReader(nil, &d.names)
	return d
}

// Decode reads the next frame and decodes the one Message it carries.
// Errors are I/O errors from the underlying reader or wrap ErrBadFrame;
// either way the stream is dead and every later Decode repeats the error.
func (d *StreamDecoder) Decode() (Message, error) {
	if d.err != nil {
		return Message{}, d.err
	}
	msg, err := d.decode()
	if err != nil {
		d.err = err
		return Message{}, err
	}
	return msg, nil
}

func (d *StreamDecoder) decode() (Message, error) {
	payload, err := readFrameInto(d.r, &d.hdr, d.buf)
	if err != nil {
		return Message{}, err
	}
	if cap(payload) <= maxRetainedBuf {
		d.buf = payload[:0]
	} else {
		d.buf = nil
	}
	switch payload[0] { // readFrameInto refuses empty payloads
	case formatBinary:
		return d.decodeBinary(payload[1:])
	case formatGob:
		return d.decodeGob(payload[1:])
	}
	return Message{}, fmt.Errorf("%w: unknown frame format %d", ErrBadStream, payload[0])
}

func (d *StreamDecoder) decodeBinary(b []byte) (Message, error) {
	r := &d.bin
	r.Reset(b)
	msg := Message{From: r.Name(), To: r.Name(), Kind: r.Name(), CarriesPage: r.Bool()}
	tag := r.U8()
	if dec := wireDecoders[tag]; dec != nil {
		msg.Payload = dec(r)
	} else {
		r.Fail(fmt.Errorf("no decoder for payload tag %d", tag))
	}
	if err := r.Finish(); err != nil {
		return Message{}, fmt.Errorf("%w: %v", ErrBadStream, err)
	}
	return msg, nil
}

func (d *StreamDecoder) decodeGob(b []byte) (Message, error) {
	d.frame.Reset(b)
	if d.gob == nil {
		d.gob = gob.NewDecoder(&d.frame)
	}
	var f wireFrame
	if err := d.gob.Decode(&f); err != nil {
		return Message{}, fmt.Errorf("%w: gob: %v", ErrBadStream, err)
	}
	if n := d.frame.Len(); n != 0 {
		return Message{}, fmt.Errorf("%w: %d bytes left in frame after message", ErrBadStream, n)
	}
	return f.Msg, nil
}

// encodeHello / decodeHello frame the connection-opening handshake, decoded
// before the connection's stream exists.
func encodeHello(h wireHello) ([]byte, error) {
	var w codec.Writer
	w.String(h.From)
	w.String(h.To)
	if h.Path < 0 || h.Path > math.MaxUint16 {
		w.Fail(fmt.Errorf("transport: path index %d does not fit the hello", h.Path))
	}
	w.U16(uint16(h.Path))
	return w.B, w.Err()
}

func decodeHello(payload []byte) (wireHello, error) {
	r := codec.NewReader(payload, nil)
	h := wireHello{From: r.String(), To: r.String(), Path: int(r.U16())}
	if err := r.Finish(); err != nil {
		return wireHello{}, fmt.Errorf("%w: hello: %v", ErrBadFrame, err)
	}
	return h, nil
}

// writeFrame encodes payload into a frame and writes it whole to w.
func writeFrame(w io.Writer, payload []byte) error {
	frame := appendFrame(make([]byte, 0, wireHeaderSize+len(payload)), payload)
	_, err := w.Write(frame)
	return err
}
