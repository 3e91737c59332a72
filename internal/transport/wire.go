// Wire format of the TCP fabric. Every frame on a connection is
//
//	[length uint32][version byte][crc32 uint32][payload ...]
//
// with big-endian integers. length counts payload bytes only (the header
// is fixed at 9 bytes), version is wireVersion, and the checksum is
// IEEE CRC-32 over the payload.
//
// The first frame on a connection is the hello: a self-contained gob
// stream carrying a wireHello that names the dialing link, decoded before
// anything else is known about the socket. Every later frame is one
// segment of a single gob stream that belongs to the connection: each
// socket end owns one StreamEncoder and one StreamDecoder that live exactly
// as long as the socket, so gob's type descriptors cross once per
// connection (in the frame of the first message that uses the type) and
// the decode engines compile once. Framing still cuts the stream at
// message boundaries — one Encode is exactly one frame, and the decoder
// is shown one frame per Decode, so a gob message that wants bytes beyond
// its frame, or leaves bytes behind, is ErrBadStream and hostile input
// stays bounded by the frame cap.
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
)

const (
	// wireVersion is bumped on any incompatible framing or schema change;
	// both ends refuse mismatched frames instead of misparsing them.
	// Version 1 carried one self-contained gob stream per frame; version 2
	// frames are segments of a per-connection stream, which a v1 peer
	// cannot decode (and vice versa). Version 3 drops the coalesced-notice
	// fields from the request envelope: gob would let a v2 peer's acks
	// vanish silently at a v3 receiver, so the hello refuses it instead.
	wireVersion = 3

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

// Framing errors. All wrap ErrBadFrame so readers can treat any of them as
// "this connection is poisoned, drop it".
var (
	ErrBadFrame    = errors.New("transport: bad frame")
	ErrBadVersion  = fmt.Errorf("%w: wire version mismatch", ErrBadFrame)
	ErrFrameTooBig = fmt.Errorf("%w: length exceeds limit", ErrBadFrame)
	ErrBadChecksum = fmt.Errorf("%w: crc mismatch", ErrBadFrame)
	ErrEmptyFrame  = fmt.Errorf("%w: zero-length payload", ErrBadFrame)
	// ErrBadStream marks a frame that passed every framing check but is not
	// the next message of its connection's gob stream.
	ErrBadStream = fmt.Errorf("%w: frame does not continue the stream", ErrBadFrame)
)

// wireHello is the first frame on every connection: the dialer declares
// which ordered link and path index the connection carries.
type wireHello struct {
	From string
	To   string
	Path int
}

// wireFrame is the payload of every post-hello frame: one Message. The
// Payload field rides as a gob interface value, so every concrete payload
// type must be registered with RegisterWireType (the core package does
// this for all protocol messages in its init).
type wireFrame struct {
	Msg Message
}

// RegisterWireType registers a concrete Message payload type with the gob
// codec. Call from an init function; registering the same type twice with
// the same name is a no-op, mismatches panic (as gob.Register does).
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
// decode, and encode-side payloads are produced by gob from our own types.
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
func readFrame(r io.Reader) ([]byte, error) { return readFrameInto(r, nil) }

// readFrameInto reads one length-prefixed frame from r and returns its
// verified payload, stored in buf when buf has the capacity and in a new
// allocation otherwise. Errors are either I/O errors from r or wrap
// ErrBadFrame; a reader must abandon the connection on any of them, since
// after a framing error the stream position is unknown. The version and
// length are refused before a single payload byte is read.
func readFrameInto(r io.Reader, buf []byte) ([]byte, error) {
	var hdr [wireHeaderSize]byte
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

// StreamEncoder is the write half of one connection's codec: a gob stream
// cut into frames, one frame per Message. It belongs to a single socket
// end and a single goroutine (the path writer holding that socket), and
// must be discarded with the socket — its peer decoder has seen exactly
// the type descriptors this encoder has sent, and no other decoder has.
type StreamEncoder struct {
	frame bytes.Buffer // header + payload of the frame being built; reused
	body  wireFrame
	enc   *gob.Encoder
}

// NewStreamEncoder starts the write half of a fresh stream.
func NewStreamEncoder() *StreamEncoder {
	e := &StreamEncoder{}
	e.enc = gob.NewEncoder(&e.frame)
	return e
}

// Encode returns msg as one complete frame, ready to be written to the
// socket in a single Write. The slice is valid until the next Encode. After
// an error the encoder may have recorded type descriptors as sent that no
// frame ever carried, so the stream — and with it the socket — must be
// abandoned.
func (e *StreamEncoder) Encode(msg Message) ([]byte, error) {
	if e.frame.Cap() > maxRetainedBuf {
		e.frame = bytes.Buffer{}
	}
	e.frame.Reset()
	var hdr [wireHeaderSize]byte // reserved; sealFrame fills it in
	e.frame.Write(hdr[:])
	e.body.Msg = msg
	err := e.enc.Encode(&e.body) // descriptors (first use of a type only), then the value
	e.body.Msg = Message{}       // do not pin the payload until the next send
	if err != nil {
		return nil, fmt.Errorf("transport: encode %s %s->%s: %w", msg.Kind, msg.From, msg.To, err)
	}
	frame := e.frame.Bytes()
	sealFrame(frame)
	return frame, nil
}

// StreamDecoder is the read half of one connection's codec. It reads one
// frame per Decode and shows the gob decoder that frame only, so a message
// can neither reach into its successor nor leave bytes behind. It belongs
// to a single socket end and a single goroutine (that socket's reader) and
// dies with the socket: the first error is final.
type StreamDecoder struct {
	r   io.Reader
	buf []byte // reusable frame payload buffer; gob copies out of it
	// frame is what gob reads: the undecoded rest of the current frame,
	// io.EOF at its end. Being an io.ByteReader, it keeps gob from adding
	// a bufio.Reader of its own that would read ahead of the message.
	frame bytes.Reader
	dec   *gob.Decoder
	err   error
}

// NewStreamDecoder starts the read half of a fresh stream over r, which
// must be positioned at a frame boundary (just past the hello on a
// socket).
func NewStreamDecoder(r io.Reader) *StreamDecoder {
	d := &StreamDecoder{r: r}
	d.dec = gob.NewDecoder(&d.frame)
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
	payload, err := readFrameInto(d.r, d.buf)
	if err != nil {
		return Message{}, err
	}
	if cap(payload) <= maxRetainedBuf {
		d.buf = payload[:0]
	} else {
		d.buf = nil
	}
	d.frame.Reset(payload)
	var f wireFrame
	if err := d.dec.Decode(&f); err != nil {
		return Message{}, fmt.Errorf("%w: gob: %v", ErrBadStream, err)
	}
	if n := d.frame.Len(); n != 0 {
		return Message{}, fmt.Errorf("%w: %d bytes left in frame after message", ErrBadStream, n)
	}
	return f.Msg, nil
}

// encodeHello / decodeHello frame the connection-opening handshake. The
// hello is a self-contained gob stream of its own: it is decoded before
// the connection's stream exists.
func encodeHello(h wireHello) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(h); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func decodeHello(payload []byte) (wireHello, error) {
	var h wireHello
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&h); err != nil {
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
