// Package codec is the little-endian binary encoding shared by the log
// image (internal/wal) and the TCP wire codec (internal/core): fixed-width
// integers, strings behind a uint16 length, byte strings behind a uint32
// length, lock.TxID and storage.ItemID. A log record therefore has one
// encoding on disk and on the wire.
//
// Writer appends; a value whose length does not fit its prefix is an
// error, never truncated. Reader is a bounds-checked cursor for input that
// may be hostile: every length and count is checked against the bytes left
// before anything is allocated, and every byte string it returns is a
// fresh copy, never a view of the input buffer.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"adaptivecc/internal/lock"
	"adaptivecc/internal/storage"
)

// Decoding errors. A Reader's first error is final.
var (
	ErrShort   = errors.New("codec: value runs past the end of its buffer")
	ErrTrailer = errors.New("codec: bytes left over after the value")
)

// Writer appends encoded values to B. The zero value is ready to use.
type Writer struct {
	B   []byte
	err error
}

// Err reports the first value the writer refused, if any.
func (w *Writer) Err() error { return w.err }

// Fail records err unless the writer has already failed. Once Err is set,
// B no longer holds a well-formed encoding and must be discarded.
func (w *Writer) Fail(err error) {
	if w.err == nil {
		w.err = err
	}
}

// Reset empties the writer for reuse, keeping b's storage.
func (w *Writer) Reset(b []byte) { w.B, w.err = b, nil }

func (w *Writer) U8(v byte) { w.B = append(w.B, v) }

func (w *Writer) Bool(v bool) {
	var b byte
	if v {
		b = 1
	}
	w.B = append(w.B, b)
}

// The fixed-width appends spell out their bytes: the compiler turns
// w.B = append(w.B, ...) into a length update when no growth is needed,
// where assigning binary.AppendUint32's result would store the slice
// pointer — under a GC write barrier — on every field.

func (w *Writer) U16(v uint16) { w.B = append(w.B, byte(v), byte(v>>8)) }

func (w *Writer) U32(v uint32) {
	w.B = append(w.B, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func (w *Writer) U64(v uint64) {
	w.B = append(w.B, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

// Count writes the length of a list that follows.
func (w *Writer) Count(n int) {
	if uint64(n) > math.MaxUint32 {
		w.Fail(fmt.Errorf("codec: list of %d elements exceeds the uint32 count", n))
		return
	}
	w.U32(uint32(n))
}

// String writes s behind a uint16 length.
func (w *Writer) String(s string) {
	if len(s) > math.MaxUint16 {
		w.Fail(fmt.Errorf("codec: %d-byte string exceeds the uint16 length", len(s)))
		return
	}
	w.U16(uint16(len(s)))
	w.B = append(w.B, s...)
}

// Bytes writes p behind a uint32 length.
func (w *Writer) Bytes(p []byte) {
	if uint64(len(p)) > math.MaxUint32 {
		w.Fail(fmt.Errorf("codec: %d-byte string exceeds the uint32 length", len(p)))
		return
	}
	w.U32(uint32(len(p)))
	w.B = append(w.B, p...)
}

// Tx writes a transaction id: site, then sequence number.
func (w *Writer) Tx(tx lock.TxID) {
	w.String(tx.Site)
	w.U64(tx.Seq)
}

// Item writes an item id in 15 bytes: level, volume, file, page, slot.
func (w *Writer) Item(id storage.ItemID) {
	if id.Level < 0 || id.Level > math.MaxUint8 {
		w.Fail(fmt.Errorf("codec: level %d does not fit its byte", id.Level))
		return
	}
	w.U8(byte(id.Level))
	w.U32(uint32(id.Vol))
	w.U32(id.File)
	w.U32(id.Page)
	w.U16(id.Slot)
}

// Smallest encodings, for Reader.Count: a TxID with an empty site, an ItemID.
const (
	TxSize   = 2 + 8
	ItemSize = 1 + 4 + 4 + 4 + 2
)

// Reader decodes values from b. Errors are sticky: after the first one
// every read returns a zero value, and Err reports it.
type Reader struct {
	b     []byte
	off   int
	err   error
	names *Interner
}

// NewReader reads b. names, if non-nil, interns what Name returns.
func NewReader(b []byte, names *Interner) Reader { return Reader{b: b, names: names} }

// Reset points the reader at b, keeping its interner.
func (r *Reader) Reset(b []byte) { r.b, r.off, r.err = b, 0, nil }

// Err reports the first decoding error.
func (r *Reader) Err() error { return r.err }

// Fail stops the reader with err unless it has already failed.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Finish reports the first decoding error, or ErrTrailer when bytes are
// left: a value must fill its buffer exactly.
func (r *Reader) Finish() error {
	if r.err == nil && r.off != len(r.b) {
		r.err = fmt.Errorf("%w: %d bytes", ErrTrailer, len(r.b)-r.off)
	}
	return r.err
}

// take returns the next n bytes, or nil after failing the reader.
func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.b)-r.off {
		r.err = ErrShort
		return nil
	}
	p := r.b[r.off : r.off+n : r.off+n]
	r.off += n
	return p
}

func (r *Reader) U8() byte {
	if p := r.take(1); p != nil {
		return p[0]
	}
	return 0
}

// Bool reads a byte written by Writer.Bool; anything but 0 or 1 is an error.
func (r *Reader) Bool() bool {
	switch r.U8() {
	case 0:
		return false
	case 1:
		return true
	}
	r.Fail(errors.New("codec: bool byte is neither 0 nor 1"))
	return false
}

func (r *Reader) U16() uint16 {
	if p := r.take(2); p != nil {
		return binary.LittleEndian.Uint16(p)
	}
	return 0
}

func (r *Reader) U32() uint32 {
	if p := r.take(4); p != nil {
		return binary.LittleEndian.Uint32(p)
	}
	return 0
}

func (r *Reader) U64() uint64 {
	if p := r.take(8); p != nil {
		return binary.LittleEndian.Uint64(p)
	}
	return 0
}

// Count reads a list length whose elements take at least minSize bytes
// each, and fails unless that many could still fit: a hostile count cannot
// make the caller allocate for elements the buffer does not hold.
func (r *Reader) Count(minSize int) int {
	n := uint64(r.U32())
	if r.err == nil && n*uint64(minSize) > uint64(len(r.b)-r.off) {
		r.err = ErrShort
	}
	if r.err != nil {
		return 0
	}
	return int(n)
}

// String reads a string written by Writer.String into a new allocation.
func (r *Reader) String() string { return string(r.take(int(r.U16()))) }

// Name reads a string like String, through the reader's interner: for
// names that repeat from value to value, such as sites and message kinds.
func (r *Reader) Name() string {
	p := r.take(int(r.U16()))
	if r.names == nil {
		return string(p)
	}
	return r.names.intern(p)
}

// Bytes reads a byte string into a fresh allocation; empty reads as nil.
func (r *Reader) Bytes() []byte {
	p := r.take(int(r.U32()))
	if len(p) == 0 {
		return nil
	}
	b := make([]byte, len(p)) // make+copy: one allocation, not zeroed first
	copy(b, p)
	return b
}

func (r *Reader) Tx() lock.TxID {
	site := r.Name()
	return lock.TxID{Site: site, Seq: r.U64()}
}

func (r *Reader) Item() storage.ItemID {
	level, vol := r.U8(), r.U32()
	if vol > math.MaxUint16 { // the log image's four bytes hold a uint16
		r.Fail(fmt.Errorf("codec: volume %d does not fit a VolumeID", vol))
	}
	return storage.ItemID{
		Level: storage.Level(level),
		Vol:   storage.VolumeID(vol),
		File:  r.U32(),
		Page:  r.U32(),
		Slot:  r.U16(),
	}
}

// Interner hands out one string per distinct short byte sequence, so a
// name decoded on every frame of a connection is allocated once. It keeps
// at most internCap names of at most internMaxLen bytes, starting over
// when full, so a peer sending ever-new names costs bounded memory. The
// zero value is ready; an Interner belongs to one goroutine.
type Interner struct{ m map[string]string }

const (
	internCap    = 256
	internMaxLen = 64
)

func (in *Interner) intern(p []byte) string {
	if len(p) > internMaxLen {
		return string(p)
	}
	if s, ok := in.m[string(p)]; ok {
		return s
	}
	if in.m == nil {
		in.m = make(map[string]string)
	} else if len(in.m) >= internCap {
		clear(in.m)
	}
	s := string(p)
	in.m[s] = s
	return s
}
