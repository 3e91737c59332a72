package codec

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"adaptivecc/internal/storage"
)

// TestWriterRefusesWhatDoesNotFit: a value whose length or level does not
// fit its field is an error, never a truncated encoding.
func TestWriterRefusesWhatDoesNotFit(t *testing.T) {
	for name, write := range map[string]func(*Writer){
		"string": func(w *Writer) { w.String(strings.Repeat("x", 1<<16)) },
		"level":  func(w *Writer) { w.Item(storage.ItemID{Level: 256}) },
	} {
		var w Writer
		write(&w)
		if w.Err() == nil {
			t.Errorf("%s: an over-long value encoded as % x", name, w.B)
		}
	}
	var w Writer
	w.String(strings.Repeat("x", 1<<16-1))
	w.Item(storage.ItemID{Level: 255})
	if w.Err() != nil {
		t.Errorf("the largest values that fit were refused: %v", w.Err())
	}
}

// TestReaderBounds: a count or length beyond the bytes left fails before
// anything is allocated, the first error sticks, and a value must fill its
// buffer exactly.
func TestReaderBounds(t *testing.T) {
	var w Writer
	w.U32(1 << 30) // a count no buffer here can hold
	r := NewReader(w.B, nil)
	if n := r.Count(1); n != 0 || !errors.Is(r.Err(), ErrShort) {
		t.Fatalf("Count = %d, err = %v, want 0 and ErrShort", n, r.Err())
	}
	if r.Bytes() != nil || r.U64() != 0 || !errors.Is(r.Err(), ErrShort) {
		t.Fatal("reads after an error returned data or replaced the error")
	}

	w = Writer{}
	w.Bytes([]byte("abc"))
	w.U8(0)
	r = NewReader(w.B, nil)
	if got := string(r.Bytes()); got != "abc" {
		t.Fatalf("Bytes = %q", got)
	}
	if err := r.Finish(); !errors.Is(err, ErrTrailer) {
		t.Fatalf("Finish with a byte left = %v, want ErrTrailer", err)
	}
}

// TestInternerBounded: names repeat as one string, long names are not
// kept, and the table never grows past its cap.
func TestInternerBounded(t *testing.T) {
	var in Interner
	a, b := in.intern([]byte("site")), in.intern([]byte("site"))
	if a != b || len(in.m) != 1 {
		t.Fatalf("a repeated name was not interned: %d entries", len(in.m))
	}
	in.intern([]byte(strings.Repeat("y", internMaxLen+1)))
	for i := 0; i < 3*internCap; i++ {
		in.intern([]byte(fmt.Sprint(i)))
		if len(in.m) > internCap {
			t.Fatalf("interner holds %d names, cap %d", len(in.m), internCap)
		}
	}
}
