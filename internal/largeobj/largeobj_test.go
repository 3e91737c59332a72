package largeobj

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"adaptivecc/internal/core"
	"adaptivecc/internal/sim"
	"adaptivecc/internal/storage"
)

const (
	testObjsPerPage = 4
	testObjSize     = 16
	testPageBytes   = testObjsPerPage * testObjSize // 64
)

type fixture struct {
	sys     *core.System
	srv     *core.Peer
	clients []*core.Peer
	mgr     *Manager
}

func newFixture(t *testing.T, numClients int, areaPages uint32) *fixture {
	t.Helper()
	cfg := core.Config{
		Protocol:       core.PSAA,
		Costs:          sim.DefaultCosts(0),
		ObjectsPerPage: testObjsPerPage,
		ObjectSize:     testObjSize,
		UseTimeouts:    true,
		FixedTimeout:   5 * time.Second,
	}
	sys := core.NewSystem(cfg)
	vol := storage.NewVolume(1, cfg.Costs, sys.Stats())
	if _, err := vol.CreateFile(1, 0, areaPages, testObjsPerPage, testObjSize); err != nil {
		t.Fatal(err)
	}
	sys.Directory().AddExtent(1, 1, 0, areaPages)
	srv, err := sys.AddPeer("srv", vol)
	if err != nil {
		t.Fatal(err)
	}
	f := &fixture{sys: sys, srv: srv}
	for i := 0; i < numClients; i++ {
		c, err := sys.AddPeer(fmt.Sprintf("c%d", i+1))
		if err != nil {
			t.Fatal(err)
		}
		f.clients = append(f.clients, c)
	}
	mgr, err := NewManager(Area{Vol: 1, File: 1, FirstPage: 0, NumPages: areaPages}, testObjsPerPage, testObjSize)
	if err != nil {
		t.Fatal(err)
	}
	f.mgr = mgr
	t.Cleanup(sys.Close)
	return f
}

func pattern(n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(i * 7)
	}
	return out
}

func TestCreateAndReadBackSmall(t *testing.T) {
	f := newFixture(t, 2, 64)
	data := pattern(100) // 2 pages

	tx := f.clients[0].Begin()
	h, err := f.mgr.Create(tx, data)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	rd := f.clients[1].Begin()
	size, err := f.mgr.Size(rd, h)
	if err != nil {
		t.Fatal(err)
	}
	if size != 100 {
		t.Errorf("Size = %d, want 100", size)
	}
	got, err := f.mgr.Read(rd, h, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("read-back mismatch")
	}
	if err := rd.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestCreateLargeUsesIndexPage(t *testing.T) {
	f := newFixture(t, 1, 256)
	// More than HeaderDirect pages: 12 pages of 64 bytes.
	data := pattern(12 * testPageBytes)

	tx := f.clients[0].Begin()
	h, err := f.mgr.Create(tx, data)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	rd := f.clients[0].Begin()
	got, err := f.mgr.Read(rd, h, 0, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("indexed read-back mismatch")
	}
	// Cross-page range read.
	got, err = f.mgr.Read(rd, h, testPageBytes-10, 20)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data[testPageBytes-10:testPageBytes+10]) {
		t.Error("range read mismatch")
	}
	if err := rd.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestPartialWrite(t *testing.T) {
	f := newFixture(t, 2, 64)
	data := pattern(3 * testPageBytes)

	tx := f.clients[0].Begin()
	h, err := f.mgr.Create(tx, data)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	// Overwrite a range spanning pages 0-1 from another client.
	patch := bytes.Repeat([]byte{0xAB}, 40)
	wr := f.clients[1].Begin()
	if err := f.mgr.Write(wr, h, testPageBytes-20, patch); err != nil {
		t.Fatal(err)
	}
	if err := wr.Commit(); err != nil {
		t.Fatal(err)
	}

	want := append([]byte(nil), data...)
	copy(want[testPageBytes-20:], patch)

	rd := f.clients[0].Begin()
	got, err := f.mgr.Read(rd, h, 0, len(want))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("patched read-back mismatch")
	}
	if err := rd.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestWriteCallsBackCachedDataPages(t *testing.T) {
	f := newFixture(t, 2, 64)
	data := pattern(2 * testPageBytes)

	tx := f.clients[0].Begin()
	h, err := f.mgr.Create(tx, data)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	// Client 1 caches the object.
	rd := f.clients[1].Begin()
	if _, err := f.mgr.Read(rd, h, 0, len(data)); err != nil {
		t.Fatal(err)
	}
	if err := rd.Commit(); err != nil {
		t.Fatal(err)
	}

	// Client 0 rewrites it; client 1 must see fresh bytes.
	patch := bytes.Repeat([]byte{0xCD}, len(data))
	wr := f.clients[0].Begin()
	if err := f.mgr.Write(wr, h, 0, patch); err != nil {
		t.Fatal(err)
	}
	if err := wr.Commit(); err != nil {
		t.Fatal(err)
	}

	rd2 := f.clients[1].Begin()
	got, err := f.mgr.Read(rd2, h, 0, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, patch) {
		t.Error("client 1 read stale large-object bytes after owner update")
	}
	if err := rd2.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestHeaderLockSerializesWriters(t *testing.T) {
	f := newFixture(t, 2, 64)
	data := pattern(testPageBytes)

	tx := f.clients[0].Begin()
	h, err := f.mgr.Create(tx, data)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	// Writer A holds the header EX (uncommitted write).
	wa := f.clients[0].Begin()
	if err := f.mgr.Write(wa, h, 0, bytes.Repeat([]byte{1}, 8)); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		wb := f.clients[1].Begin()
		err := f.mgr.Write(wb, h, 8, bytes.Repeat([]byte{2}, 8))
		if err == nil {
			err = wb.Commit()
		} else {
			_ = wb.Abort()
		}
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("second writer finished while header EX held: %v", err)
	case <-time.After(100 * time.Millisecond):
	}
	if err := wa.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("second writer after first committed: %v", err)
	}
}

func TestBoundsChecking(t *testing.T) {
	f := newFixture(t, 1, 64)
	tx := f.clients[0].Begin()
	h, err := f.mgr.Create(tx, pattern(50))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.mgr.Read(tx, h, 40, 20); !errors.Is(err, ErrBounds) {
		t.Errorf("read past end: %v", err)
	}
	if _, err := f.mgr.Read(tx, h, -1, 5); !errors.Is(err, ErrBounds) {
		t.Errorf("negative offset: %v", err)
	}
	if err := f.mgr.Write(tx, h, 45, pattern(10)); !errors.Is(err, ErrBounds) {
		t.Errorf("write past end: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestTooLargeRejected(t *testing.T) {
	f := newFixture(t, 1, 64)
	tooBig := f.mgr.maxSize() + 1
	tx := f.clients[0].Begin()
	if _, err := f.mgr.Create(tx, make([]byte, tooBig)); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversized create: %v", err)
	}
	_ = tx.Abort()
}

func TestOutOfSpace(t *testing.T) {
	f := newFixture(t, 1, 4) // header page + 3 data pages
	tx := f.clients[0].Begin()
	if _, err := f.mgr.Create(tx, pattern(4*testPageBytes)); !errors.Is(err, ErrOutOfSpace) {
		t.Errorf("create beyond area: %v", err)
	}
	_ = tx.Abort()
}

func TestFreeRecyclesPages(t *testing.T) {
	f := newFixture(t, 1, 8) // header + 7 data pages
	c := f.clients[0]

	tx := c.Begin()
	h, err := f.mgr.Create(tx, pattern(3*testPageBytes))
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	tx2 := c.Begin()
	if err := f.mgr.Free(tx2, h); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}

	// The freed pages make room for more objects than the virgin area has.
	for i := 0; i < 2; i++ {
		tx3 := c.Begin()
		h2, err := f.mgr.Create(tx3, pattern(3*testPageBytes))
		if err != nil {
			t.Fatalf("create %d after free: %v", i, err)
		}
		if err := tx3.Commit(); err != nil {
			t.Fatal(err)
		}
		tx4 := c.Begin()
		if err := f.mgr.Free(tx4, h2); err != nil {
			t.Fatal(err)
		}
		if err := tx4.Commit(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCachedLargeObjectReadsAreLocal(t *testing.T) {
	f := newFixture(t, 1, 64)
	c := f.clients[0]
	data := pattern(2 * testPageBytes)

	tx := c.Begin()
	h, err := f.mgr.Create(tx, data)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	rd := c.Begin()
	if _, err := f.mgr.Read(rd, h, 0, len(data)); err != nil {
		t.Fatal(err)
	}
	if err := rd.Commit(); err != nil {
		t.Fatal(err)
	}

	msgs := f.sys.Stats().Get(sim.CtrMessages)
	rd2 := c.Begin()
	if _, err := f.mgr.Read(rd2, h, 0, len(data)); err != nil {
		t.Fatal(err)
	}
	if err := rd2.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := f.sys.Stats().Get(sim.CtrMessages); got != msgs {
		t.Errorf("cached large-object read sent %d messages", got-msgs)
	}
}

func TestHeaderEncodingRoundTrip(t *testing.T) {
	h := header{Size: 12345, Index: 77}
	for i := range h.Direct {
		h.Direct[i] = uint32(100 + i)
	}
	got, err := decodeHeader(encodeHeader(h))
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Errorf("round trip = %+v, want %+v", got, h)
	}
	if _, err := decodeHeader([]byte{1, 2, 3}); err == nil {
		t.Error("short header decoded")
	}
}
