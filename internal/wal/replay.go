// Serialized log image and crash recovery replay.
//
// The StableLog of wal.go models the cost of logging; this file models its
// contents. A LogImage is the byte-for-byte state of an owner's log disk:
// update, commit, abort, and checkpoint records framed with a length prefix
// and a CRC so that replay can detect a torn tail (a frame half-written
// when the machine died). Replay scans the image and reconstructs the
// committed object state under the redo-at-server discipline: updates are
// buffered per transaction, applied on commit, discarded on abort, and
// transactions with no decision record at the end of the log are losers,
// presumed aborted. Re-delivered records (duplicate LSNs, possible when a
// client retries a prepare whose first copy also arrived) are skipped.
//
// Checkpoints are copy-checkpoints bracketed by begin/end records: the end
// record carries the committed state at checkpoint time, so replay starts
// from the most recent *complete* checkpoint instead of the log's birth. A
// crash between begin and end leaves an unmatched begin; replay falls back
// to the previous complete checkpoint, so a mid-checkpoint crash costs
// recovery time but never correctness.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sort"

	"adaptivecc/internal/codec"
	"adaptivecc/internal/lock"
	"adaptivecc/internal/storage"
)

// Frame kinds on the log disk.
const (
	frameUpdate byte = iota + 1
	frameCommit
	frameAbort
	frameCkptBegin
	frameCkptEnd
	framePrepare
)

// LogImage accumulates the serialized log. The zero value is not usable;
// call NewLogImage.
type LogImage struct {
	w codec.Writer // the image so far
}

// NewLogImage returns an empty image.
func NewLogImage() *LogImage { return &LogImage{} }

// Bytes returns the image so far. The slice aliases the image's buffer;
// callers that keep it across further appends must copy.
func (im *LogImage) Bytes() []byte { return im.w.B }

// Len reports the image size in bytes.
func (im *LogImage) Len() int { return len(im.w.B) }

// open starts a frame of the given kind: a length prefix that seal fills
// in, then the kind byte. It returns where the frame starts.
func (im *LogImage) open(kind byte) int {
	start := len(im.w.B)
	im.w.U32(0)
	im.w.U8(kind)
	return start
}

// seal completes the frame opened at start: its length, then the CRC of
// its payload. Every field an image holds arrived through a checked path —
// a record the wire codec decoded, or a peer name from the configuration,
// which the connection hello refuses when over-long — so a value that did
// not fit its length prefix here is a bug.
func (im *LogImage) seal(start int) {
	if err := im.w.Err(); err != nil {
		panic("wal: log image: " + err.Error())
	}
	payload := im.w.B[start+4:]
	binary.LittleEndian.PutUint32(im.w.B[start:], uint32(len(payload)))
	im.w.U32(crc32.ChecksumIEEE(payload))
}

// RecordMinSize is the smallest encoding of a Record: empty site and images.
const RecordMinSize = 8 + codec.TxSize + codec.ItemSize + 4 + 4

// AppendRecord writes rec as the log image's update frames hold it, and as
// it crosses the wire in prepare requests and purge notices: LSN,
// transaction, object, before-image, after-image.
func AppendRecord(w *codec.Writer, rec *Record) {
	w.U64(rec.LSN)
	w.Tx(rec.Tx)
	w.Item(rec.Object)
	w.Bytes(rec.Before)
	w.Bytes(rec.After)
}

// ReadRecord reads a record written by AppendRecord into rec.
func ReadRecord(r *codec.Reader, rec *Record) {
	rec.LSN = r.U64()
	rec.Tx = r.Tx()
	rec.Object = r.Item()
	rec.Before = r.Bytes()
	rec.After = r.Bytes()
}

// AppendUpdate logs one object update (redo and undo images).
func (im *LogImage) AppendUpdate(rec Record) {
	f := im.open(frameUpdate)
	AppendRecord(&im.w, &rec)
	im.seal(f)
}

// AppendCommit logs a transaction's commit record.
func (im *LogImage) AppendCommit(tx lock.TxID) {
	f := im.open(frameCommit)
	im.w.Tx(tx)
	im.seal(f)
}

// AppendPrepare logs a participant's prepare record for a distributed
// transaction, naming the coordinator its fate rests with.
func (im *LogImage) AppendPrepare(tx lock.TxID, coord string) {
	f := im.open(framePrepare)
	im.w.Tx(tx)
	im.w.String(coord)
	im.seal(f)
}

// AppendAbort logs a transaction's abort record.
func (im *LogImage) AppendAbort(tx lock.TxID) {
	f := im.open(frameAbort)
	im.w.Tx(tx)
	im.seal(f)
}

// BeginCheckpoint logs the start of copy-checkpoint id.
func (im *LogImage) BeginCheckpoint(id uint64) {
	f := im.open(frameCkptBegin)
	im.w.U64(id)
	im.seal(f)
}

// EndCheckpoint completes checkpoint id, embedding the committed state at
// checkpoint time. Objects are written in sorted order so two images of
// the same state are byte-identical.
func (im *LogImage) EndCheckpoint(id uint64, state map[storage.ItemID][]byte) {
	ids := make([]storage.ItemID, 0, len(state))
	for obj := range state {
		ids = append(ids, obj)
	}
	sort.Slice(ids, func(i, j int) bool {
		a, b := ids[i], ids[j]
		if a.Vol != b.Vol {
			return a.Vol < b.Vol
		}
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Page != b.Page {
			return a.Page < b.Page
		}
		return a.Slot < b.Slot
	})
	f := im.open(frameCkptEnd)
	im.w.U64(id)
	im.w.Count(len(ids))
	for _, obj := range ids {
		im.w.Item(obj)
		im.w.Bytes(state[obj])
	}
	im.seal(f)
}

// ReplayResult is the outcome of scanning a log image after a crash.
type ReplayResult struct {
	// State maps each object to its committed bytes.
	State map[storage.ItemID][]byte
	// Losers are transactions with shipped updates but no decision record:
	// presumed aborted, their updates were not applied.
	Losers []lock.TxID
	// InDoubt maps prepared-but-undecided transactions to their recorded
	// coordinator. They are also Losers — presumed abort treats a missing
	// decision as abort — but a recovering participant may use the
	// coordinator name to ask for the real fate before settling.
	InDoubt map[lock.TxID]string
	// Truncated reports that the scan stopped at a torn tail (an incomplete
	// or corrupt final frame) rather than the exact end of the image.
	Truncated bool
	// DupLSNs counts re-delivered update records that were skipped.
	DupLSNs int
	// MaxLSN is the highest update LSN applied or skipped.
	MaxLSN uint64
	// Checkpoint is the id of the complete checkpoint replay started from
	// (zero if replay started at the log's birth).
	Checkpoint uint64
}

// scanFrames splits the image into frame payloads, stopping cleanly at a
// torn tail (truncated length, truncated payload, or CRC mismatch).
func scanFrames(img []byte) (payloads [][]byte, truncated bool) {
	off := 0
	for off < len(img) {
		if off+4 > len(img) {
			return payloads, true
		}
		n := int(binary.LittleEndian.Uint32(img[off:]))
		if off+4+n+4 > len(img) {
			return payloads, true
		}
		payload := img[off+4 : off+4+n]
		sum := binary.LittleEndian.Uint32(img[off+4+n:])
		if crc32.ChecksumIEEE(payload) != sum {
			return payloads, true
		}
		payloads = append(payloads, payload)
		off += 4 + n + 4
	}
	return payloads, false
}

// Replay reconstructs committed state from a (possibly torn) log image.
func Replay(img []byte) (*ReplayResult, error) {
	payloads, truncated := scanFrames(img)
	res := &ReplayResult{State: make(map[storage.ItemID][]byte), Truncated: truncated}

	// Pass 1: find the most recent complete checkpoint — a begin whose end
	// (same id) also survived. An unmatched begin is a mid-checkpoint crash
	// and is ignored.
	start := 0
	for i, p := range payloads {
		if len(p) == 0 || p[0] != frameCkptEnd {
			continue
		}
		r := codec.NewReader(p[1:], nil)
		id := r.U64()
		if r.Err() != nil {
			return nil, fmt.Errorf("wal: corrupt checkpoint-end frame %d", i)
		}
		for j := i - 1; j >= 0; j-- {
			q := payloads[j]
			if len(q) > 0 && q[0] == frameCkptBegin {
				br := codec.NewReader(q[1:], nil)
				if br.U64() == id && br.Err() == nil {
					start = i
					res.Checkpoint = id
				}
				break
			}
		}
	}

	pending := make(map[lock.TxID][]Record)
	seenLSN := make(map[uint64]bool)
	inDoubt := make(map[lock.TxID]string)

	for i := start; i < len(payloads); i++ {
		p := payloads[i]
		if len(p) == 0 {
			return nil, fmt.Errorf("wal: empty frame %d", i)
		}
		r := codec.NewReader(p[1:], nil)
		switch p[0] {
		case frameUpdate:
			var rec Record
			ReadRecord(&r, &rec)
			if r.Err() != nil {
				return nil, fmt.Errorf("wal: corrupt update frame %d", i)
			}
			if rec.LSN > res.MaxLSN {
				res.MaxLSN = rec.LSN
			}
			if seenLSN[rec.LSN] {
				res.DupLSNs++
				continue
			}
			seenLSN[rec.LSN] = true
			pending[rec.Tx] = append(pending[rec.Tx], rec)
		case frameCommit:
			txid := r.Tx()
			if r.Err() != nil {
				return nil, fmt.Errorf("wal: corrupt commit frame %d", i)
			}
			for _, rec := range pending[txid] {
				res.State[rec.Object] = rec.After
			}
			delete(pending, txid)
			delete(inDoubt, txid)
		case frameAbort:
			txid := r.Tx()
			if r.Err() != nil {
				return nil, fmt.Errorf("wal: corrupt abort frame %d", i)
			}
			delete(pending, txid)
			delete(inDoubt, txid)
		case framePrepare:
			txid := r.Tx()
			coord := r.String()
			if r.Err() != nil {
				return nil, fmt.Errorf("wal: corrupt prepare frame %d", i)
			}
			inDoubt[txid] = coord
		case frameCkptBegin:
			// Informational; completeness was decided in pass 1.
		case frameCkptEnd:
			id := r.U64()
			if id != res.Checkpoint {
				// An end for an older checkpoint inside the replayed suffix
				// (possible only when start == 0 and this end's begin was
				// missing entirely): its snapshot predates the log start we
				// chose, so it is ignored.
				continue
			}
			count := int(r.U32())
			for k := 0; k < count; k++ {
				obj := r.Item()
				val := r.Bytes()
				if r.Err() != nil {
					return nil, fmt.Errorf("wal: corrupt checkpoint frame %d", i)
				}
				res.State[obj] = val
			}
		default:
			return nil, fmt.Errorf("wal: unknown frame kind %d at %d", p[0], i)
		}
	}

	for txid := range pending {
		res.Losers = append(res.Losers, txid)
	}
	if len(inDoubt) > 0 {
		res.InDoubt = inDoubt
	}
	sort.Slice(res.Losers, func(i, j int) bool {
		a, b := res.Losers[i], res.Losers[j]
		if a.Site != b.Site {
			return a.Site < b.Site
		}
		return a.Seq < b.Seq
	})
	return res, nil
}
