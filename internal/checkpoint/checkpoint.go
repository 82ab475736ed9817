// Package checkpoint persists and restores the window state of a streaming
// joiner — the recovery story a deployed stream processor needs. A
// checkpoint is a logical snapshot: the live stored records in arrival
// order, serialized with the wire codec, plus the stream cursor (next ID
// and tick). Restore replays them through the joiner's Load path, which
// rebuilds indexes (and bundle groupings) rather than serializing internal
// pointers, so checkpoints survive any change to index internals.
package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/local"
	"repro/internal/record"
	"repro/internal/wire"
)

// magic identifies checkpoint files; the trailing byte is the format
// version.
var magic = []byte("SSJCKPT\x01")

// Cursor is the stream position saved alongside the window state so a
// restored stream continues ID and time assignment where it left off.
type Cursor struct {
	NextID   uint64
	NextTime int64
}

// Write serializes the cursor and the records j dumps (a joiner's live
// records) to w.
func Write(w io.Writer, cur Cursor, j interface {
	Dump(func(*record.Record) bool)
}) error {
	return write(w, cur, func(visit func(*record.Record, bool) bool) {
		j.Dump(func(r *record.Record) bool { return visit(r, false) })
	})
}

// WriteBi serializes a two-stream joiner's windows (both sides, with side
// flags on the wire records).
func WriteBi(w io.Writer, cur Cursor, bi *local.BiJoiner) error {
	return write(w, cur, bi.DumpSides)
}

// write is the one checkpoint body: magic, cursor, then every record dump
// visits as a stored Record frame with its side flag, closed by an EOF
// frame.
func write(w io.Writer, cur Cursor, dump func(visit func(r *record.Record, right bool) bool)) error {
	if _, err := w.Write(magic); err != nil {
		return fmt.Errorf("checkpoint: writing magic: %w", err)
	}
	var hdr [2 * binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], cur.NextID)
	n += binary.PutVarint(hdr[n:], cur.NextTime)
	if _, err := w.Write(hdr[:n]); err != nil {
		return fmt.Errorf("checkpoint: writing cursor: %w", err)
	}
	ww := wire.NewWriter(w)
	var werr error
	dump(func(r *record.Record, right bool) bool {
		werr = ww.WriteRecordSide(true, right, r)
		return werr == nil
	})
	if werr != nil {
		return fmt.Errorf("checkpoint: writing record: %w", werr)
	}
	if err := ww.WriteEOF(); err != nil {
		return fmt.Errorf("checkpoint: writing eof: %w", err)
	}
	return nil
}

// byteReaderAdapter lets binary.ReadUvarint consume exactly the bytes it
// needs from a plain io.Reader without buffering ahead.
type byteReaderAdapter struct{ r io.Reader }

func (b byteReaderAdapter) ReadByte() (byte, error) {
	var one [1]byte
	_, err := io.ReadFull(b.r, one[:])
	return one[0], err
}

// Read restores a checkpoint into j (a joiner freshly constructed with the
// same join configuration) and returns the saved cursor and the number of
// records loaded.
func Read(r io.Reader, j interface{ Load(*record.Record) }) (Cursor, int, error) {
	return read(r, func(rec *record.Record, _ bool) { j.Load(rec) })
}

// ReadBi restores a checkpoint written by WriteBi into bi (freshly
// constructed with the same configuration).
func ReadBi(r io.Reader, bi *local.BiJoiner) (Cursor, int, error) {
	return read(r, bi.LoadSide)
}

// read decodes a checkpoint body, handing every record to load with its
// side flag.
func read(r io.Reader, load func(rec *record.Record, right bool)) (Cursor, int, error) {
	got := make([]byte, len(magic))
	if _, err := io.ReadFull(r, got); err != nil {
		return Cursor{}, 0, fmt.Errorf("checkpoint: reading magic: %w", err)
	}
	if !bytes.Equal(got, magic) {
		return Cursor{}, 0, errors.New("checkpoint: bad magic (not a checkpoint or wrong version)")
	}
	br := byteReaderAdapter{r: r}
	nextID, err := binary.ReadUvarint(br)
	if err != nil {
		return Cursor{}, 0, fmt.Errorf("checkpoint: reading cursor id: %w", err)
	}
	nextTime, err := binary.ReadVarint(br)
	if err != nil {
		return Cursor{}, 0, fmt.Errorf("checkpoint: reading cursor time: %w", err)
	}
	cur := Cursor{NextID: nextID, NextTime: nextTime}

	rd := wire.NewReader(r)
	count := 0
	for {
		typ, err := rd.Next()
		if err != nil {
			return cur, count, fmt.Errorf("checkpoint: reading frame: %w", err)
		}
		switch typ {
		case wire.TypeRecord:
			rt, err := rd.ReadRecord()
			if err != nil {
				return cur, count, fmt.Errorf("checkpoint: decoding record: %w", err)
			}
			load(rt.Rec, rt.Right)
			count++
		case wire.TypeEOF:
			return cur, count, nil
		default:
			return cur, count, fmt.Errorf("checkpoint: unexpected frame type %d", typ)
		}
	}
}
