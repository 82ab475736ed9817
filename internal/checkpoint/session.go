package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/wire"
)

// magic2 identifies the session envelope every FT worker checkpoint
// carries: the partition-plan hash, the worker's next result number and
// its unacknowledged results, then a complete checkpoint body (Write/WriteBi
// output, its own magic included). Its last byte is the envelope version;
// ReadSessionHeader refuses a bare body or another version, and a worker
// starts such a session fresh.
var magic2 = []byte("SSJCKPT\x04")

// SessionMeta is the envelope: the session's plan fingerprint (to refuse
// resuming against a checkpoint saved under a different partition plan)
// and the results the worker had emitted but the coordinator had not yet
// acknowledged when the checkpoint was taken, which are the session's
// results numbered Acked onwards. A session that sends counts
// (wire.Hello.CountOnly) holds no pairs: its envelope is the next result
// number alone, Acked with no Unacked, and its worker re-sends a count of
// every result below it.
type SessionMeta struct {
	PlanHash uint64
	Acked    uint64
	Unacked  []wire.Result
}

// WriteSessionHeader writes the envelope: magic, then the plan hash and the
// next result number (Acked + len(Unacked)) as uvarints, then the unacked
// results as numbered wire Result frames, one probe's pairs to a frame
// (Writer.WriteProbes), closed by an EOF frame. The caller follows with
// Write or WriteBi for the window body.
func WriteSessionHeader(w io.Writer, meta SessionMeta) error {
	hdr := binary.AppendUvarint(bytes.Clone(magic2), meta.PlanHash)
	hdr = binary.AppendUvarint(hdr, meta.Acked+uint64(len(meta.Unacked)))
	if _, err := w.Write(hdr); err != nil {
		return fmt.Errorf("checkpoint: writing session header: %w", err)
	}
	ww := wire.NewWriter(w)
	ww.SetResultNumber(meta.Acked)
	if err := ww.WriteProbes(meta.Unacked); err != nil {
		return fmt.Errorf("checkpoint: writing unacked results: %w", err)
	}
	if err := ww.WriteEOF(); err != nil {
		return fmt.Errorf("checkpoint: writing session header: %w", err)
	}
	return nil
}

// ReadSessionHeader consumes the envelope and returns its metadata plus a
// reader positioned at the checkpoint body. Anything but an envelope of
// the current version is an error, and so are unacked results whose
// numbers do not run without a gap up to the next result number.
func ReadSessionHeader(r io.Reader) (meta SessionMeta, body io.Reader, err error) {
	got := make([]byte, len(magic2))
	if _, err := io.ReadFull(r, got); err != nil {
		return meta, nil, fmt.Errorf("checkpoint: reading magic: %w", err)
	}
	if !bytes.Equal(got, magic2) {
		return meta, nil, errors.New("checkpoint: bad magic (not a session checkpoint or wrong version)")
	}
	br := byteReaderAdapter{r: r}
	if meta.PlanHash, err = binary.ReadUvarint(br); err != nil {
		return meta, nil, fmt.Errorf("checkpoint: reading plan hash: %w", err)
	}
	next, err := binary.ReadUvarint(br)
	if err != nil {
		return meta, nil, fmt.Errorf("checkpoint: reading the next result number: %w", err)
	}
	meta.Acked = next
	rd := wire.NewReader(r)
	for {
		typ, err := rd.Next()
		if err != nil {
			return meta, nil, fmt.Errorf("checkpoint: reading unacked results: %w", err)
		}
		switch typ {
		case wire.TypeResult:
			n := uint64(len(meta.Unacked))
			first, rs, err := wire.DecodeResults(meta.Unacked, rd.Payload())
			if err != nil {
				return meta, nil, fmt.Errorf("checkpoint: decoding unacked results: %w", err)
			}
			if n == 0 {
				meta.Acked = first
			} else if first != meta.Acked+n {
				return meta, nil, fmt.Errorf("checkpoint: unacked results numbered from %d, want %d", first, meta.Acked+n)
			}
			meta.Unacked = rs
		case wire.TypeEOF:
			if end := meta.Acked + uint64(len(meta.Unacked)); end != next {
				return meta, nil, fmt.Errorf("checkpoint: unacked results end at number %d, next result is %d", end, next)
			}
			return meta, rd.Rest(), nil
		default:
			return meta, nil, fmt.Errorf("checkpoint: unexpected frame type %d in session header", typ)
		}
	}
}

// ErrPlanMismatch reports a resume attempt against a checkpoint saved
// under a different partition plan.
var ErrPlanMismatch = errors.New("checkpoint: partition-plan hash mismatch (stale checkpoint directory?)")
