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
// carries: the partition-plan hash and the unacknowledged results, then a
// complete checkpoint body (Write/WriteBi output, its own magic included).
// Its last byte is the envelope version; ReadSessionHeader refuses a bare
// body or another version, and a worker starts such a session fresh.
var magic2 = []byte("SSJCKPT\x03")

// SessionMeta is the envelope: the session's plan fingerprint (to refuse
// resuming against a checkpoint saved under a different partition plan)
// and the results the worker had emitted but the coordinator had not yet
// acknowledged when the checkpoint was taken.
type SessionMeta struct {
	PlanHash uint64
	Unacked  []wire.Result
}

// WriteSessionHeader writes the envelope: magic, the plan hash as a
// uvarint, then the unacked results as one-pair wire Result frames closed
// by an EOF frame. The caller follows with Write or WriteBi for the
// window body.
func WriteSessionHeader(w io.Writer, meta SessionMeta) error {
	hdr := binary.AppendUvarint(bytes.Clone(magic2), meta.PlanHash)
	if _, err := w.Write(hdr); err != nil {
		return fmt.Errorf("checkpoint: writing session header: %w", err)
	}
	ww := wire.NewWriter(w)
	for _, res := range meta.Unacked {
		if err := ww.WriteResult(res); err != nil {
			return fmt.Errorf("checkpoint: writing unacked result: %w", err)
		}
	}
	if err := ww.WriteEOF(); err != nil {
		return fmt.Errorf("checkpoint: writing session header: %w", err)
	}
	return nil
}

// ReadSessionHeader consumes the envelope and returns its metadata plus a
// reader positioned at the checkpoint body. Anything but an envelope of
// the current version is an error.
func ReadSessionHeader(r io.Reader) (meta SessionMeta, body io.Reader, err error) {
	got := make([]byte, len(magic2))
	if _, err := io.ReadFull(r, got); err != nil {
		return meta, nil, fmt.Errorf("checkpoint: reading magic: %w", err)
	}
	if !bytes.Equal(got, magic2) {
		return meta, nil, errors.New("checkpoint: bad magic (not a session checkpoint or wrong version)")
	}
	if meta.PlanHash, err = binary.ReadUvarint(byteReaderAdapter{r: r}); err != nil {
		return meta, nil, fmt.Errorf("checkpoint: reading plan hash: %w", err)
	}
	rd := wire.NewReader(r)
	for {
		typ, err := rd.Next()
		if err != nil {
			return meta, nil, fmt.Errorf("checkpoint: reading unacked results: %w", err)
		}
		switch typ {
		case wire.TypeResult:
			if meta.Unacked, err = rd.ReadResults(meta.Unacked); err != nil {
				return meta, nil, fmt.Errorf("checkpoint: decoding unacked results: %w", err)
			}
		case wire.TypeEOF:
			return meta, rd.Rest(), nil
		default:
			return meta, nil, fmt.Errorf("checkpoint: unexpected frame type %d in session header", typ)
		}
	}
}

// ErrPlanMismatch reports a resume attempt against a checkpoint saved
// under a different partition plan.
var ErrPlanMismatch = errors.New("checkpoint: partition-plan hash mismatch (stale checkpoint directory?)")
