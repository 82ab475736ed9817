package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/record"
	"repro/internal/wire"
)

// magic2 identifies the v2 session-checkpoint envelope: a header carrying
// the partition-plan hash and the worker's unacknowledged results,
// followed by a complete v1 checkpoint body (Write/WriteBi output,
// its own magic included). Readers of v1 files reject it as bad magic,
// and ReadSessionHeader passes v1 files through untouched, so both
// formats coexist in a checkpoint directory.
var magic2 = []byte("SSJCKPT\x02")

// SessionMeta is the v2 envelope: the session's plan fingerprint (to
// refuse resuming against a checkpoint saved under a different partition
// plan) and the results the worker had emitted but the coordinator had
// not yet acknowledged as durable when the checkpoint was taken.
type SessionMeta struct {
	PlanHash uint64
	Unacked  []wire.Result
}

// WriteSessionHeader writes the v2 envelope; the caller follows with
// Write or WriteBi for the window body.
func WriteSessionHeader(w io.Writer, meta SessionMeta) error {
	var buf bytes.Buffer
	buf.Write(magic2)
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], meta.PlanHash)
	buf.Write(tmp[:n])
	n = binary.PutUvarint(tmp[:], uint64(len(meta.Unacked)))
	buf.Write(tmp[:n])
	for _, res := range meta.Unacked {
		n = binary.PutUvarint(tmp[:], uint64(res.A))
		buf.Write(tmp[:n])
		n = binary.PutUvarint(tmp[:], uint64(res.B))
		buf.Write(tmp[:n])
		var f [8]byte
		binary.LittleEndian.PutUint64(f[:], math.Float64bits(res.Sim))
		buf.Write(f[:])
	}
	if _, err := w.Write(buf.Bytes()); err != nil {
		return fmt.Errorf("checkpoint: writing session header: %w", err)
	}
	return nil
}

// ReadSessionHeader consumes the v2 envelope if present and returns the
// metadata plus a reader positioned at the v1 checkpoint body. A v1 file
// (no envelope) is returned as-is with v2=false and zero metadata, so
// callers handle both formats with one code path.
func ReadSessionHeader(r io.Reader) (meta SessionMeta, body io.Reader, v2 bool, err error) {
	got := make([]byte, len(magic2))
	if _, err := io.ReadFull(r, got); err != nil {
		return meta, nil, false, fmt.Errorf("checkpoint: reading magic: %w", err)
	}
	if !bytes.Equal(got, magic2) {
		// Not a v2 envelope — put the bytes back and let the caller try
		// the v1 reader (which validates its own magic).
		return meta, io.MultiReader(bytes.NewReader(got), r), false, nil
	}
	br := byteReaderAdapter{r: r}
	if meta.PlanHash, err = binary.ReadUvarint(br); err != nil {
		return meta, nil, true, fmt.Errorf("checkpoint: reading plan hash: %w", err)
	}
	count, err := binary.ReadUvarint(br)
	if err != nil {
		return meta, nil, true, fmt.Errorf("checkpoint: reading unacked count: %w", err)
	}
	if count > 1<<24 {
		return meta, nil, true, fmt.Errorf("checkpoint: absurd unacked count %d", count)
	}
	// Append as results decode: the count is outside input, and a header
	// cut short must not have sized an allocation first.
	for i := uint64(0); i < count; i++ {
		a, err := binary.ReadUvarint(br)
		if err != nil {
			return meta, nil, true, fmt.Errorf("checkpoint: reading unacked result %d: %w", i, err)
		}
		b, err := binary.ReadUvarint(br)
		if err != nil {
			return meta, nil, true, fmt.Errorf("checkpoint: reading unacked result %d: %w", i, err)
		}
		var f [8]byte
		if _, err := io.ReadFull(r, f[:]); err != nil {
			return meta, nil, true, fmt.Errorf("checkpoint: reading unacked result %d: %w", i, err)
		}
		meta.Unacked = append(meta.Unacked, wire.Result{
			A:   record.ID(a),
			B:   record.ID(b),
			Sim: math.Float64frombits(binary.LittleEndian.Uint64(f[:])),
		})
	}
	return meta, r, true, nil
}

// ErrPlanMismatch reports a resume attempt against a checkpoint saved
// under a different partition plan.
var ErrPlanMismatch = errors.New("checkpoint: partition-plan hash mismatch (stale checkpoint directory?)")
