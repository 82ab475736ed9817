package checkpoint

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/local"
	"repro/internal/record"
	"repro/internal/window"
	"repro/internal/wire"
	"repro/internal/workload"
)

// FuzzCheckpointRead feeds arbitrary bytes through Read into a fresh
// joiner of every algorithm, then steps a few records past the restored
// cursor: a corrupt snapshot must produce an error, never a panic, and
// whatever it restored must keep joining.
func FuzzCheckpointRead(f *testing.F) {
	recs := workload.NewGenerator(workload.UniformSmall(3)).Generate(40)
	o := opts(0.7, window.Count{N: 16})
	src := local.New(local.Bundled, o)
	for _, r := range recs[:30] {
		src.Step(r, true, func(local.Match) {})
	}
	var body bytes.Buffer
	if err := Write(&body, Cursor{NextID: 30, NextTime: 30}, src); err != nil {
		f.Fatal(err)
	}
	// A record frame whose token count claims 2^24 tokens and holds none.
	claim := binary.AppendUvarint([]byte{1, 0, 0}, 1<<24)
	hostile := append(append(bytes.Clone(magic), 0, 0, wire.TypeRecord, byte(len(claim))), claim...)
	f.Add(body.Bytes())
	f.Add(body.Bytes()[:body.Len()/2])
	f.Add(hostile)
	f.Add(append(bytes.Clone(magic), 0, 0, wire.TypeEOF, 0))
	tail := recs[30:33]

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, alg := range []local.Algorithm{local.Naive, local.Prefix, local.Bundled} {
			j := local.New(alg, o)
			cur, _, err := Read(bytes.NewReader(data), j)
			if err != nil {
				continue
			}
			for i, r := range tail {
				next := &record.Record{
					ID:     record.ID(cur.NextID) + record.ID(i),
					Time:   cur.NextTime + int64(i),
					Tokens: r.Tokens,
				}
				j.Step(next, true, func(local.Match) {})
			}
		}
	})
}
