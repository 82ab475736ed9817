package checkpoint

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"repro/internal/local"
	"repro/internal/record"
	"repro/internal/window"
	"repro/internal/wire"
	"repro/internal/workload"
)

// hostileHeader is an 18-byte envelope whose one Result frame declares
// 2^24 unacked results and carries none.
var hostileHeader = binary.AppendUvarint(append(append([]byte{}, magic2...), 0, 0, wire.TypeResult, 6, 0, 0), 1<<24)

// TestHostileUnackedCountIsRejectedUnallocated: a snapshot is outside
// input, so the unacked count it declares must not size an allocation
// before the results behind it are read.
func TestHostileUnackedCountIsRejectedUnallocated(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := ReadSessionHeader(bytes.NewReader(hostileHeader))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a header declaring 2^24 missing results accepted")
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
		t.Fatalf("ReadSessionHeader allocated %d bytes for a %d-byte header", n, len(hostileHeader))
	}
}

// FuzzCheckpointRead feeds arbitrary bytes through ReadSessionHeader and
// Read into a fresh joiner of every algorithm, then steps a few records
// past the restored cursor: a corrupt snapshot must produce an error,
// never a panic, and whatever it restored must keep joining.
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
	var env bytes.Buffer
	meta := SessionMeta{PlanHash: 7, Unacked: []wire.Result{{A: 1, B: 2, Sim: 0.9}}}
	if err := WriteSessionHeader(&env, meta); err != nil {
		f.Fatal(err)
	}
	env.Write(body.Bytes())
	// Results 12–14, one probe's pairs split over two frames, as a worker
	// whose acknowledged count fell between them keeps them.
	var split bytes.Buffer
	split.Write(binary.AppendUvarint(binary.AppendUvarint(bytes.Clone(magic2), 7), 15))
	ww := wire.NewWriter(&split)
	ww.SetResultNumber(12)
	for _, rs := range [][]wire.Result{{{A: 1, B: 9, Sim: 0.8}, {A: 4, B: 9, Sim: 0.9}}, {{A: 6, B: 9, Sim: 1}}} {
		if err := ww.WriteResults(9, rs); err != nil {
			f.Fatal(err)
		}
	}
	if err := ww.WriteEOF(); err != nil {
		f.Fatal(err)
	}
	split.Write(body.Bytes())
	f.Add(body.Bytes())
	f.Add(env.Bytes())
	f.Add(hostileHeader)
	f.Add(split.Bytes())
	tail := recs[30:33]

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, alg := range []local.Algorithm{local.Naive, local.Prefix, local.Bundled} {
			_, rd, err := ReadSessionHeader(bytes.NewReader(data))
			if err != nil {
				return
			}
			j := local.New(alg, o)
			cur, _, err := Read(rd, j)
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
