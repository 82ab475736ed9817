//go:build !race

package topology

import (
	"testing"

	"repro/internal/local"
	"repro/internal/record"
)

// probeOnly routes every record to worker 0, which probes it and stores
// none, so the joiner's index stays empty.
type probeOnly struct{}

func (probeOnly) Name() string                                   { return "probe-only" }
func (probeOnly) Route(_ *record.Record, _ int, buf []int) []int { return append(buf, 0) }
func (probeOnly) Stores(*record.Record, int, int) bool           { return false }
func (probeOnly) Emits(_, _ *record.Record, _, _ int) bool       { return true }

// TestDispatchToWorkerAllocs is the engine path's 0 allocs: a warm
// dispatcher routes a chunk into a batch and ships it, and the worker steps
// the batch and recycles it into the pool the next batch comes from. The
// race detector makes sync.Pool drop items at random, so the file is left
// out of -race builds.
func TestDispatchToWorkerAllocs(t *testing.T) {
	recs := genStream(64, 5)
	pl := newPipeline(Config{Workers: 1, Strategy: probeOnly{}, Algorithm: local.Prefix,
		Params: params(0.8), BatchSize: len(recs)}, recs, nil)
	chunk := make([]RecTuple, len(recs))
	for i, r := range recs {
		chunk[i] = RecTuple{Rec: r}
	}
	dp, w := pl.dispatchers[0], pl.workers[0]
	hop := func() {
		dp.dispatch(chunk)
		w.consume(<-w.in, pl)
	}
	hop()
	if n := testing.AllocsPerRun(100, hop); n != 0 {
		t.Fatalf("a dispatcher → worker batch costs %v allocations", n)
	}
	if got, want := w.t.Cost().Probes, uint64(102*len(recs)); got != want {
		t.Fatalf("the worker probed %d records, want %d", got, want)
	}
}
