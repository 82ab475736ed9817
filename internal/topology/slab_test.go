package topology

import (
	"strings"
	"testing"
	"time"

	"repro/internal/dispatch"
	"repro/internal/local"
	"repro/internal/record"
	"repro/internal/stream"
	"repro/internal/window"
	"repro/internal/workload"
)

// resultEdge wires source → one real workerBolt → sink the way run() does,
// with the joiner and the sink the caller chooses.
func resultEdge(queueCap int, src stream.Spout, joiner local.Joiner, sink stream.Bolt) *stream.Topology {
	tp := stream.New("result-edge", queueCap)
	tp.AddSpout("source", func(int) stream.Spout { return src }, 1)
	tp.AddBolt("worker", func(task int) stream.Bolt {
		w := newWorkerBolt(task, 1, dispatch.BroadcastBased{}, queueCap)
		w.joiner = joiner
		return w
	}, 1).SubscribeTo("source", stream.Shuffle{})
	tp.AddBolt("sink", func(int) stream.Bolt { return sink }, 1).
		SubscribeUnbatched("worker", stream.Shuffle{})
	return tp
}

// panicSink dies on the first slab and never hands one back.
type panicSink struct{}

func (panicSink) Execute(stream.Tuple, stream.Emitter) { panic("sink boom") }

// TestSlabRingSurvivesSinkPanic: a sink that panics is replaced by the
// engine's discard loop, which returns no slab. The worker must go on
// making its own — the ladder needs several hundred through a one-batch
// queue and a ring of three — and the run must end with the panic as its
// error. A worker that waited for a free slab would hang here.
func TestSlabRingSurvivesSinkPanic(t *testing.T) {
	recs := withSlabLadder(nil)
	joiner := local.New(local.Bundled, local.Options{Params: params(0.6), Window: window.Unbounded{}})
	tp := resultEdge(1, &sourceSpout{recs: recs}, joiner, panicSink{})
	type outcome struct {
		rep *stream.Report
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		rep, err := tp.Run()
		done <- outcome{rep, err}
	}()
	select {
	case o := <-done:
		if o.err == nil || !strings.Contains(o.err.Error(), "sink boom") {
			t.Fatalf("run error %v, want the sink's panic", o.err)
		}
		if made := o.rep.Bolts["worker"][0].(*workerBolt).slabsMade; made <= 3 {
			t.Fatalf("the worker made %d slabs: it never ran past its ring of 3", made)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run still going 30 s after the sink panicked: the worker is waiting for a slab")
	}
}

// TestSlabRingBoundsAllocation: the ring holds everything that can be in
// flight, so a whole run makes at most queue capacity + 2 slabs per worker
// however many it ships.
func TestSlabRingBoundsAllocation(t *testing.T) {
	p := params(0.8)
	recs := workload.NewGenerator(workload.AOLLike(7)).Generate(50_000)
	const queueCap = 16 // run()'s default for the default batch size
	res, err := Run(recs, Config{
		Workers: 2, Strategy: strategies(p, recs, 2)[0],
		Algorithm: local.Bundled, Params: p, QueueCap: queueCap,
	})
	if err != nil {
		t.Fatal(err)
	}
	shipped := res.Report.EdgeTuples("worker", "sink")
	if shipped < 10*(queueCap+2) {
		t.Fatalf("degenerate run: only %d slabs shipped", shipped)
	}
	for _, b := range res.Report.Bolts["worker"] {
		w := b.(*workerBolt)
		if w.slabsMade < 1 || w.slabsMade > queueCap+2 {
			t.Fatalf("worker %d made %d slabs, want 1..%d (%d shipped by all workers)",
				w.task, w.slabsMade, queueCap+2, shipped)
		}
	}
}

// fanJoiner reports the same matches for every record: the result edge's
// load without a join behind it.
type fanJoiner struct {
	local.Joiner
	matches []local.Match
}

func (j *fanJoiner) Step(_ *record.Record, _ bool, emit func(local.Match)) {
	for _, m := range j.matches {
		emit(m)
	}
}

// repeatSpout emits one tuple n times.
type repeatSpout struct {
	t *RecTuple
	n int
}

func (s *repeatSpout) Next() (stream.Tuple, bool) {
	if s.n == 0 {
		return nil, false
	}
	s.n--
	return s.t, true
}

// BenchmarkResultEdge drives a real worker bolt that emits 24 pairs per
// record (aol_engine's rate) through the real edge into the real sink. One
// op is one record; the topology's set-up is spread over b.N, so the
// steady state reads 0 allocs/op.
func BenchmarkResultEdge(b *testing.B) {
	const pairsPerRec = 24
	probe := &record.Record{ID: 1 << 40}
	joiner := &fanJoiner{matches: make([]local.Match, pairsPerRec)}
	for i := range joiner.matches {
		joiner.matches[i] = local.Match{Rec: &record.Record{ID: record.ID(i)}, ID: record.ID(i), Sim: 1}
	}
	sink := &sinkBolt{}
	tp := resultEdge(16, &repeatSpout{t: &RecTuple{Rec: probe}, n: b.N}, joiner, sink)
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := tp.Run(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	if want := uint64(b.N) * pairsPerRec; sink.count != want {
		b.Fatalf("sink counted %d pairs, want %d", sink.count, want)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*pairsPerRec), "ns/pair")
}
