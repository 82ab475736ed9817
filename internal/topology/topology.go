// Package topology assembles the distributed streaming set-similarity join:
// a source spout replaying the record stream, a dispatcher bolt applying a
// distribution strategy, worker bolts hosting local joiners, and a sink
// collecting result pairs and latency. It is the glue between the stream
// engine substrate and the join algorithms, and the unit the experiment
// harness runs.
package topology

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/bundle"
	"repro/internal/checkpoint"
	"repro/internal/dispatch"
	"repro/internal/filter"
	"repro/internal/local"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/record"
	"repro/internal/stream"
	"repro/internal/window"
)

// RecTuple carries one record from source through dispatcher to workers.
// Enq is the ingestion wall-clock time used for latency measurement; Right
// marks the record's stream side in two-stream (R⋈S) runs and is always
// false for self-joins.
type RecTuple struct {
	Rec   *record.Record
	Enq   time.Time
	Right bool
	// Trace is non-nil on the 1-in-N tuples the run's Tracer sampled; each
	// stage appends its span to it. Nil on the unsampled fast path.
	Trace *obs.Trace
}

// SizeBytes approximates the wire size: record header (id + time + length)
// plus 4 bytes per token.
func (t *RecTuple) SizeBytes() int { return 24 + 4*len(t.Rec.Tokens) }

// recSlab hands out RecTuples in chunks so spouts pay one allocation per
// chunk instead of one interface-boxing allocation per record. Tuples are
// never recycled — a chunk is garbage once its last tuple is processed —
// so the slab needs no synchronization beyond the single spout goroutine.
type recSlab struct {
	chunk []RecTuple
}

const recSlabChunk = 256

func (s *recSlab) get() *RecTuple {
	if len(s.chunk) == 0 {
		s.chunk = make([]RecTuple, recSlabChunk)
	}
	rt := &s.chunk[0]
	s.chunk = s.chunk[1:]
	return rt
}

// resultSlab carries a run of verified join pairs from one worker to the
// sink: one tuple, one channel send and one update of the edge counters
// per slab, not per pair (at 24 results a record the per-pair costs were a
// third of a worker's time). The owning worker appends pairs up to
// slabPairs, emits the slab, and must not touch it again; the sink reads
// it, empties it and hands it back on home.
type resultSlab struct {
	pairs []record.Pair
	// lineages lists the sampled pairs among pairs. Untraced pairs (all of
	// them on an untraced run) carry no trace words at all.
	lineages []lineage
	// home is the owning worker's ring of free slabs.
	home chan *resultSlab
}

// lineage is the sampled trace of one result pair on its way to the sink:
// the deliver span the sink writes hangs off the worker's verify span.
type lineage struct {
	trace      *obs.Trace
	verifySpan int
}

// SizeBytes implements stream.Tuple: 24 bytes a pair, as a tuple per pair
// cost, so the worker → sink byte counter reads the same.
func (s *resultSlab) SizeBytes() int { return 24 * len(s.pairs) }

const (
	// slabPairs is the fixed capacity of a result slab, so appending a pair
	// never grows it.
	slabPairs = 256
	// slabShipMark is the fill at which the end of an input batch ships a
	// partial slab: one channel send per 64 results, the cadence of the
	// engine's default transport batch, so a sparse result stream does not
	// wake the sink for every few pairs.
	slabShipMark = 64
)

// Config specifies one join topology run.
type Config struct {
	// Workers is the joiner parallelism (required, >= 1).
	Workers int
	// Strategy distributes records to workers (required).
	Strategy dispatch.Strategy
	// Algorithm selects the local joiner (default Prefix).
	Algorithm local.Algorithm
	// Params are the join function and threshold (required).
	Params filter.Params
	// Window bounds join partners (default unbounded).
	Window window.Policy
	// Bundle tunes the Bundled algorithm.
	Bundle bundle.Config
	// QueueCap is the per-task queue capacity in transport batches
	// (default: enough batches to buffer ~1024 tuples).
	QueueCap int
	// BatchSize is the transport micro-batch size: tuples accumulated per
	// destination before a channel send (default 64; 1 disables batching).
	BatchSize int
	// CollectPairs keeps every result pair in memory (tests and small
	// runs); otherwise the sink only counts.
	CollectPairs bool
	// WireNsPerByte simulates cluster network cost: every worker burns
	// this many nanoseconds of CPU per received tuple byte before
	// processing it, modelling deserialization and NIC work that loopback
	// channels skip. Zero (default) disables the simulation; see
	// EXPERIMENTS.md E16 for calibration guidance.
	WireNsPerByte int
	// Parallelism sizes each worker's verifier pool: P-1 helper goroutines
	// per worker task fan candidate-bundle verification out across cores,
	// with results merged back in deterministic order so any P produces
	// the byte-identical result stream of a sequential run (Bundled
	// algorithm only; see bundle.ProbePar). 0 or 1 keeps workers strictly
	// single-threaded. Note the total goroutine budget is
	// Workers × Parallelism.
	Parallelism int
	// Dispatchers is the number of dispatcher tasks (default 1, at most
	// Workers). Every dispatcher routes every record and ships it only to
	// the workers it owns, w mod Dispatchers: the routing is repeated, only
	// the fan-out to destinations (queue pushes and batching) is split. Each
	// worker has one upstream FIFO edge and reads records in ID order, so
	// nothing is merged or lost.
	Dispatchers int
	// Registry, when set, receives the run's live metrics: engine edge and
	// task series plus per-worker record latency and joiner statistics.
	Registry *obs.Registry
	// Tracer, when set and enabled, samples tuple lineages end to end
	// (emit → dispatch → queue → process/verify → deliver).
	Tracer *obs.Tracer
	// Journal, when set, receives run lifecycle events from the stream
	// engine (run_start/run_end). Nil keeps the run silent.
	Journal *obs.Journal
	// Checkpoint captures every worker's window state at stream end into
	// Result.Checkpoints, one serialized checkpoint per task. Self-join
	// runs only.
	Checkpoint bool
	// Restore seeds worker joiners from a prior run's Result.Checkpoints
	// (one entry per task, in task order; empty entries start fresh). The
	// restoring run must use the same Workers, Strategy, Algorithm, Params,
	// Window and Bundle configuration, and its records must continue the
	// ID/time sequence of the checkpointed stream. Self-join runs only.
	Restore [][]byte
}

func (c Config) validate() error {
	if c.Workers < 1 {
		return fmt.Errorf("topology: Workers must be >= 1, got %d", c.Workers)
	}
	if c.Strategy == nil {
		return fmt.Errorf("topology: Strategy is required")
	}
	if c.Params.Threshold <= 0 {
		return fmt.Errorf("topology: Params.Threshold must be positive")
	}
	return nil
}

// Result summarizes one completed run.
type Result struct {
	// Results is the number of verified pairs emitted.
	Results uint64
	// Pairs holds the result pairs when Config.CollectPairs was set.
	Pairs []record.Pair
	// Records is the number of source records processed.
	Records uint64
	// Elapsed is the topology wall time; Throughput derives from it.
	Elapsed time.Duration
	// CommTuples and CommBytes count dispatcher→worker traffic — the
	// simulated network cost of the distribution strategy.
	CommTuples, CommBytes uint64
	// StoredCopies sums records indexed across workers (replication).
	StoredCopies uint64
	// WorkerCosts are per-worker join work counters, for load analysis.
	WorkerCosts []local.Cost
	// Latency aggregates per-record processing latency across workers
	// (enqueue at source to completion of the record's probe).
	Latency metrics.Latency
	// Report is the raw engine report.
	Report *stream.Report
	// Checkpoints holds each worker's serialized window state when
	// Config.Checkpoint was set (index = task). Feed it to a later run's
	// Config.Restore to continue the stream where this run stopped.
	Checkpoints [][]byte
}

// Throughput returns the end-to-end record rate.
func (r *Result) Throughput() metrics.Throughput {
	return metrics.Throughput{Records: r.Records, Elapsed: r.Elapsed}
}

// sourceSpout replays a slice of records, stamping ingestion time; right
// holds each record's side on two-stream runs and is nil on self-joins.
// When a tracer is attached it asks for a sample per record: the unsampled
// path is one atomic add, the sampled one starts the tuple's lineage with
// an emit span.
type sourceSpout struct {
	recs   []*record.Record
	right  []bool
	i      int
	tracer *obs.Tracer
	slab   recSlab
}

// Next implements stream.Spout.
func (s *sourceSpout) Next() (stream.Tuple, bool) {
	if s.i >= len(s.recs) {
		return nil, false
	}
	rt := s.slab.get()
	rt.Rec, rt.Enq = s.recs[s.i], time.Now()
	if s.right != nil {
		rt.Right = s.right[s.i]
	}
	s.i++
	if tr := s.tracer.Sample(); tr != nil {
		tr.Append("emit", "source", 0, -1, rt.Enq, rt.Enq)
		rt.Trace = tr
	}
	return rt, true
}

// dispatcherBolt forwards records; routing happens in the grouping between
// dispatcher and workers, mirroring how Storm topologies separate the
// routing decision (grouping) from operator logic. traced gates the
// per-tuple type assertion so untraced runs forward with zero overhead.
type dispatcherBolt struct {
	task   int
	traced bool
}

// Execute implements stream.Bolt. Every dispatcher sees every record; the
// first to reach a sampled one records its dispatch span, and each records
// or finds it before passing the tuple on, so it precedes every worker span.
func (d dispatcherBolt) Execute(t stream.Tuple, em stream.Emitter) {
	if d.traced {
		if rt := t.(*RecTuple); rt.Trace != nil {
			rt.Trace.AppendOnce("dispatch", "dispatcher", d.task, time.Now())
		}
	}
	em.Emit(t)
}

// ownedRoute is the dispatcher → worker grouping: the strategy's route,
// kept to the workers w with w mod d equal to the producing dispatcher. A
// worker's one dispatcher receives the whole stream in source order over a
// FIFO edge and forwards it over another, so the worker sees IDs in order.
// With d = 1 the filter keeps every destination.
type ownedRoute struct {
	strat dispatch.Strategy
	d     int
}

// NewSelector implements stream.Grouping: dispatcher 0's selector.
func (g *ownedRoute) NewSelector(ntasks int) stream.Selector { return g.NewProducerSelector(0, ntasks) }

// NewProducerSelector implements stream.ProducerGrouping.
func (g *ownedRoute) NewProducerSelector(j, ntasks int) stream.Selector {
	return stream.PartitionFunc(func(t stream.Tuple, n int, buf []int) []int {
		start := len(buf)
		buf = g.strat.Route(t.(*RecTuple).Rec, n, buf)
		own := buf[:start]
		for _, w := range buf[start:] {
			if w%g.d == j {
				own = append(own, w)
			}
		}
		return own
	}).NewSelector(ntasks)
}

// workerBolt hosts one local joiner and applies the strategy's store and
// emit arbitration.
type workerBolt struct {
	task   int
	k      int
	strat  dispatch.Strategy
	joiner local.Joiner
	lat    metrics.Latency
	// slat replaces lat on instrumented runs so scrapes can snapshot the
	// histogram while the worker goroutine observes.
	slat      *metrics.SyncLatency
	stored    uint64
	results   uint64
	wirePerB  int
	wireBurnt time.Duration
	// bi replaces joiner in two-stream runs.
	bi *local.BiJoiner
	// emitFn is the per-match callback handed to the joiner, bound once at
	// construction; cur* carry the record under probe so the hot path does
	// not allocate a fresh closure per record. Bolts run single-threaded,
	// so the fields need no locking.
	emitFn       func(local.Match)
	curRec       *record.Record
	curTrace     *obs.Trace
	curQueueSpan int
	curEm        stream.Emitter
	// slab is the result slab being filled (nil between slabs). free is the
	// ring the sink returns emptied slabs on; it holds everything that can
	// be in flight at once — the sink's queue, the slab the sink is reading
	// and the one being filled — so the steady state allocates nothing, and
	// neither side ever blocks on it: the worker makes a slab when the ring
	// is empty, the sink drops one when it is full. A sink that died and
	// returns nothing therefore costs allocations, never a deadlock.
	slab *resultSlab
	free chan *resultSlab
	// newSlab makes a slab when the ring is empty. It is a function value so
	// that the allocation stays off takeSlab's static zero-alloc call graph;
	// slabsMade counts its calls.
	newSlab   func() *resultSlab
	slabsMade int
}

// newWorkerBolt returns a worker without a joiner; sinkQueueCap sizes its
// slab ring.
func newWorkerBolt(task, k int, strat dispatch.Strategy, sinkQueueCap int) *workerBolt {
	w := &workerBolt{
		task:  task,
		k:     k,
		strat: strat,
		free:  make(chan *resultSlab, sinkQueueCap+2), // queue + one at the sink + one being filled
	}
	w.emitFn = w.emitMatch
	w.newSlab = func() *resultSlab {
		w.slabsMade++
		return &resultSlab{pairs: make([]record.Pair, 0, slabPairs), home: w.free}
	}
	return w
}

// burn spins the CPU for roughly d, standing in for per-tuple network and
// deserialization work on a real cluster.
func burn(d time.Duration) {
	if d <= 0 {
		return
	}
	end := time.Now().Add(d)
	for time.Now().Before(end) {
	}
}

// Execute implements stream.Bolt for a lone tuple: a transport batch of
// one record.
func (w *workerBolt) Execute(t stream.Tuple, em stream.Emitter) {
	w.step(t, em)
	w.shipSlab(em, slabShipMark)
}

// ExecuteBatch implements stream.BatchBolt: a whole transport batch of
// records streams through the worker in one call, in order. This is the
// engine→pool handoff: the verifier pool sees back-to-back records
// without a per-tuple trip through the executor loop, so its helpers
// stay warm across a batch. The batch's results leave with it once they
// are worth a channel send.
func (w *workerBolt) ExecuteBatch(ts []stream.Tuple, em stream.Emitter) {
	for _, t := range ts {
		w.step(t, em)
	}
	w.shipSlab(em, slabShipMark)
}

// step joins one record: probe (always), store when the strategy assigns
// the record here, and emit deduplicated results. The worker's one
// dispatcher delivers records in ID order, as eviction and the probe need.
func (w *workerBolt) step(t stream.Tuple, em stream.Emitter) {
	rt := t.(*RecTuple)
	if w.wirePerB > 0 {
		d := time.Duration(w.wirePerB * rt.SizeBytes())
		burn(d)
		w.wireBurnt += d
	}
	w.process(rt, em)
}

// Flush ships whatever the last slab holds at stream end.
func (w *workerBolt) Flush(em stream.Emitter) { w.shipSlab(em, 1) }

// emitMatch is the joiner's per-match callback: strategy arbitration, then
// the pair goes into the current slab, which ships when full. It reads the
// record under probe from the cur* fields process() binds, so the same
// bound method value serves every record without a per-record closure
// allocation.
//
// hotpath: zero-alloc — one call per result pair; the slab has fixed
// capacity and comes from the ring.
func (w *workerBolt) emitMatch(m local.Match) {
	if !w.strat.Emits(w.curRec, m.Rec, w.task, w.k) {
		return
	}
	w.results++
	s := w.slab
	if s == nil {
		s = w.takeSlab()
		w.slab = s
	}
	s.pairs = append(s.pairs, record.NewPair(w.curRec.ID, m.ID, m.Sim))
	if w.curTrace != nil {
		now := time.Now()
		span := w.curTrace.Append("verify", "worker", w.task, w.curQueueSpan, now, now)
		s.lineages = append(s.lineages, lineage{trace: w.curTrace, verifySpan: span})
	}
	if len(s.pairs) == slabPairs {
		w.shipSlab(w.curEm, slabPairs)
	}
}

// takeSlab returns an empty slab: one the sink handed back if there is
// one, a fresh one otherwise. It never waits for the sink.
//
// hotpath: zero-alloc — the ring covers everything in flight, so newSlab
// runs only while the ring fills up at the start of a run.
func (w *workerBolt) takeSlab() *resultSlab {
	select {
	case s := <-w.free:
		return s
	default:
		return w.newSlab()
	}
}

// shipSlab emits the current slab if it holds at least min pairs.
func (w *workerBolt) shipSlab(em stream.Emitter, min int) {
	if s := w.slab; s != nil && len(s.pairs) >= min {
		w.slab = nil
		em.Emit(s)
	}
}

func (w *workerBolt) process(rt *RecTuple, em stream.Emitter) {
	r := rt.Rec
	store := w.strat.Stores(r, w.task, w.k)
	if store {
		w.stored++
	}
	// For a sampled tuple, close the queue span (source/dispatch emit to
	// worker receipt) before the join so the verify spans can hang off it.
	queueSpan := -1
	var pstart time.Time
	if rt.Trace != nil {
		parent, prev := rt.Trace.Tail()
		pstart = time.Now()
		queueSpan = rt.Trace.Append("queue", "worker", w.task, parent, prev, pstart)
	}
	w.curRec, w.curTrace, w.curQueueSpan, w.curEm = r, rt.Trace, queueSpan, em
	if w.bi != nil {
		w.bi.StepSide(r, rt.Right, store, w.emitFn)
	} else {
		w.joiner.Step(r, store, w.emitFn)
	}
	if rt.Trace != nil {
		rt.Trace.Append("process", "worker", w.task, queueSpan, pstart, time.Now())
	}
	if w.slat != nil {
		w.slat.Observe(time.Since(rt.Enq))
	} else {
		w.lat.Observe(time.Since(rt.Enq))
	}
}

// registerJoinerMetrics publishes the worker's joiner statistics to reg.
// Only the Bundled joiner has live counters; other joiners are covered by
// the engine-level task series.
func (w *workerBolt) registerJoinerMetrics(reg *obs.Registry, task int) {
	type livePublisher interface {
		PublishLive(*bundle.LiveStats)
	}
	lp, ok := w.joiner.(livePublisher)
	if !ok {
		return
	}
	ls := &bundle.LiveStats{}
	lp.PublishLive(ls)
	label := fmt.Sprintf("worker/%d", task)
	reg.CounterVec("bundle_records_total",
		"Records processed by a worker's bundle index.", "task").
		SetFunc(label, func() float64 { return float64(ls.Records.Load()) }) // obscheck: bounded — one series per worker task, capped by worker count
	reg.CounterVec("bundle_candidates_total",
		"Candidate members examined by a worker's bundle index.", "task").
		SetFunc(label, func() float64 { return float64(ls.Candidates.Load()) }) // obscheck: bounded — one series per worker task, capped by worker count
	reg.CounterVec("bundle_verified_total",
		"Candidates fully verified by a worker's bundle index.", "task").
		SetFunc(label, func() float64 { return float64(ls.Verified.Load()) }) // obscheck: bounded — one series per worker task, capped by worker count
	reg.CounterVec("bundle_results_total",
		"Matches emitted by a worker's bundle index.", "task").
		SetFunc(label, func() float64 { return float64(ls.Results.Load()) }) // obscheck: bounded — one series per worker task, capped by worker count
	reg.GaugeVec("bundle_live_members",
		"Records currently indexed by a worker's bundle index.", "task").
		SetFunc(label, func() float64 { return float64(ls.Members.Load()) }) // obscheck: bounded — one series per worker task, capped by worker count
	reg.GaugeVec("bundle_verify_hit_rate",
		"Fraction of verified candidates that produced a result.", "task").
		SetFunc(label, func() float64 { // obscheck: bounded — one series per worker task, capped by worker count
			v := ls.Verified.Load()
			if v == 0 {
				return 0
			}
			return float64(ls.Results.Load()) / float64(v)
		})
	reg.CounterVec("verify_kernel_linear_total",
		"Verification merges run by the linear intersection kernel.", "task").
		SetFunc(label, func() float64 { return float64(ls.KernelLinear.Load()) }) // obscheck: bounded — one series per worker task, capped by worker count
	reg.CounterVec("verify_kernel_gallop_total",
		"Verification merges run by the galloping intersection kernel.", "task").
		SetFunc(label, func() float64 { return float64(ls.KernelGallop.Load()) }) // obscheck: bounded — one series per worker task, capped by worker count
	reg.CounterVec("verify_candidates_pruned_total",
		"Candidates discarded by upper-bound checks before any kernel ran.", "task").
		SetFunc(label, func() float64 { return float64(ls.Pruned.Load()) }) // obscheck: bounded — one series per worker task, capped by worker count
}

// registerPoolMetrics publishes the worker's verifier-pool counters to
// reg: pool size, fanned vs serial probe rounds, idle helper wakeups, and
// per-context verified-candidate counts (the per-core work distribution).
// Only present when the joiner runs a parallel verifier pool.
func (w *workerBolt) registerPoolMetrics(reg *obs.Registry, task int) {
	type pooled interface {
		VerifyPool() *bundle.Pool
	}
	pj, ok := w.joiner.(pooled)
	if !ok {
		return
	}
	pool := pj.VerifyPool()
	if pool == nil {
		return
	}
	label := fmt.Sprintf("worker/%d", task)
	reg.GaugeVec("verify_pool_size",
		"Verifier pool parallelism of a worker task (helpers + caller).", "task").
		SetFunc(label, func() float64 { return float64(pool.Size()) }) // obscheck: bounded — one series per worker task, capped by worker count
	reg.CounterVec("verify_pool_parallel_rounds_total",
		"Probes whose candidate verification was fanned across the pool.", "task").
		SetFunc(label, func() float64 { return float64(pool.Snapshot().RoundsParallel) }) // obscheck: bounded — one series per worker task, capped by worker count
	reg.CounterVec("verify_pool_serial_rounds_total",
		"Probes kept on the calling goroutine (below the fanout cutoff).", "task").
		SetFunc(label, func() float64 { return float64(pool.Snapshot().RoundsSerial) }) // obscheck: bounded — one series per worker task, capped by worker count
	reg.CounterVec("verify_pool_fanned_candidates_total",
		"Candidate bundles verified in fanned rounds.", "task").
		SetFunc(label, func() float64 { return float64(pool.Snapshot().Fanned) }) // obscheck: bounded — one series per worker task, capped by worker count
	reg.CounterVec("verify_pool_idle_stints_total",
		"Helper wakeups that found the candidate cursor already drained.", "task").
		SetFunc(label, func() float64 { return float64(pool.Snapshot().IdleStints) }) // obscheck: bounded — one series per worker task, capped by worker count
	verified := reg.CounterVec("verify_pool_ctx_verified_total",
		"Candidate bundles verified by one verifier context of a worker's pool.", "ctx")
	for i := 0; i < pool.Size(); i++ {
		i := i
		verified.SetFunc(fmt.Sprintf("%s/ctx/%d", label, i), // obscheck: bounded — one series per verifier context, capped by pool size
			func() float64 { return float64(pool.CtxVerified(i)) })
	}
}

// sinkBolt counts (and optionally keeps) result pairs.
type sinkBolt struct {
	collect bool
	count   uint64
	pairs   []record.Pair
}

// Execute implements stream.Bolt: read the slab, empty it and hand it back
// to its worker. Traced pairs get their terminal deliver span; the lineage
// entries must be cleared before the slab goes home so a recycled slab does
// not resurrect (or pin) a trace.
//
// hotpath: zero-alloc — one call per slab; the hand-back never blocks, a
// full ring just drops the slab.
func (s *sinkBolt) Execute(t stream.Tuple, _ stream.Emitter) {
	slab := t.(*resultSlab)
	s.count += uint64(len(slab.pairs))
	if s.collect {
		s.pairs = append(s.pairs, slab.pairs...)
	}
	if len(slab.lineages) > 0 {
		now := time.Now()
		for _, l := range slab.lineages {
			l.trace.Append("deliver", "sink", 0, l.verifySpan, now, now)
		}
		clear(slab.lineages)
		slab.lineages = slab.lineages[:0]
	}
	slab.pairs = slab.pairs[:0]
	select {
	case slab.home <- slab:
	default:
	}
}

// Run executes one self-join over the record slice and returns the
// summary.
func Run(recs []*record.Record, cfg Config) (*Result, error) {
	// The checkpoint cursor continues the stream's own stamping: the next
	// run's records follow the last ID and tick this run consumed.
	var cur checkpoint.Cursor
	if n := len(recs); n > 0 {
		cur = checkpoint.Cursor{NextID: uint64(recs[n-1].ID) + 1, NextTime: recs[n-1].Time + 1}
	}
	return run(cfg, recs, nil, cur)
}

// RunBi executes one two-stream (R⋈S) join: right[i] is the stream side of
// recs[i], and each record matches only stored records of the opposite
// side. Record IDs must be globally increasing in arrival order, exactly as
// for Run.
func RunBi(recs []*record.Record, right []bool, cfg Config) (*Result, error) {
	if len(right) != len(recs) {
		return nil, fmt.Errorf("topology: RunBi has %d sides for %d records", len(right), len(recs))
	}
	if right == nil {
		right = []bool{} // non-nil marks the run two-sided
	}
	return run(cfg, recs, right, checkpoint.Cursor{})
}

// run builds and executes the topology; right is nil on self-joins.
func run(cfg Config, recs []*record.Record, right []bool, cur checkpoint.Cursor) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	bi := right != nil
	if bi && (cfg.Checkpoint || len(cfg.Restore) > 0) {
		return nil, fmt.Errorf("topology: Checkpoint/Restore support self-join runs only")
	}
	if cfg.Window == nil {
		cfg.Window = window.Unbounded{}
	}

	k := cfg.Workers
	route := &ownedRoute{strat: cfg.Strategy, d: min(max(cfg.Dispatchers, 1), k)}
	batchSize := cfg.BatchSize
	if batchSize <= 0 {
		batchSize = stream.DefaultBatchSize
	}
	// Queue capacity counts batches; the default keeps the buffered-tuple
	// budget (~1024 per queue) of the unbatched engine.
	queueCap := cfg.QueueCap
	if queueCap <= 0 {
		queueCap = max((1024+batchSize-1)/batchSize, 4)
	}

	streamOpts := []stream.Option{stream.WithBatchSize(batchSize)}
	if cfg.Registry != nil {
		streamOpts = append(streamOpts, stream.WithRegistry(cfg.Registry))
	}
	if cfg.Journal != nil {
		streamOpts = append(streamOpts, stream.WithJournal(cfg.Journal))
	}
	tp := stream.New("ssjoin-"+cfg.Strategy.Name(), queueCap, streamOpts...)
	tp.AddSpout("source", func(int) stream.Spout {
		return &sourceSpout{recs: recs, right: right, tracer: cfg.Tracer}
	}, 1)
	traced := cfg.Tracer.Enabled()
	tp.AddBolt("dispatcher", func(task int) stream.Bolt {
		return dispatcherBolt{task: task, traced: traced}
	}, route.d).SubscribeTo("source", stream.Broadcast{})

	jopts := local.Options{
		Params:      cfg.Params,
		Window:      cfg.Window,
		Bundle:      cfg.Bundle,
		Parallelism: cfg.Parallelism,
	}
	// Parallel joiners own helper goroutines; every joiner the run creates
	// is released on the way out, error paths included. Bolt factories run
	// serially during materialization, so the append needs no lock.
	var owned []interface{ Close() error }
	defer func() {
		for _, c := range owned {
			c.Close()
		}
	}()
	// Restore happens before topology construction so a corrupt checkpoint
	// fails the run cleanly instead of inside a bolt factory.
	var restored []local.Joiner
	if len(cfg.Restore) > 0 {
		if len(cfg.Restore) != k {
			return nil, fmt.Errorf("topology: Restore has %d checkpoints for %d workers", len(cfg.Restore), k)
		}
		restored = make([]local.Joiner, k)
		for i, b := range cfg.Restore {
			j := local.New(cfg.Algorithm, jopts)
			if c, ok := j.(interface{ Close() error }); ok {
				owned = append(owned, c)
			}
			if len(b) > 0 {
				if _, _, err := checkpoint.Read(bytes.NewReader(b), j); err != nil {
					return nil, fmt.Errorf("topology: restoring worker %d: %w", i, err)
				}
			}
			restored[i] = j
		}
	}
	tp.AddBolt("worker", func(task int) stream.Bolt {
		w := newWorkerBolt(task, k, cfg.Strategy, queueCap)
		w.wirePerB = cfg.WireNsPerByte
		switch {
		case bi:
			w.bi = local.NewBi(cfg.Algorithm, jopts)
			owned = append(owned, w.bi)
		case restored != nil:
			w.joiner = restored[task]
		default:
			w.joiner = local.New(cfg.Algorithm, jopts)
			if c, ok := w.joiner.(interface{ Close() error }); ok {
				owned = append(owned, c)
			}
		}
		if cfg.Registry != nil {
			w.slat = &metrics.SyncLatency{}
			cfg.Registry.HistogramVec("worker_record_seconds",
				"Per-record latency observed at a worker: source enqueue to probe completion.", "task").
				SetFunc(fmt.Sprintf("worker/%d", task), w.slat.Snapshot) // obscheck: bounded — one series per worker task, capped by worker count
			w.registerJoinerMetrics(cfg.Registry, task)
			w.registerPoolMetrics(cfg.Registry, task)
		}
		return w
	}, k).SubscribeTo("dispatcher", route)

	// A result slab is already a batch: it ships when the worker emits it.
	tp.AddBolt("sink", func(int) stream.Bolt {
		return &sinkBolt{collect: cfg.CollectPairs}
	}, 1).SubscribeUnbatched("worker", stream.Shuffle{})

	rep, err := tp.Run()
	if err != nil {
		return nil, err
	}

	res := &Result{
		Records: uint64(len(recs)),
		Elapsed: rep.Elapsed,
		Report:  rep,
	}
	res.CommTuples = rep.EdgeTuples("dispatcher", "worker")
	if e, ok := rep.Edges[stream.EdgeKey{From: "dispatcher", To: "worker"}]; ok {
		res.CommBytes = e.Bytes.Load()
	}
	if cfg.Checkpoint {
		res.Checkpoints = make([][]byte, k)
	}
	for i, b := range rep.Bolts["worker"] {
		w := b.(*workerBolt)
		if cfg.Checkpoint {
			var buf bytes.Buffer
			if err := checkpoint.Write(&buf, cur, w.joiner); err != nil {
				return nil, fmt.Errorf("topology: checkpointing worker %d: %w", i, err)
			}
			res.Checkpoints[i] = buf.Bytes()
		}
		if w.bi != nil {
			res.WorkerCosts = append(res.WorkerCosts, w.bi.Cost())
		} else {
			res.WorkerCosts = append(res.WorkerCosts, w.joiner.Cost())
		}
		res.StoredCopies += w.stored
		if w.slat != nil {
			snap := w.slat.Snapshot()
			res.Latency.Merge(&snap)
		} else {
			res.Latency.Merge(&w.lat)
		}
	}
	sink := rep.Bolts["sink"][0].(*sinkBolt) // the topology has one sink task
	res.Results, res.Pairs = sink.count, sink.pairs
	return res, nil
}
