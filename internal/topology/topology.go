// Package topology assembles the distributed streaming set-similarity join:
// a source spout replaying the record stream, a dispatcher bolt applying a
// distribution strategy, and worker bolts hosting local joiners, each of
// which keeps its own result pairs and latency. It is the glue between the
// stream engine substrate and the join algorithms, and the unit the
// experiment harness runs.
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
	// runs); otherwise the workers only count.
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
	// (emit → dispatch → queue → process/verify).
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
	// Pairs holds the result pairs when Config.CollectPairs was set: worker
	// 0's pairs, then worker 1's, and so on, each in the order its worker
	// found them (probe order), so two runs of one configuration return
	// the same slice.
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

// workerBolt hosts one local joiner, applies the strategy's store and emit
// arbitration, and keeps its own results: it emits nothing downstream, and
// run reads its counts and pairs once the topology has finished.
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
	// pairs keeps the worker's results in the order it found them when
	// collect is set.
	collect bool
	pairs   []record.Pair
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
func (w *workerBolt) Execute(t stream.Tuple, _ stream.Emitter) { w.step(t.(*RecTuple)) }

// ExecuteBatch implements stream.BatchBolt: a whole transport batch of
// records streams through the worker in one call, in order. This is the
// engine→pool handoff: the verifier pool sees back-to-back records
// without a per-tuple trip through the executor loop, so its helpers
// stay warm across a batch.
func (w *workerBolt) ExecuteBatch(ts []stream.Tuple, _ stream.Emitter) {
	for _, t := range ts {
		w.step(t.(*RecTuple))
	}
}

// emitMatch is the joiner's per-match callback: strategy arbitration, then
// the worker counts the pair and, when collecting, keeps it. It reads the
// record under probe from the cur* fields step binds, so the same bound
// method value serves every record without a per-record closure
// allocation. A sampled record's lineage ends at its verify spans.
//
// One call per result pair; a collecting worker's pairs grow by amortized
// self-append only.
func (w *workerBolt) emitMatch(m local.Match) {
	if !w.strat.Emits(w.curRec, m.Rec, w.task, w.k) {
		return
	}
	w.results++
	if w.collect {
		w.pairs = append(w.pairs, record.NewPair(w.curRec.ID, m.ID, m.Sim))
	}
	if w.curTrace != nil {
		now := time.Now()
		w.curTrace.Append("verify", "worker", w.task, w.curQueueSpan, now, now)
	}
}

// step joins one record: probe (always), store when the strategy assigns
// the record here, and count deduplicated results. The worker's one
// dispatcher delivers records in ID order, as eviction and the probe need.
func (w *workerBolt) step(rt *RecTuple) {
	if w.wirePerB > 0 {
		d := time.Duration(w.wirePerB * rt.SizeBytes())
		burn(d)
		w.wireBurnt += d
	}
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
	w.curRec, w.curTrace, w.curQueueSpan = r, rt.Trace, queueSpan
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
		SetFunc(label, func() float64 { return float64(ls.Records.Load()) })
	reg.CounterVec("bundle_candidates_total",
		"Candidate members examined by a worker's bundle index.", "task").
		SetFunc(label, func() float64 { return float64(ls.Candidates.Load()) })
	reg.CounterVec("bundle_verified_total",
		"Candidates fully verified by a worker's bundle index.", "task").
		SetFunc(label, func() float64 { return float64(ls.Verified.Load()) })
	reg.CounterVec("bundle_results_total",
		"Matches found by a worker's bundle index, before the strategy's emit arbitration.", "task").
		SetFunc(label, func() float64 { return float64(ls.Results.Load()) })
	reg.GaugeVec("bundle_live_members",
		"Records currently indexed by a worker's bundle index.", "task").
		SetFunc(label, func() float64 { return float64(ls.Members.Load()) })
	reg.GaugeVec("bundle_verify_hit_rate",
		"Fraction of verified candidates that produced a result.", "task").
		SetFunc(label, func() float64 {
			v := ls.Verified.Load()
			if v == 0 {
				return 0
			}
			return float64(ls.Results.Load()) / float64(v)
		})
	reg.CounterVec("verify_kernel_linear_total",
		"Verification merges run by the linear intersection kernel.", "task").
		SetFunc(label, func() float64 { return float64(ls.KernelLinear.Load()) })
	reg.CounterVec("verify_kernel_gallop_total",
		"Verification merges run by the galloping intersection kernel.", "task").
		SetFunc(label, func() float64 { return float64(ls.KernelGallop.Load()) })
	reg.CounterVec("verify_candidates_pruned_total",
		"Candidates discarded by upper-bound checks before any kernel ran.", "task").
		SetFunc(label, func() float64 { return float64(ls.Pruned.Load()) })
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
		SetFunc(label, func() float64 { return float64(pool.Size()) })
	reg.CounterVec("verify_pool_parallel_rounds_total",
		"Probes whose candidate verification was fanned across the pool.", "task").
		SetFunc(label, func() float64 { return float64(pool.Snapshot().RoundsParallel) })
	reg.CounterVec("verify_pool_serial_rounds_total",
		"Probes kept on the calling goroutine (below the fanout cutoff).", "task").
		SetFunc(label, func() float64 { return float64(pool.Snapshot().RoundsSerial) })
	reg.CounterVec("verify_pool_fanned_candidates_total",
		"Candidate bundles verified in fanned rounds.", "task").
		SetFunc(label, func() float64 { return float64(pool.Snapshot().Fanned) })
	reg.CounterVec("verify_pool_idle_stints_total",
		"Helper wakeups that found the candidate cursor already drained.", "task").
		SetFunc(label, func() float64 { return float64(pool.Snapshot().IdleStints) })
	verified := reg.CounterVec("verify_pool_ctx_verified_total",
		"Candidate bundles verified by one verifier context of a worker's pool.", "ctx")
	for i := 0; i < pool.Size(); i++ {
		i := i
		verified.SetFunc(fmt.Sprintf("%s/ctx/%d", label, i),
			func() float64 { return float64(pool.CtxVerified(i)) })
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
		w := &workerBolt{task: task, k: k, strat: cfg.Strategy, wirePerB: cfg.WireNsPerByte, collect: cfg.CollectPairs}
		w.emitFn = w.emitMatch
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
				SetFunc(fmt.Sprintf("worker/%d", task), w.slat.Snapshot)
			w.registerJoinerMetrics(cfg.Registry, task)
			w.registerPoolMetrics(cfg.Registry, task)
		}
		return w
	}, k).SubscribeTo("dispatcher", route)

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
		res.Results += w.results
		res.Pairs = append(res.Pairs, w.pairs...)
		if w.slat != nil {
			snap := w.slat.Snapshot()
			res.Latency.Merge(&snap)
		} else {
			res.Latency.Merge(&w.lat)
		}
	}
	return res, nil
}
