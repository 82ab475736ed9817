// Package topology assembles the distributed streaming set-similarity join:
// a source spout replaying the record stream, a dispatcher bolt applying a
// distribution strategy, and worker bolts hosting local joiners, each of
// which keeps its own result pairs and latency. It is the glue between the
// stream engine substrate and the join algorithms, and the unit the
// experiment harness runs.
package topology

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/bundle"
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
}

func (c Config) validate() error {
	if c.Workers < 1 {
		return fmt.Errorf("topology: Workers must be >= 1, got %d", c.Workers)
	}
	if c.Strategy == nil {
		return fmt.Errorf("topology: Strategy is required")
	}
	if err := c.Params.Validate(); err != nil {
		return fmt.Errorf("topology: %w", err)
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
}

// Throughput returns the end-to-end record rate.
func (r *Result) Throughput() metrics.Throughput {
	return metrics.Throughput{Records: r.Records, Elapsed: r.Elapsed}
}

// sourceSpout replays a slice of records, stamping ingestion time; right
// holds each record's side on two-stream runs and is nil on self-joins.
type sourceSpout struct {
	recs  []*record.Record
	right []bool
	i     int
	slab  recSlab
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
	return rt, true
}

// dispatcherBolt forwards records; routing happens in the grouping between
// dispatcher and workers, mirroring how Storm topologies separate the
// routing decision (grouping) from operator logic.
type dispatcherBolt struct{}

// Execute implements stream.Bolt.
func (dispatcherBolt) Execute(t stream.Tuple, em stream.Emitter) { em.Emit(t) }

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
	// mu is held for a whole transport batch, so a scrape reads the joiner's
	// counters and lat between batches. Only scrapes contend for it.
	mu        sync.Mutex
	task      int
	k         int
	strat     dispatch.Strategy
	joiner    local.Joiner
	lat       metrics.Latency
	stored    uint64
	results   uint64
	wirePerB  int
	wireBurnt time.Duration
	// bi replaces joiner in two-stream runs.
	bi *local.BiJoiner
	// emitFn is the per-match callback handed to the joiner, bound once at
	// construction; curRec carries the record under probe so the hot path does
	// not allocate a fresh closure per record. Bolts run single-threaded,
	// so the fields need no locking. It is nil when the joiner only counts.
	emitFn func(local.Match)
	curRec *record.Record
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
func (w *workerBolt) Execute(t stream.Tuple, em stream.Emitter) {
	w.ExecuteBatch([]stream.Tuple{t}, em)
}

// ExecuteBatch implements stream.BatchBolt: a whole transport batch of
// records streams through the worker in one call, in order, without a
// per-tuple trip through the executor loop.
func (w *workerBolt) ExecuteBatch(ts []stream.Tuple, _ stream.Emitter) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, t := range ts {
		w.step(t.(*RecTuple))
	}
}

// emitMatch is the joiner's per-match callback: strategy arbitration, then
// the worker counts the pair and, when collecting, keeps it. It reads the
// record under probe from the curRec field step binds, so the same bound
// method value serves every record without a per-record closure
// allocation.
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
	w.curRec = r
	var n int
	if w.bi != nil {
		n = w.bi.StepSide(r, rt.Right, store, w.emitFn)
	} else {
		n = w.joiner.Step(r, store, w.emitFn)
	}
	if w.emitFn == nil {
		w.results += uint64(n)
	}
	w.lat.Observe(time.Since(rt.Enq))
}

// registerMetrics binds the worker's series to reg. Every reader takes mu
// and reads the joiner's own counters or lat, so a value trails the worker
// by less than one batch and the fields of one read are from one instant.
// Only the Bundled joiner has bundle series; other joiners are covered by
// the engine-level task series.
func (w *workerBolt) registerMetrics(reg *obs.Registry) {
	label := fmt.Sprintf("worker/%d", w.task)
	reg.HistogramVec("worker_record_seconds",
		"Per-record latency observed at a worker: source enqueue to probe completion.", "task").
		SetFunc(label, func() metrics.Latency {
			w.mu.Lock()
			defer w.mu.Unlock()
			return w.lat
		})
	bj, ok := w.joiner.(interface{ BundleStats() bundle.Stats })
	if !ok {
		return
	}
	read := func() (bundle.Stats, local.Cost) {
		w.mu.Lock()
		defer w.mu.Unlock()
		return bj.BundleStats(), w.joiner.Cost()
	}
	reg.CounterVec("bundle_records_total", "Records processed by a worker's bundle index.", "task").
		SetFunc(label, func() float64 { _, c := read(); return float64(c.Probes) })
	reg.CounterVec("bundle_candidates_total", "Candidate members examined by a worker's bundle index.", "task").
		SetFunc(label, func() float64 { s, _ := read(); return float64(s.MemberChecks) })
	reg.CounterVec("bundle_verified_total", "Candidates fully verified by a worker's bundle index.", "task").
		SetFunc(label, func() float64 { s, _ := read(); return float64(s.Verified) })
	reg.CounterVec("bundle_results_total",
		"Matches found by a worker's bundle index, before the strategy's emit arbitration.", "task").
		SetFunc(label, func() float64 { s, _ := read(); return float64(s.Results) })
	reg.GaugeVec("bundle_live_members", "Records currently indexed by a worker's bundle index.", "task").
		SetFunc(label, func() float64 { s, _ := read(); return float64(s.LiveMembers) })
	reg.GaugeVec("bundle_verify_hit_rate", "Fraction of verified candidates that produced a result.", "task").
		SetFunc(label, func() float64 {
			s, _ := read()
			if s.Verified == 0 {
				return 0
			}
			return float64(s.Results) / float64(s.Verified)
		})
	reg.CounterVec("verify_kernel_linear_total",
		"Verification merges run by the linear intersection kernel.", "task").
		SetFunc(label, func() float64 { s, _ := read(); return float64(s.KernelLinear) })
	reg.CounterVec("verify_kernel_gallop_total",
		"Verification merges run by the galloping intersection kernel.", "task").
		SetFunc(label, func() float64 { s, _ := read(); return float64(s.KernelGallop) })
	reg.CounterVec("verify_candidates_pruned_total",
		"Candidates discarded by upper-bound checks before any kernel ran.", "task").
		SetFunc(label, func() float64 { s, _ := read(); return float64(s.Pruned()) })
}

// Run executes one self-join over the record slice and returns the
// summary.
func Run(recs []*record.Record, cfg Config) (*Result, error) {
	return run(cfg, recs, nil)
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
	return run(cfg, recs, right)
}

// run builds and executes the topology; right is nil on self-joins.
func run(cfg Config, recs []*record.Record, right []bool) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	bi := right != nil
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
	tp := stream.New("ssjoin-"+cfg.Strategy.Name(), queueCap, streamOpts...)
	tp.AddSpout("source", func(int) stream.Spout {
		return &sourceSpout{recs: recs, right: right}
	}, 1)
	tp.AddBolt("dispatcher", func(int) stream.Bolt { return dispatcherBolt{} }, route.d).
		SubscribeTo("source", stream.Broadcast{})

	jopts := local.Options{Params: cfg.Params, Window: cfg.Window, Bundle: cfg.Bundle}
	tp.AddBolt("worker", func(task int) stream.Bolt {
		w := &workerBolt{task: task, k: k, strat: cfg.Strategy, wirePerB: cfg.WireNsPerByte, collect: cfg.CollectPairs}
		if cfg.CollectPairs || !dispatch.EmitsAll(cfg.Strategy) {
			w.emitFn = w.emitMatch
		}
		if bi {
			w.bi = local.NewBi(cfg.Algorithm, jopts)
		} else {
			w.joiner = local.New(cfg.Algorithm, jopts)
		}
		if cfg.Registry != nil {
			w.registerMetrics(cfg.Registry)
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
	for _, b := range rep.Bolts["worker"] {
		w := b.(*workerBolt)
		if w.bi != nil {
			res.WorkerCosts = append(res.WorkerCosts, w.bi.Cost())
		} else {
			res.WorkerCosts = append(res.WorkerCosts, w.joiner.Cost())
		}
		res.StoredCopies += w.stored
		res.Results += w.results
		res.Pairs = append(res.Pairs, w.pairs...)
		res.Latency.Merge(&w.lat)
	}
	return res, nil
}
