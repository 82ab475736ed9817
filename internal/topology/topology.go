// Package topology assembles the distributed streaming set-similarity join
// and runs it on its own three-stage pipeline, the paper's Storm topology
// with only the wiring the join uses: one source goroutine sends chunks of
// BatchSize records to every dispatcher, each chunk stamped with one clock
// read; dispatcher j routes every record and ships pooled batches only to
// the workers it owns (w mod d = j), when full and, at its end, the tail; a
// batch carries the stamp of the chunk it opened in. Each worker steps
// whole batches through its local joiner, reads the clock once per batch
// and keeps its own results and latency: no clock is read per record. A
// worker's one dispatcher sends over the worker's one bounded FIFO
// channel, so the worker sees IDs in order; a full channel blocks its
// sender, so the pipeline is lossless. Counts reach shared atomics once
// per batch, never per tuple. A panic in a stage becomes Run's error
// naming the stage; the stage still closes its downstream and drains its
// input, so the run ends with no goroutine left.
package topology

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bundle"
	"repro/internal/dispatch"
	"repro/internal/filter"
	"repro/internal/local"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/record"
	"repro/internal/window"
)

// RecTuple carries one record from source through dispatcher to workers.
// Right marks the record's stream side in two-stream (R⋈S) runs and is
// always false for self-joins. The ingestion stamp is the chunk's, not the
// tuple's.
type RecTuple struct {
	Rec   *record.Record
	Right bool
}

// chunk is one source → dispatcher transport unit: up to BatchSize tuples
// and the one clock read the source took before filling them.
type chunk struct {
	tuples []RecTuple
	enq    time.Time
}

// now is the package's one clock. Every clock read of the engine goes
// through it, so a test can count them.
var now = time.Now

// SizeBytes approximates the wire size: record header (id + time + length)
// plus 4 bytes per token.
func (t *RecTuple) SizeBytes() int { return 24 + 4*len(t.Rec.Tokens) }

// defaultBatchSize is the transport micro-batch size unless
// Config.BatchSize sets one.
const defaultBatchSize = 64

// Config specifies one join topology run.
type Config struct {
	// Workers is the joiner parallelism (required, >= 1).
	Workers int
	// Strategy distributes records to workers (required).
	Strategy dispatch.Strategy
	// Algorithm selects the local joiner; the zero value is local.Naive, the
	// brute-force scan (newPipeline does not default it).
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
	// simulated network cost of the distribution strategy — and
	// CommBatches the channel sends that carried it.
	CommTuples, CommBytes, CommBatches uint64
	// StoredCopies sums records indexed across workers (replication).
	StoredCopies uint64
	// WorkerCosts are per-worker join work counters, for load analysis.
	WorkerCosts []local.Cost
	// Latency aggregates per-record processing latency across workers,
	// one observation per record a worker steps. A record's value is its
	// batch's: from the stamp of the source chunk the batch opened in to
	// the end of the worker's step of the whole batch. That bounds the
	// record's own enqueue-to-probe time from above, by at most the
	// batch's fill time (the stamps of its newest chunk minus its oldest)
	// plus its step time.
	Latency metrics.Latency

	// workers are the run's workers in task order, for tests.
	workers []*worker
}

// Throughput returns the end-to-end record rate.
func (r *Result) Throughput() metrics.Throughput {
	return metrics.Throughput{Records: r.Records, Elapsed: r.Elapsed}
}

// batch is one dispatcher → worker transport unit, recycled through the
// run's pool once its worker has stepped it.
type batch struct {
	items []*RecTuple
	bytes uint64 // the items' SizeBytes, summed
	// stamp is the source stamp of the chunk the batch opened in, its
	// oldest: copied, not read from a clock.
	stamp time.Time
	// enq is the batch's creation time, stamped on instrumented runs only,
	// so the worker can observe the batch's age at dequeue.
	enq time.Time
}

// edge counts the traffic over one edge between stages, the simulated
// network bill, as its producers send batches.
type edge struct {
	tuples, bytes, batches atomic.Uint64
}

// stage is one task's published work counts and, on an instrumented run,
// the clocks of its input batches: processing time and age at dequeue.
type stage struct {
	executed, emitted atomic.Uint64 // a worker emits nothing
	process, wait     metrics.SyncLatency
}

// pipeline is one run: the source's chunks go to every dispatcher, and
// dispatcher j's batches to the workers w with w mod d = j.
type pipeline struct {
	recs      []*record.Record
	right     []bool // each record's side on two-stream runs, nil on self-joins
	strat     dispatch.Strategy
	batchSize int       // the source's chunks and the dispatchers' batches
	clocked   bool      // instrumented run: stamp batches, time every stage's input
	pool      sync.Pool // of *batch, shared by every dispatcher and worker

	source       stage
	fed, shipped edge // source → dispatcher, dispatcher → worker
	dispatchers  []*dispatcher
	workers      []*worker

	wg   sync.WaitGroup
	mu   sync.Mutex
	errs []error // guarded by mu: one per stage that panicked
}

// newPipeline wires a run of a valid cfg over recs; right is nil on self-joins.
func newPipeline(cfg Config, recs []*record.Record, right []bool) *pipeline {
	if cfg.Window == nil {
		cfg.Window = window.Unbounded{}
	}
	k := cfg.Workers
	d := min(max(cfg.Dispatchers, 1), k)
	batchSize := cfg.BatchSize
	if batchSize <= 0 {
		batchSize = defaultBatchSize
	}
	// Queue capacity counts batches; the default buffers ~1024 tuples.
	queueCap := cfg.QueueCap
	if queueCap <= 0 {
		queueCap = max((1024+batchSize-1)/batchSize, 4)
	}
	p := &pipeline{recs: recs, right: right, strat: cfg.Strategy, batchSize: batchSize, clocked: cfg.Registry != nil}
	p.pool.New = func() any { return &batch{items: make([]*RecTuple, 0, batchSize)} }
	jopts := local.Options{Params: cfg.Params, Window: cfg.Window, Bundle: cfg.Bundle}
	for task := 0; task < k; task++ {
		p.workers = append(p.workers, &worker{task: task, wirePerB: cfg.WireNsPerByte,
			t:  dispatch.NewTask(cfg.Strategy, task, k, cfg.Algorithm, jopts, right != nil, cfg.CollectPairs),
			in: make(chan *batch, queueCap)})
	}
	for j := 0; j < d; j++ {
		p.dispatchers = append(p.dispatchers, &dispatcher{p: p, j: j,
			in: make(chan chunk, queueCap), pending: make([]*batch, k)})
	}
	if cfg.Registry != nil {
		p.registerMetrics(cfg.Registry)
	}
	return p
}

// feed is the source stage: it sends chunks of batchSize records to every
// dispatcher, each stamped once, before its records are filled in.
func (p *pipeline) feed() {
	d := uint64(len(p.dispatchers))
	var slab []RecTuple
	for i := 0; i < len(p.recs); i += p.batchSize {
		n := min(p.batchSize, len(p.recs)-i)
		if len(slab) < n { // a slab is garbage once its last tuple is stepped
			slab = make([]RecTuple, max(n, 256))
		}
		c := chunk{tuples: slab[:n:n], enq: now()}
		slab = slab[n:]
		var bytes uint64
		for j := range c.tuples {
			rt := &c.tuples[j]
			rt.Rec = p.recs[i+j]
			if p.right != nil {
				rt.Right = p.right[i+j]
			}
			bytes += uint64(rt.SizeBytes())
		}
		p.source.executed.Add(uint64(n))
		p.source.emitted.Add(uint64(n))
		p.fed.tuples.Add(d * uint64(n))
		p.fed.bytes.Add(d * bytes)
		p.fed.batches.Add(d)
		for _, dp := range p.dispatchers {
			dp.in <- c
		}
	}
}

// dispatcher is one routing task. pending holds the accumulating batch of
// each worker it owns and enq the stamp of the chunk under dispatch; its
// own goroutine is the only one to touch them.
type dispatcher struct {
	p       *pipeline
	j       int
	in      chan chunk
	enq     time.Time
	pending []*batch
	route   []int
	stats   stage
}

// dispatch routes one chunk's tuples, appending each record to the pending
// batch of every owned worker the strategy sends it to and shipping full
// batches. A batch it opens takes the chunk's stamp, dp.enq.
//
// One append per (record, owned destination); batches come from the pool.
func (dp *dispatcher) dispatch(tuples []RecTuple) {
	p := dp.p
	d := len(p.dispatchers)
	for i := range tuples {
		rt := &tuples[i]
		dp.route = p.strat.Route(rt.Rec, len(p.workers), dp.route[:0])
		for _, w := range dp.route {
			if w%d != dp.j {
				continue
			}
			b := dp.pending[w]
			if b == nil {
				b = p.pool.Get().(*batch)
				b.stamp = dp.enq
				if p.clocked {
					b.enq = now()
				}
				dp.pending[w] = b
			}
			b.items = append(b.items, rt)
			b.bytes += uint64(rt.SizeBytes())
			if len(b.items) == p.batchSize {
				dp.ship(w)
			}
		}
	}
	dp.stats.executed.Add(uint64(len(tuples)))
	dp.stats.emitted.Add(uint64(len(tuples)))
}

// ship sends worker w's pending batch. It counts the batch first, so the
// edge's counts never trail what a worker has seen.
func (dp *dispatcher) ship(w int) {
	b := dp.pending[w]
	dp.pending[w] = nil
	dp.p.shipped.tuples.Add(uint64(len(b.items)))
	dp.p.shipped.bytes.Add(b.bytes)
	dp.p.shipped.batches.Add(1)
	dp.p.workers[w].in <- b
}

// run drains the dispatcher's input, then ships every non-empty batch.
func (dp *dispatcher) run() {
	for c := range dp.in {
		var start time.Time
		if dp.p.clocked {
			start = now()
			dp.stats.wait.Observe(start.Sub(c.enq))
		}
		dp.enq = c.enq
		dp.dispatch(c.tuples)
		if dp.p.clocked {
			dp.stats.process.Observe(now().Sub(start))
		}
	}
	for w, b := range dp.pending {
		if b != nil {
			dp.ship(w)
		}
	}
}

// consume steps one batch through w and recycles it.
func (w *worker) consume(b *batch, p *pipeline) {
	var start time.Time
	if p.clocked {
		start = now()
		w.stats.wait.Observe(start.Sub(b.enq))
	}
	end := w.stepBatch(b.items, b.stamp)
	w.stats.executed.Add(uint64(len(b.items)))
	clear(b.items) // a pooled batch must not pin its records
	b.items, b.bytes = b.items[:0], 0
	p.pool.Put(b)
	if p.clocked {
		w.stats.process.Observe(end.Sub(start))
	}
}

// start runs body as one stage on a goroutine of its own. A panic in body
// is recorded as the run's error, named by the stage; done runs either way,
// closing the stage's downstream and draining its input so the neighbours
// finish.
func (p *pipeline) start(name string, i int, body, done func()) {
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		defer done()
		defer func() {
			if r := recover(); r != nil {
				p.mu.Lock()
				defer p.mu.Unlock()
				p.errs = append(p.errs, fmt.Errorf("topology: %s %d panicked: %v", name, i, r))
			}
		}()
		body()
	}()
}

// run starts every stage, waits for the last to end, and sums the workers.
func (p *pipeline) run() (*Result, error) {
	start := now()
	p.start("source", 0, p.feed, func() {
		for _, dp := range p.dispatchers {
			close(dp.in)
		}
	})
	for _, dp := range p.dispatchers {
		p.start("dispatcher", dp.j, dp.run, func() {
			for w := dp.j; w < len(p.workers); w += len(p.dispatchers) {
				close(p.workers[w].in)
			}
			for range dp.in {
			}
		})
	}
	for _, w := range p.workers {
		p.start("worker", w.task, func() {
			for b := range w.in {
				w.consume(b, p)
			}
		}, func() {
			for range w.in {
			}
		})
	}
	p.wg.Wait()
	if err := errors.Join(p.errs...); err != nil {
		return nil, err
	}
	res := &Result{
		Records:     uint64(len(p.recs)),
		Elapsed:     now().Sub(start),
		CommTuples:  p.shipped.tuples.Load(),
		CommBytes:   p.shipped.bytes.Load(),
		CommBatches: p.shipped.batches.Load(),
		workers:     p.workers,
	}
	for _, w := range p.workers {
		c := w.t.Cost()
		res.WorkerCosts = append(res.WorkerCosts, c)
		res.StoredCopies += c.Stored
		res.Results += w.t.Results()
		res.Pairs = append(res.Pairs, w.t.TakePairs()...)
		res.Latency.Merge(&w.lat)
	}
	return res, nil
}

// registerMetrics binds the run's engine series to reg: per edge its
// traffic, per task its work counts and, for dispatchers and workers, the
// queue depth and batch clocks; then each worker's own series.
func (p *pipeline) registerMetrics(reg *obs.Registry) {
	tuples := reg.CounterVec("stream_edge_tuples_total",
		"Tuples shipped over a topology edge.", "edge")
	bytes := reg.CounterVec("stream_edge_bytes_total",
		"Approximate wire bytes shipped over a topology edge.", "edge")
	batches := reg.CounterVec("stream_edge_batches_total",
		"Transport batches (channel sends) shipped over a topology edge.", "edge")
	occ := reg.GaugeVec("stream_edge_batch_occupancy",
		"Mean tuples per shipped batch on a topology edge.", "edge")
	for label, e := range map[string]*edge{"source->dispatcher": &p.fed, "dispatcher->worker": &p.shipped} {
		tuples.SetFunc(label, func() float64 { return float64(e.tuples.Load()) })
		bytes.SetFunc(label, func() float64 { return float64(e.bytes.Load()) })
		batches.SetFunc(label, func() float64 { return float64(e.batches.Load()) })
		occ.SetFunc(label, func() float64 { // mean tuples per batch, 0 before the first
			if b := e.batches.Load(); b > 0 {
				return float64(e.tuples.Load()) / float64(b)
			}
			return 0
		})
	}

	executed := reg.CounterVec("stream_task_executed_total",
		"Tuples executed by a task instance.", "task")
	emitted := reg.CounterVec("stream_task_emitted_total",
		"Tuples emitted by a task instance.", "task")
	depth := reg.GaugeVec("stream_queue_depth_batches",
		"Input queue depth of a task instance, in transport batches.", "task")
	procH := reg.HistogramVec("stream_process_seconds",
		"Per-batch processing time of a task instance.", "task")
	waitH := reg.HistogramVec("stream_queue_wait_seconds",
		"Age of a transport batch at dequeue: fill time plus queue wait.", "task")
	task := func(label string, s *stage, queued func() int) {
		executed.SetFunc(label, func() float64 { return float64(s.executed.Load()) })
		if queued == nil {
			return
		}
		depth.SetFunc(label, func() float64 { return float64(queued()) })
		procH.SetFunc(label, s.process.Snapshot)
		waitH.SetFunc(label, s.wait.Snapshot)
	}
	// Workers keep their results: only the source and the dispatchers emit.
	sender := func(label string, s *stage, queued func() int) {
		task(label, s, queued)
		emitted.SetFunc(label, func() float64 { return float64(s.emitted.Load()) })
	}
	sender("source/0", &p.source, nil)
	for _, dp := range p.dispatchers {
		sender(fmt.Sprintf("dispatcher/%d", dp.j), &dp.stats, func() int { return len(dp.in) })
	}
	for _, w := range p.workers {
		task(fmt.Sprintf("worker/%d", w.task), &w.stats, func() int { return len(w.in) })
		w.registerMetrics(reg)
	}
}

// worker steps its batches through its dispatch.Task, which stores, probes,
// arbitrates and keeps the results; run reads the task's counts and pairs
// once the pipeline has finished.
type worker struct {
	// mu is held for a whole transport batch, so a scrape reads the task's
	// counters and lat between batches. Only scrapes contend for it.
	mu        sync.Mutex
	task      int
	t         *dispatch.Task
	lat       metrics.Latency
	wirePerB  int
	wireBurnt time.Duration

	in    chan *batch // from the worker's one dispatcher
	stats stage
}

// burn spins the CPU for roughly d, standing in for per-tuple network and
// deserialization work on a real cluster.
func burn(d time.Duration) {
	if d <= 0 {
		return
	}
	end := now().Add(d)
	for now().Before(end) {
	}
}

// stepBatch streams a whole transport batch of records through the
// worker, in order, under one hold of mu. It then reads the clock once and
// observes end − stamp for every record of the batch, stamp being the
// batch's source stamp; it returns end.
func (w *worker) stepBatch(ts []*RecTuple, stamp time.Time) (end time.Time) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, t := range ts {
		w.step(t)
	}
	end = now()
	w.lat.ObserveN(end.Sub(stamp), uint64(len(ts)))
	return end
}

// step joins one record through the task: probe (always), store when the
// strategy assigns the record here. The worker's one dispatcher delivers
// records in ID order, as eviction and the probe need.
func (w *worker) step(rt *RecTuple) {
	if w.wirePerB > 0 {
		d := time.Duration(w.wirePerB * rt.SizeBytes())
		burn(d)
		w.wireBurnt += d
	}
	w.t.Step(rt.Rec, rt.Right, w.t.Stores(rt.Rec))
}

// registerMetrics binds the worker's series to reg. Every reader takes mu
// and reads the task's own counters or lat, so a value trails the worker
// by less than one batch and the fields of one read are from one instant.
// Only a self-join's Bundled joiner has bundle series; other joiners are
// covered by the engine-level task series.
func (w *worker) registerMetrics(reg *obs.Registry) {
	label := fmt.Sprintf("worker/%d", w.task)
	reg.HistogramVec("worker_record_seconds",
		"Per-record latency observed at a worker, one observation per record of a batch: from the stamp of the source chunk the batch opened in to the end of the batch's step (an upper bound of enqueue to probe).", "task").
		SetFunc(label, func() metrics.Latency {
			w.mu.Lock()
			defer w.mu.Unlock()
			return w.lat
		})
	if _, ok := w.t.BundleStats(); !ok {
		return
	}
	read := func() (bundle.Stats, local.Cost) {
		w.mu.Lock()
		defer w.mu.Unlock()
		st, _ := w.t.BundleStats()
		return st, w.t.Cost()
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

// run validates cfg and runs the pipeline; right is nil on self-joins.
func run(cfg Config, recs []*record.Record, right []bool) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return newPipeline(cfg, recs, right).run()
}
