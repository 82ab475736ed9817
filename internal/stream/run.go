package stream

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// batch is one transport unit: a reusable slice of tuples shipped over an
// edge channel in a single send. Batching amortizes channel synchronization
// (one send/receive + one potential goroutine wakeup per BatchSize tuples
// instead of per tuple), the same amortization the join applies at the
// algorithm level via bundles and batch verification. Batches are recycled
// through a per-run sync.Pool, so the steady-state emit path allocates
// nothing.
type batch struct {
	items []Tuple
}

// taskRun is one executor: a task instance with its input queue and output
// routing tables.
type taskRun struct {
	comp *component
	idx  int

	in        chan *batch
	producers atomic.Int64 // upstream tasks still running; close(in) at zero

	outs []*edgeOut
	pool *sync.Pool // shared batch pool for the whole run
	// foldEvery is how many pulls a spout task counts locally before it
	// publishes them: the topology's batch size, the same lag a bolt has.
	foldEvery uint64

	counters *TaskCounters
	bolt     Bolt
	spout    Spout
}

// edgeOut is one producer task's view of a downstream subscription. It owns
// one pending (accumulating) batch per destination task; the owning producer
// goroutine is the only writer, so no locking is needed. Per-(producer,
// destination) FIFO order is preserved: tuples append to the pending batch
// in emit order and batches ship in fill order over a FIFO channel.
type edgeOut struct {
	stream    string
	sel       Selector
	dests     []*taskRun
	counters  *EdgeCounters
	batchSize int
	pending   []*batch // one accumulating batch per destination, nil when empty
	// tuples and bytes count what this producer sent on the edge since it
	// last folded them into counters: plain fields, so the per-tuple path
	// touches no cache line another producer writes.
	tuples, bytes uint64
}

// send appends t to destination d's pending batch, shipping the batch when
// it reaches batchSize. A full destination queue blocks the producer: the
// bounded channel is the engine's only backpressure, and it is lossless.
//
// One call per (tuple, destination); batches come from the pool and items
// grow by amortized self-append only.
func (o *edgeOut) send(d int, t Tuple, pool *sync.Pool) {
	b := o.pending[d]
	if b == nil {
		b = pool.Get().(*batch)
		o.pending[d] = b
	}
	b.items = append(b.items, t)
	if len(b.items) >= o.batchSize {
		o.pending[d] = nil
		o.counters.Batches.Add(1)
		o.fold()
		o.dests[d].in <- b
	}
}

// fold adds the producer-local tuple and byte counts to the edge's shared
// counters. It runs before a batch is handed to the consumer, so the shared
// counters never trail what consumers have seen.
//
// Two atomic adds per shipped batch, none per tuple.
func (o *edgeOut) fold() {
	if o.tuples == 0 {
		return
	}
	o.counters.Tuples.Add(o.tuples)
	o.counters.Bytes.Add(o.bytes)
	o.tuples, o.bytes = 0, 0
}

// flush ships every non-empty pending batch. Call when the producer task
// finishes so no tuple is stranded in an accumulation buffer. Flushes
// block like every send, so they stay lossless.
func (o *edgeOut) flush() {
	for d, b := range o.pending {
		if b == nil {
			continue
		}
		o.pending[d] = nil
		if len(b.items) > 0 {
			o.counters.Batches.Add(1)
			o.dests[d].in <- b
		}
	}
}

// emitter implements Emitter for one producer task. executed and emitted
// are the task's work since the last fold, owned by the task's goroutine.
type emitter struct {
	outs              []*edgeOut
	counters          *TaskCounters
	buf               []int
	pool              *sync.Pool
	executed, emitted uint64
}

// Emit routes t on the default stream.
//
// The per-tuple fast path of every task.
func (e *emitter) Emit(t Tuple) { e.EmitTo(DefaultStream, t) }

// EmitTo routes t on the named stream to every subscribed edge.
//
// Selection reuses e.buf, batching reuses pooled batches; BenchmarkEmitPath
// pins the dynamic side of this contract.
func (e *emitter) EmitTo(stream string, t Tuple) {
	e.emitted++
	// SizeBytes is computed lazily: only once a subscribed edge selects at
	// least one destination. Emits to unsubscribed streams and selections
	// that route nowhere skip both the size call and all counter updates.
	size := -1
	for _, out := range e.outs {
		if out.stream != stream {
			continue
		}
		e.buf = out.sel.Select(t, e.buf[:0])
		n := len(e.buf)
		if n == 0 {
			continue
		}
		if size < 0 {
			size = t.SizeBytes()
		}
		out.tuples += uint64(n)
		out.bytes += uint64(size) * uint64(n)
		for _, d := range e.buf {
			out.send(d, t, e.pool)
		}
	}
}

// fold publishes the task's and its edges' producer-local counts. The
// executor calls it once per input batch, so a live read trails the truth
// by less than one batch per producer.
func (e *emitter) fold() {
	e.counters.Executed.Add(e.executed)
	e.counters.Emitted.Add(e.emitted)
	e.executed, e.emitted = 0, 0
	for _, out := range e.outs {
		out.fold()
	}
}

// flush ships every pending batch on every edge of this producer and
// publishes its remaining counts.
func (e *emitter) flush() {
	e.fold()
	for _, out := range e.outs {
		out.flush()
	}
}

// done signals that one upstream producer of t finished; the last producer
// closes the input queue.
func (t *taskRun) done() {
	if t.producers.Add(-1) == 0 {
		close(t.in)
	}
}

// Run validates the topology, executes it to completion, and returns the
// traffic and work report. Spouts drive termination: when every spout task
// is exhausted, completion propagates down the DAG; Run returns when the
// last task finishes.
func (tp *Topology) Run() (*Report, error) {
	if err := tp.validate(); err != nil {
		return nil, err
	}

	report := &Report{
		Topology: tp.name,
		Edges:    make(map[EdgeKey]*EdgeCounters),
		Tasks:    make(map[string][]*TaskCounters),
		Bolts:    make(map[string][]Bolt),
	}

	// One batch pool per run: batches have uniform capacity, so any task
	// can recycle any producer's batch.
	batchSize := tp.batchSize
	pool := &sync.Pool{New: func() interface{} {
		return &batch{items: make([]Tuple, 0, batchSize)}
	}}

	// Materialize tasks.
	tasks := make(map[string][]*taskRun)
	for _, name := range tp.order {
		c := tp.comps[name]
		runs := make([]*taskRun, c.par)
		counters := make([]*TaskCounters, c.par)
		for i := 0; i < c.par; i++ {
			tr := &taskRun{comp: c, idx: i, counters: &TaskCounters{}, pool: pool, foldEvery: uint64(batchSize)}
			if c.boltF != nil {
				tr.in = make(chan *batch, tp.queueCap)
				tr.bolt = c.boltF(i)
				report.Bolts[name] = append(report.Bolts[name], tr.bolt)
			} else {
				tr.spout = c.spoutF(i)
			}
			runs[i] = tr
			counters[i] = tr.counters
		}
		tasks[name] = runs
		report.Tasks[name] = counters
	}

	// Wire edges: for each consumer input, every producer task gets an
	// edgeOut with its own selector; consumers count their producers.
	for _, name := range tp.order {
		c := tp.comps[name]
		for _, in := range c.inputs {
			key := EdgeKey{From: in.from, To: name}
			ec, ok := report.Edges[key]
			if !ok {
				ec = &EdgeCounters{}
				report.Edges[key] = ec
			}
			dests := tasks[name]
			streamName := in.stream
			if streamName == "" {
				streamName = DefaultStream
			}
			for _, prod := range tasks[in.from] {
				prod.outs = append(prod.outs, &edgeOut{
					stream:    streamName,
					sel:       in.grouping.NewSelector(len(dests)),
					dests:     dests,
					counters:  ec,
					batchSize: batchSize,
					pending:   make([]*batch, len(dests)),
				})
			}
			for _, d := range dests {
				d.producers.Add(int64(len(tasks[in.from])))
			}
		}
	}

	start := time.Now()
	var (
		wg  sync.WaitGroup
		rec panicRecorder
	)
	for _, name := range tp.order {
		for _, tr := range tasks[name] {
			wg.Add(1)
			go func(tr *taskRun) {
				defer wg.Done()
				if err := tr.run(); err != nil {
					rec.record(err)
				}
			}(tr)
		}
	}
	wg.Wait()
	report.Elapsed = time.Since(start)
	return report, rec.err()
}

// panicRecorder collects task-panic errors from concurrently failing
// executors.
type panicRecorder struct {
	mu   sync.Mutex
	errs []error // guarded by mu
}

// record stores one task failure.
func (p *panicRecorder) record(e error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.errs = append(p.errs, e)
}

// err summarizes the recorded failures (nil when none). Safe to call while
// tasks are still running, though callers normally wait first.
func (p *panicRecorder) err() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.errs) == 0 {
		return nil
	}
	return fmt.Errorf("stream: %d task(s) panicked; first: %w", len(p.errs), p.errs[0])
}

// run executes the task loop, converting panics in user code (spouts and
// bolts) into errors so one faulty operator cannot crash the host process.
// Downstream completion still propagates, so the topology drains instead
// of deadlocking. On a panic, tuples still sitting in pending batches are
// dropped — the run already reports an error.
func (t *taskRun) run() (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("task %s[%d] panicked: %v", t.comp.name, t.idx, r)
		}
		// Always notify downstream — also on panic, or consumers wait
		// forever. Drain our input so upstream producers can finish.
		if t.in != nil {
			go func() {
				for range t.in {
				}
			}()
		}
		for _, out := range t.outs {
			seen := make(map[*taskRun]bool, len(out.dests))
			for _, d := range out.dests {
				if !seen[d] {
					seen[d] = true
					d.done()
				}
			}
		}
	}()
	t.loop()
	return nil
}

// loop is the executor body: spouts pull, bolts drain their queue; both
// flush pending batches on completion (so the explicit flush, not batch
// fill, is what guarantees delivery of the tail) and then notify
// downstream. Work is counted in the emitter and published once per input
// batch (per batchSize pulls for a spout), never per tuple.
func (t *taskRun) loop() {
	em := &emitter{outs: t.outs, counters: t.counters, pool: t.pool}
	if t.spout != nil {
		for {
			tu, ok := t.spout.Next()
			if !ok {
				break
			}
			em.executed++
			em.Emit(tu)
			if em.executed >= t.foldEvery {
				em.fold()
			}
		}
	} else {
		for b := range t.in {
			em.executed += uint64(len(b.items))
			for i, tu := range b.items {
				b.items[i] = nil // drop the ref so pooled batches don't pin tuples
				t.bolt.Execute(tu, em)
			}
			b.items = b.items[:0]
			t.pool.Put(b)
			em.fold()
		}
		if f, ok := t.bolt.(Flusher); ok {
			f.Flush(em)
		}
	}
	em.flush()
}
