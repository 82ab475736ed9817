// Package stream is an in-process distributed stream-processing engine in
// the style of Apache Storm: a topology of spouts and bolts, each component
// running a configurable number of task instances, connected by bounded
// queues under pluggable stream groupings. It is the substrate the
// distributed set-similarity join runs on.
//
// Each task instance executes on its own goroutine and owns its state, so
// bolts never need locks; the queues are the only synchronization (share
// memory by communicating). Bounded queues provide natural backpressure:
// the engine is lossless, which stands in for Storm's acking without
// changing the steady-state throughput comparison the experiments make.
//
// Transport is micro-batched: producers accumulate tuples per destination
// and ship []Tuple batches (WithBatchSize, default 64) over the channels,
// amortizing channel synchronization across the batch; an explicit flush on
// task completion guarantees every tuple is delivered, and per-(producer,
// destination) FIFO order is preserved because batches fill and ship in
// emit order. Queue capacity (New's queueCap) counts batches, so the tuples
// buffered per queue are roughly queueCap × batchSize.
//
// Per-edge tuple and byte counters model the cluster network: every tuple
// crossing a component boundary is counted, which is how the experiments
// measure communication cost.
package stream

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"
)

// Tuple is anything that can flow along an edge. SizeBytes approximates the
// serialized wire size for communication-cost accounting; it never affects
// semantics.
type Tuple interface {
	SizeBytes() int
}

// Spout produces the input stream of a topology instance. Next returns the
// next tuple, or ok=false when the source is exhausted, which triggers
// orderly topology shutdown.
type Spout interface {
	Next() (t Tuple, ok bool)
}

// Bolt consumes tuples and may emit downstream through em.
type Bolt interface {
	Execute(t Tuple, em Emitter)
}

// Flusher is an optional Bolt extension: Flush runs exactly once, after the
// bolt's input is exhausted and before its downstream is notified, so
// bolts can emit trailing aggregates.
type Flusher interface {
	Flush(em Emitter)
}

// Emitter sends tuples downstream. Emit targets the default stream;
// EmitTo targets a named stream, reaching only subscribers of that stream
// (Storm's multi-stream declaration). Emitting to a stream nobody
// subscribes to is legal and drops the tuple.
type Emitter interface {
	Emit(t Tuple)
	EmitTo(stream string, t Tuple)
}

// DefaultStream is the stream name Emit and SubscribeTo use.
const DefaultStream = "default"

// Grouping decides which downstream task instances receive each tuple.
// NewSelector binds grouping state (e.g. a round-robin cursor) to one
// producer task so selectors need no synchronization.
type Grouping interface {
	NewSelector(ntasks int) Selector
}

// Selector routes one tuple to zero or more of the ntasks downstream
// instances. Implementations append to buf and return it to avoid
// per-tuple allocation.
type Selector interface {
	Select(t Tuple, buf []int) []int
}

// Shuffle distributes tuples round-robin across downstream tasks.
type Shuffle struct{}

// NewSelector implements Grouping.
func (Shuffle) NewSelector(ntasks int) Selector { return &shuffleSel{n: ntasks} }

type shuffleSel struct{ n, i int }

func (s *shuffleSel) Select(_ Tuple, buf []int) []int {
	buf = append(buf, s.i)
	s.i++
	if s.i == s.n {
		s.i = 0
	}
	return buf
}

// Fields routes by a hash of the tuple, so equal keys land on the same
// task.
type Fields struct {
	Hash func(Tuple) uint64
}

// NewSelector implements Grouping.
func (f Fields) NewSelector(ntasks int) Selector {
	return fieldsSel{hash: f.Hash, n: ntasks}
}

type fieldsSel struct {
	hash func(Tuple) uint64
	n    int
}

func (s fieldsSel) Select(t Tuple, buf []int) []int {
	return append(buf, int(s.hash(t)%uint64(s.n)))
}

// Broadcast replicates every tuple to all downstream tasks.
type Broadcast struct{}

// NewSelector implements Grouping.
func (Broadcast) NewSelector(ntasks int) Selector { return broadcastSel{n: ntasks} }

type broadcastSel struct{ n int }

func (s broadcastSel) Select(_ Tuple, buf []int) []int {
	for i := 0; i < s.n; i++ {
		buf = append(buf, i)
	}
	return buf
}

// PartitionFunc routes with an arbitrary function — the hook the length-
// based and prefix-based distribution strategies plug into. The function
// must append destination task indices to buf and return it; duplicates are
// delivered once per occurrence.
type PartitionFunc func(t Tuple, ntasks int, buf []int) []int

// NewSelector implements Grouping.
func (f PartitionFunc) NewSelector(ntasks int) Selector {
	return partitionSel{f: f, n: ntasks}
}

type partitionSel struct {
	f func(t Tuple, ntasks int, buf []int) []int
	n int
}

func (s partitionSel) Select(t Tuple, buf []int) []int { return s.f(t, s.n, buf) }

// Topology is a DAG of components under construction. Build with New,
// AddSpout, AddBolt, then call Run.
type Topology struct {
	name      string
	queueCap  int
	batchSize int
	comps     map[string]*component
	order     []string
	err       error
}

// Option tunes a Topology at construction time.
type Option func(*Topology)

// WithBatchSize sets the transport micro-batch size: how many tuples
// accumulate per destination before a channel send ships them. 1 disables
// batching (one send per tuple); values <= 0 keep the default of 64.
func WithBatchSize(n int) Option {
	return func(tp *Topology) {
		if n > 0 {
			tp.batchSize = n
		}
	}
}

type inputDecl struct {
	from     string
	stream   string
	grouping Grouping
}

type component struct {
	name   string
	par    int
	spoutF func(task int) Spout
	boltF  func(task int) Bolt
	inputs []inputDecl
}

// New returns an empty topology. queueCap is the per-task input queue
// capacity in batches; zero selects the default of 1024. Options tune
// batching.
func New(name string, queueCap int, opts ...Option) *Topology {
	if queueCap <= 0 {
		queueCap = 1024
	}
	tp := &Topology{
		name:      name,
		queueCap:  queueCap,
		batchSize: DefaultBatchSize,
		comps:     make(map[string]*component),
	}
	for _, opt := range opts {
		opt(tp)
	}
	return tp
}

// DefaultBatchSize is the transport micro-batch size New uses unless
// WithBatchSize overrides it.
const DefaultBatchSize = 64

func (tp *Topology) add(c *component) *ComponentRef {
	if tp.err != nil {
		return &ComponentRef{tp: tp, comp: c}
	}
	if c.par < 1 {
		tp.err = fmt.Errorf("stream: component %q has parallelism %d", c.name, c.par)
		return &ComponentRef{tp: tp, comp: c}
	}
	if _, dup := tp.comps[c.name]; dup {
		tp.err = fmt.Errorf("stream: duplicate component %q", c.name)
		return &ComponentRef{tp: tp, comp: c}
	}
	tp.comps[c.name] = c
	tp.order = append(tp.order, c.name)
	return &ComponentRef{tp: tp, comp: c}
}

// AddSpout registers a source component with the given parallelism; factory
// is invoked once per task index.
func (tp *Topology) AddSpout(name string, factory func(task int) Spout, parallelism int) *ComponentRef {
	return tp.add(&component{name: name, par: parallelism, spoutF: factory})
}

// AddBolt registers a processing component with the given parallelism.
func (tp *Topology) AddBolt(name string, factory func(task int) Bolt, parallelism int) *ComponentRef {
	return tp.add(&component{name: name, par: parallelism, boltF: factory})
}

// ComponentRef supports fluent input wiring.
type ComponentRef struct {
	tp   *Topology
	comp *component
}

// SubscribeTo consumes the default output stream of component from under
// grouping g.
func (c *ComponentRef) SubscribeTo(from string, g Grouping) *ComponentRef {
	return c.SubscribeToStream(from, DefaultStream, g)
}

// SubscribeToStream consumes a named output stream of component from.
func (c *ComponentRef) SubscribeToStream(from, stream string, g Grouping) *ComponentRef {
	return c.subscribe(inputDecl{from: from, stream: stream, grouping: g})
}

func (c *ComponentRef) subscribe(in inputDecl) *ComponentRef {
	if c.comp.spoutF != nil {
		c.tp.err = fmt.Errorf("stream: spout %q cannot subscribe to %q", c.comp.name, in.from)
		return c
	}
	c.comp.inputs = append(c.comp.inputs, in)
	return c
}

// validate checks the declared graph: inputs exist, bolts have inputs,
// graph is acyclic.
func (tp *Topology) validate() error {
	if tp.err != nil {
		return tp.err
	}
	if len(tp.comps) == 0 {
		return errors.New("stream: empty topology")
	}
	for _, c := range tp.comps {
		if c.boltF != nil && len(c.inputs) == 0 {
			return fmt.Errorf("stream: bolt %q has no inputs", c.name)
		}
		for _, in := range c.inputs {
			if _, ok := tp.comps[in.from]; !ok {
				return fmt.Errorf("stream: %q subscribes to unknown component %q", c.name, in.from)
			}
		}
	}
	// Kahn toposort to reject cycles.
	indeg := make(map[string]int)
	adj := make(map[string][]string)
	for _, c := range tp.comps {
		for _, in := range c.inputs {
			adj[in.from] = append(adj[in.from], c.name)
			indeg[c.name]++
		}
	}
	var q []string
	for name := range tp.comps {
		if indeg[name] == 0 {
			q = append(q, name)
		}
	}
	seen := 0
	for len(q) > 0 {
		n := q[0]
		q = q[1:]
		seen++
		for _, m := range adj[n] {
			indeg[m]--
			if indeg[m] == 0 {
				q = append(q, m)
			}
		}
	}
	if seen != len(tp.comps) {
		return fmt.Errorf("stream: topology %q has a cycle", tp.name)
	}
	return nil
}

// EdgeKey names a producer→consumer component pair.
type EdgeKey struct {
	From, To string
}

// EdgeCounters counts traffic over one edge; this is the simulated network
// bill. Batches counts channel sends, so Tuples/Batches is the realized
// batch occupancy — how much synchronization the transport amortized.
//
// Each producer task counts Tuples and Bytes in fields of its own and adds
// them here when it ships a batch on the edge and at the end of each of its
// input batches, so the counters are exact once Run returns and a live read
// trails the truth by less than one batch per producer. Tuples still
// pending in a producer that panicked are dropped with its batches and are
// not counted as shipped.
type EdgeCounters struct {
	Tuples  atomic.Uint64
	Bytes   atomic.Uint64
	Batches atomic.Uint64
}

// Occupancy returns the mean tuples per shipped batch (0 when nothing was
// shipped). Values near the configured batch size mean the transport
// amortized one channel send across that many tuples; values near 1 mean
// the edge degenerated to per-tuple sends (e.g. a sparse stream flushed by
// completion).
func (e *EdgeCounters) Occupancy() float64 {
	b := e.Batches.Load()
	if b == 0 {
		return 0
	}
	return float64(e.Tuples.Load()) / float64(b)
}

// TaskCounters counts per-task work. The task publishes both counts once
// per input batch (a spout once per batch-size pulls) and when it finishes:
// exact once Run returns, less than one batch behind while it runs.
type TaskCounters struct {
	Executed atomic.Uint64
	Emitted  atomic.Uint64
}

// Report is the outcome of a completed run.
type Report struct {
	Topology string
	Elapsed  time.Duration
	// Edges maps component pairs to traffic counters.
	Edges map[EdgeKey]*EdgeCounters
	// Tasks maps component name to per-task counters, indexed by task.
	Tasks map[string][]*TaskCounters
	// Bolts exposes the bolt instances after the run so callers can read
	// back operator state (e.g. join statistics), keyed by component.
	Bolts map[string][]Bolt
}

// TotalTuples sums tuple counts over all edges.
func (r *Report) TotalTuples() uint64 {
	var n uint64
	for _, e := range r.Edges {
		n += e.Tuples.Load()
	}
	return n
}

// TotalBytes sums byte counts over all edges.
func (r *Report) TotalBytes() uint64 {
	var n uint64
	for _, e := range r.Edges {
		n += e.Bytes.Load()
	}
	return n
}

// EdgeTuples returns the tuple count for one edge (zero when absent).
func (r *Report) EdgeTuples(from, to string) uint64 {
	if e, ok := r.Edges[EdgeKey{From: from, To: to}]; ok {
		return e.Tuples.Load()
	}
	return 0
}

// EdgeBatches returns the batch (channel send) count for one edge (zero
// when absent).
func (r *Report) EdgeBatches(from, to string) uint64 {
	if e, ok := r.Edges[EdgeKey{From: from, To: to}]; ok {
		return e.Batches.Load()
	}
	return 0
}
