package stream

import (
	"sync"
	"testing"
)

// taggedTuple encodes (producer, seq) so consumers can check per-producer
// order.
type taggedTuple struct {
	producer int
	seq      int
}

func (taggedTuple) SizeBytes() int { return 16 }

// taggedSpout emits n tuples tagged with its task index, in seq order.
type taggedSpout struct {
	task, n, i int
}

func (s *taggedSpout) Next() (Tuple, bool) {
	if s.i >= s.n {
		return nil, false
	}
	t := taggedTuple{producer: s.task, seq: s.i}
	s.i++
	return t, true
}

// orderBolt records the tuples it sees, per producer.
type orderBolt struct {
	mu  sync.Mutex
	got map[int][]int // guarded by mu
}

func (o *orderBolt) Execute(t Tuple, _ Emitter) {
	tt := t.(taggedTuple)
	o.mu.Lock()
	if o.got == nil {
		o.got = make(map[int][]int)
	}
	o.got[tt.producer] = append(o.got[tt.producer], tt.seq)
	o.mu.Unlock()
}

// TestBatchingPreservesPerProducerFIFO checks the transport ordering
// contract under batching: for every (producer, destination) pair, tuples
// arrive in emit order, at every batch size including ones that do not
// divide the stream length.
func TestBatchingPreservesPerProducerFIFO(t *testing.T) {
	const perProducer = 500
	for _, bs := range []int{1, 3, 64, 1000} {
		tp := New("fifo", 4, WithBatchSize(bs))
		tp.AddSpout("src", func(task int) Spout {
			return &taggedSpout{task: task, n: perProducer}
		}, 3)
		tp.AddBolt("sink", func(int) Bolt { return &orderBolt{} }, 2).
			SubscribeTo("src", Shuffle{})
		rep, err := tp.Run()
		if err != nil {
			t.Fatalf("batch %d: %v", bs, err)
		}
		total := 0
		for task := 0; task < 2; task++ {
			sink := rep.Bolts["sink"][task].(*orderBolt)
			for prod, seqs := range sink.got {
				total += len(seqs)
				for i := 1; i < len(seqs); i++ {
					if seqs[i] <= seqs[i-1] {
						t.Fatalf("batch %d: producer %d at sink %d out of order: %d after %d",
							bs, prod, task, seqs[i], seqs[i-1])
					}
				}
			}
		}
		if total != 3*perProducer {
			t.Fatalf("batch %d: delivered %d tuples, want %d", bs, total, 3*perProducer)
		}
	}
}

// TestFlushOnCompletionDeliversEveryTuple drives stream lengths around and
// below the batch size through a two-stage pipeline: the final flush, not
// batch fill, must deliver the tail, including bolt Flush output emitted
// after the input closed.
func TestFlushOnCompletionDeliversEveryTuple(t *testing.T) {
	for _, n := range []int{1, 7, 63, 64, 65, 1000} {
		tp := New("flushall", 4, WithBatchSize(64))
		tp.AddSpout("src", func(int) Spout { return &sliceSpout{vals: ints(n)} }, 1)
		tp.AddBolt("sum", func(int) Bolt { return &sumFlushBolt{} }, 1).
			SubscribeTo("src", Shuffle{})
		tp.AddBolt("sink", func(task int) Bolt { return &collectBolt{task: task} }, 1).
			SubscribeTo("sum", Shuffle{})
		rep, err := tp.Run()
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		sink := rep.Bolts["sink"][0].(*collectBolt)
		want := n * (n - 1) / 2
		if len(sink.got) != 1 || sink.got[0] != want {
			t.Fatalf("n=%d: flush output %v, want [%d]", n, sink.got, want)
		}
	}
}

// TestBatchCountersAndOccupancy checks the amortization accounting: tuple
// counts are unchanged by batching, batch counts reflect channel sends, and
// occupancy is tuples per send.
func TestBatchCountersAndOccupancy(t *testing.T) {
	const n, bs = 1000, 8
	tp := New("occupancy", 16, WithBatchSize(bs))
	tp.AddSpout("src", func(int) Spout { return &sliceSpout{vals: ints(n)} }, 1)
	tp.AddBolt("sink", func(task int) Bolt { return &collectBolt{task: task} }, 1).
		SubscribeTo("src", Shuffle{})
	rep, err := tp.Run()
	if err != nil {
		t.Fatal(err)
	}
	ec := rep.Edges[EdgeKey{From: "src", To: "sink"}]
	if got := ec.Tuples.Load(); got != n {
		t.Fatalf("tuples: got %d want %d", got, n)
	}
	if got := rep.EdgeBatches("src", "sink"); got != n/bs {
		t.Fatalf("batches: got %d want %d", got, n/bs)
	}
	if occ := ec.Occupancy(); occ != float64(bs) {
		t.Fatalf("occupancy: got %v want %v", occ, float64(bs))
	}
}

// TestWithQueueCapOption checks the option overrides the positional
// argument and the topology still drains under a tiny queue.
func TestWithQueueCapOption(t *testing.T) {
	tp := New("qcap", 1024, WithQueueCap(1), WithBatchSize(4))
	if tp.queueCap != 1 {
		t.Fatalf("queueCap: got %d want 1", tp.queueCap)
	}
	tp.AddSpout("src", func(int) Spout { return &sliceSpout{vals: ints(5000)} }, 1)
	tp.AddBolt("mid", func(int) Bolt { return doubleBolt{} }, 2).
		SubscribeTo("src", Shuffle{})
	tp.AddBolt("sink", func(task int) Bolt { return &collectBolt{task: task} }, 1).
		SubscribeTo("mid", Shuffle{})
	rep, err := tp.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(rep.Bolts["sink"][0].(*collectBolt).got); got != 5000 {
		t.Fatalf("sink: %d", got)
	}
}

// TestLazySizeBytes checks the emit path only calls SizeBytes when a
// subscribed edge selects at least one destination: emits to unsubscribed
// streams must not pay for size accounting.
func TestLazySizeBytes(t *testing.T) {
	tp := New("lazysize", 4)
	tp.AddSpout("src", func(int) Spout { return &sliceSpout{vals: ints(10)} }, 1)
	tp.AddBolt("split", func(int) Bolt { return sizeCountingBolt{} }, 1).
		SubscribeTo("src", Shuffle{})
	tp.AddBolt("sink", func(int) Bolt { return dropBolt{} }, 1).
		SubscribeTo("split", Shuffle{})
	if _, err := tp.Run(); err != nil {
		t.Fatal(err)
	}
	if got := sizeCalls.Load(); got != 10 {
		t.Fatalf("SizeBytes calls: got %d want 10 (one per delivered tuple, none for dropped streams)", got)
	}
}

// dropBolt discards every tuple regardless of type.
type dropBolt struct{}

// Execute implements Bolt.
func (dropBolt) Execute(Tuple, Emitter) {}

// sizeProbeTuple counts SizeBytes invocations through a package-level
// counter (tests run sequentially per topology here).
type sizeProbeTuple int

// sizeCalls counts SizeBytes invocations across a run.
var sizeCalls atomicCounter

func (sizeProbeTuple) SizeBytes() int {
	sizeCalls.Add(1)
	return 8
}

// sizeCountingBolt forwards every tuple as a sizeProbeTuple on the default
// stream and also emits one copy to a stream nobody subscribes to.
type sizeCountingBolt struct{}

func (sizeCountingBolt) Execute(t Tuple, em Emitter) {
	v := sizeProbeTuple(int(t.(intTuple)))
	em.Emit(v)
	em.EmitTo("nobody-listens", v) // must not call SizeBytes
}

// atomicCounter is a tiny test helper around a mutex-guarded int (avoids
// importing sync/atomic in tests for one counter).
type atomicCounter struct {
	mu sync.Mutex
	n  int64 // guarded by mu
}

// Add increments the counter.
func (c *atomicCounter) Add(d int64) {
	c.mu.Lock()
	c.n += d
	c.mu.Unlock()
}

// Load reads the counter.
func (c *atomicCounter) Load() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}
