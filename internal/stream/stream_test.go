package stream

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// intTuple is a minimal test tuple.
type intTuple int

func (intTuple) SizeBytes() int { return 8 }

// sliceSpout replays a fixed slice.
type sliceSpout struct {
	vals []int
	i    int
}

func (s *sliceSpout) Next() (Tuple, bool) {
	if s.i >= len(s.vals) {
		return nil, false
	}
	v := s.vals[s.i]
	s.i++
	return intTuple(v), true
}

// collectBolt records everything it sees.
type collectBolt struct {
	mu   sync.Mutex
	got  []int
	task int
}

func (c *collectBolt) Execute(t Tuple, _ Emitter) {
	c.mu.Lock()
	c.got = append(c.got, int(t.(intTuple)))
	c.mu.Unlock()
}

// doubleBolt emits 2x its input.
type doubleBolt struct{}

func (doubleBolt) Execute(t Tuple, em Emitter) { em.Emit(intTuple(2 * int(t.(intTuple)))) }

// sumFlushBolt sums inputs and emits the total only at flush.
type sumFlushBolt struct{ sum int }

func (s *sumFlushBolt) Execute(t Tuple, _ Emitter) { s.sum += int(t.(intTuple)) }
func (s *sumFlushBolt) Flush(em Emitter)           { em.Emit(intTuple(s.sum)) }

func ints(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestLinearPipeline(t *testing.T) {
	tp := New("linear", 4)
	tp.AddSpout("src", func(int) Spout { return &sliceSpout{vals: ints(100)} }, 1)
	tp.AddBolt("double", func(int) Bolt { return doubleBolt{} }, 1).
		SubscribeTo("src", Shuffle{})
	tp.AddBolt("sink", func(task int) Bolt { return &collectBolt{task: task} }, 1).
		SubscribeTo("double", Shuffle{})
	rep, err := runChecked(t, tp)
	if err != nil {
		t.Fatal(err)
	}
	sink := rep.Bolts["sink"][0].(*collectBolt)
	if len(sink.got) != 100 {
		t.Fatalf("sink saw %d tuples", len(sink.got))
	}
	sum := 0
	for _, v := range sink.got {
		sum += v
	}
	want := 2 * (99 * 100 / 2)
	if sum != want {
		t.Fatalf("sum: got %d want %d", sum, want)
	}
}

func TestShuffleBalancesRoundRobin(t *testing.T) {
	tp := New("shuffle", 8)
	tp.AddSpout("src", func(int) Spout { return &sliceSpout{vals: ints(90)} }, 1)
	tp.AddBolt("sink", func(task int) Bolt { return &collectBolt{task: task} }, 3).
		SubscribeTo("src", Shuffle{})
	rep, err := runChecked(t, tp)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		got := len(rep.Bolts["sink"][i].(*collectBolt).got)
		if got != 30 {
			t.Fatalf("task %d got %d tuples, want 30", i, got)
		}
	}
}

func TestFieldsGroupingIsConsistent(t *testing.T) {
	tp := New("fields", 8)
	vals := make([]int, 300)
	for i := range vals {
		vals[i] = i % 10 // ten keys
	}
	tp.AddSpout("src", func(int) Spout { return &sliceSpout{vals: vals} }, 1)
	tp.AddBolt("sink", func(task int) Bolt { return &collectBolt{task: task} }, 4).
		SubscribeTo("src", Fields{Hash: func(t Tuple) uint64 { return uint64(t.(intTuple)) }})
	rep, err := runChecked(t, tp)
	if err != nil {
		t.Fatal(err)
	}
	owner := make(map[int]int)
	total := 0
	for task := 0; task < 4; task++ {
		for _, v := range rep.Bolts["sink"][task].(*collectBolt).got {
			if prev, ok := owner[v]; ok && prev != task {
				t.Fatalf("key %d seen on tasks %d and %d", v, prev, task)
			}
			owner[v] = task
			total++
		}
	}
	if total != 300 {
		t.Fatalf("total: %d", total)
	}
}

func TestBroadcastReplicates(t *testing.T) {
	tp := New("bcast", 8)
	tp.AddSpout("src", func(int) Spout { return &sliceSpout{vals: ints(50)} }, 1)
	tp.AddBolt("sink", func(task int) Bolt { return &collectBolt{task: task} }, 5).
		SubscribeTo("src", Broadcast{})
	rep, err := runChecked(t, tp)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if got := len(rep.Bolts["sink"][i].(*collectBolt).got); got != 50 {
			t.Fatalf("task %d got %d tuples", i, got)
		}
	}
	if got := rep.EdgeTuples("src", "sink"); got != 250 {
		t.Fatalf("edge tuples: got %d want 250", got)
	}
	if got := rep.TotalBytes(); got != 250*8 {
		t.Fatalf("edge bytes: got %d want %d", got, 250*8)
	}
}

func TestPartitionFuncMulticast(t *testing.T) {
	// Even values go to tasks {0,1}, odd to {2}.
	pf := PartitionFunc(func(t Tuple, n int, buf []int) []int {
		if int(t.(intTuple))%2 == 0 {
			return append(buf, 0, 1)
		}
		return append(buf, 2)
	})
	tp := New("part", 8)
	tp.AddSpout("src", func(int) Spout { return &sliceSpout{vals: ints(10)} }, 1)
	tp.AddBolt("sink", func(task int) Bolt { return &collectBolt{task: task} }, 3).
		SubscribeTo("src", pf)
	rep, err := runChecked(t, tp)
	if err != nil {
		t.Fatal(err)
	}
	c0 := len(rep.Bolts["sink"][0].(*collectBolt).got)
	c1 := len(rep.Bolts["sink"][1].(*collectBolt).got)
	c2 := len(rep.Bolts["sink"][2].(*collectBolt).got)
	if c0 != 5 || c1 != 5 || c2 != 5 {
		t.Fatalf("distribution: %d %d %d", c0, c1, c2)
	}
	if got := rep.EdgeTuples("src", "sink"); got != 15 {
		t.Fatalf("edge tuples: got %d want 15", got)
	}
}

func TestFlusherRunsAfterDrain(t *testing.T) {
	tp := New("flush", 8)
	tp.AddSpout("src", func(int) Spout { return &sliceSpout{vals: ints(10)} }, 1)
	tp.AddBolt("sum", func(int) Bolt { return &sumFlushBolt{} }, 1).
		SubscribeTo("src", Shuffle{})
	tp.AddBolt("sink", func(task int) Bolt { return &collectBolt{task: task} }, 1).
		SubscribeTo("sum", Shuffle{})
	rep, err := runChecked(t, tp)
	if err != nil {
		t.Fatal(err)
	}
	sink := rep.Bolts["sink"][0].(*collectBolt)
	if len(sink.got) != 1 || sink.got[0] != 45 {
		t.Fatalf("flush output: %v", sink.got)
	}
}

func TestMultipleSpoutTasksAndFanIn(t *testing.T) {
	tp := New("fanin", 8)
	tp.AddSpout("src", func(task int) Spout {
		return &sliceSpout{vals: ints(20)}
	}, 4)
	tp.AddBolt("sink", func(task int) Bolt { return &collectBolt{task: task} }, 1).
		SubscribeTo("src", Shuffle{})
	rep, err := runChecked(t, tp)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(rep.Bolts["sink"][0].(*collectBolt).got); got != 80 {
		t.Fatalf("fan-in total: %d", got)
	}
}

func TestDiamondTopology(t *testing.T) {
	tp := New("diamond", 8)
	tp.AddSpout("src", func(int) Spout { return &sliceSpout{vals: ints(30)} }, 1)
	tp.AddBolt("left", func(int) Bolt { return doubleBolt{} }, 2).
		SubscribeTo("src", Shuffle{})
	tp.AddBolt("right", func(int) Bolt { return doubleBolt{} }, 2).
		SubscribeTo("src", Shuffle{})
	tp.AddBolt("sink", func(task int) Bolt { return &collectBolt{task: task} }, 1).
		SubscribeTo("left", Shuffle{}).
		SubscribeTo("right", Shuffle{})
	rep, err := runChecked(t, tp)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(rep.Bolts["sink"][0].(*collectBolt).got); got != 60 {
		t.Fatalf("diamond sink: %d tuples", got)
	}
}

func TestBackpressureTinyQueues(t *testing.T) {
	// Queue capacity 1 with 10k tuples: must complete without deadlock.
	tp := New("bp", 1)
	tp.AddSpout("src", func(int) Spout { return &sliceSpout{vals: ints(10000)} }, 1)
	tp.AddBolt("mid", func(int) Bolt { return doubleBolt{} }, 2).
		SubscribeTo("src", Shuffle{})
	tp.AddBolt("sink", func(task int) Bolt { return &collectBolt{task: task} }, 1).
		SubscribeTo("mid", Shuffle{})
	rep, err := runChecked(t, tp)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(rep.Bolts["sink"][0].(*collectBolt).got); got != 10000 {
		t.Fatalf("sink: %d", got)
	}
}

// slowBolt consumes at a fixed per-tuple delay and counts what it saw.
type slowBolt struct {
	delay time.Duration
	seen  *atomic.Uint64
}

func (b *slowBolt) Execute(Tuple, Emitter) {
	time.Sleep(b.delay)
	b.seen.Add(1)
}

// TestOverloadBlockPolicyIsLossless drives a producer that loops as fast
// as it can into a consumer throttled to ~50µs per tuple through a 4-batch
// queue: the queue saturates at once, the producer blocks, and every
// tuple still arrives and is counted exactly once.
func TestOverloadBlockPolicyIsLossless(t *testing.T) {
	const n = 1500
	var seen atomic.Uint64
	tp := New("overload", 4, WithBatchSize(8))
	tp.AddSpout("src", func(task int) Spout { return &taggedSpout{task: task, n: n} }, 1)
	tp.AddBolt("sink", func(int) Bolt {
		return &slowBolt{delay: 50 * time.Microsecond, seen: &seen}
	}, 1).SubscribeTo("src", Shuffle{})
	rep, err := runChecked(t, tp)
	if err != nil {
		t.Fatal(err)
	}
	if seen.Load() != n || rep.EdgeTuples("src", "sink") != n || rep.Tasks["sink"][0].Executed.Load() != n {
		t.Fatalf("lost tuples: consumed %d, edge %d, executed %d of %d",
			seen.Load(), rep.EdgeTuples("src", "sink"), rep.Tasks["sink"][0].Executed.Load(), n)
	}
}

func TestValidationErrors(t *testing.T) {
	cases := []struct {
		name  string
		build func() *Topology
	}{
		{"empty", func() *Topology { return New("x", 0) }},
		{"bolt without input", func() *Topology {
			tp := New("x", 0)
			tp.AddSpout("s", func(int) Spout { return &sliceSpout{} }, 1)
			tp.AddBolt("b", func(int) Bolt { return doubleBolt{} }, 1)
			return tp
		}},
		{"unknown upstream", func() *Topology {
			tp := New("x", 0)
			tp.AddSpout("s", func(int) Spout { return &sliceSpout{} }, 1)
			tp.AddBolt("b", func(int) Bolt { return doubleBolt{} }, 1).
				SubscribeTo("ghost", Shuffle{})
			return tp
		}},
		{"cycle", func() *Topology {
			tp := New("x", 0)
			tp.AddSpout("s", func(int) Spout { return &sliceSpout{} }, 1)
			tp.AddBolt("a", func(int) Bolt { return doubleBolt{} }, 1).
				SubscribeTo("s", Shuffle{}).SubscribeTo("b", Shuffle{})
			tp.AddBolt("b", func(int) Bolt { return doubleBolt{} }, 1).
				SubscribeTo("a", Shuffle{})
			return tp
		}},
		{"duplicate name", func() *Topology {
			tp := New("x", 0)
			tp.AddSpout("s", func(int) Spout { return &sliceSpout{} }, 1)
			tp.AddSpout("s", func(int) Spout { return &sliceSpout{} }, 1)
			return tp
		}},
		{"zero parallelism", func() *Topology {
			tp := New("x", 0)
			tp.AddSpout("s", func(int) Spout { return &sliceSpout{} }, 0)
			return tp
		}},
		{"spout subscribing", func() *Topology {
			tp := New("x", 0)
			tp.AddSpout("a", func(int) Spout { return &sliceSpout{} }, 1)
			tp.AddSpout("s", func(int) Spout { return &sliceSpout{} }, 1).
				SubscribeTo("a", Shuffle{})
			return tp
		}},
	}
	for _, c := range cases {
		if _, err := runChecked(t, c.build()); err == nil {
			t.Errorf("%s: expected validation error", c.name)
		}
	}
}

func TestTaskCounters(t *testing.T) {
	tp := New("counters", 8)
	tp.AddSpout("src", func(int) Spout { return &sliceSpout{vals: ints(25)} }, 1)
	tp.AddBolt("sink", func(task int) Bolt { return &collectBolt{task: task} }, 1).
		SubscribeTo("src", Shuffle{})
	rep, err := runChecked(t, tp)
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Tasks["src"][0].Executed.Load(); got != 25 {
		t.Fatalf("spout executed: %d", got)
	}
	if got := rep.Tasks["src"][0].Emitted.Load(); got != 25 {
		t.Fatalf("spout emitted: %d", got)
	}
	if got := rep.Tasks["sink"][0].Executed.Load(); got != 25 {
		t.Fatalf("sink executed: %d", got)
	}
	if rep.Elapsed <= 0 {
		t.Fatal("elapsed not measured")
	}
	if rep.TotalTuples() != 25 {
		t.Fatalf("total tuples: %d", rep.TotalTuples())
	}
}

func TestLargeFanOutStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	tp := New("stress", 64)
	tp.AddSpout("src", func(int) Spout { return &sliceSpout{vals: ints(50000)} }, 2)
	tp.AddBolt("work", func(int) Bolt { return doubleBolt{} }, 16).
		SubscribeTo("src", Shuffle{})
	tp.AddBolt("sink", func(task int) Bolt { return &collectBolt{task: task} }, 1).
		SubscribeTo("work", Shuffle{})
	rep, err := runChecked(t, tp)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(rep.Bolts["sink"][0].(*collectBolt).got); got != 100000 {
		t.Fatalf("sink: %d", got)
	}
}

func TestGroupingSelectorsDoNotShareState(t *testing.T) {
	// Two producers with Shuffle each start at task 0; each must keep an
	// independent cursor.
	g := Shuffle{}
	s1 := g.NewSelector(3)
	s2 := g.NewSelector(3)
	var buf []int
	buf = s1.Select(intTuple(0), buf[:0])
	first1 := buf[0]
	buf = s1.Select(intTuple(0), buf[:0])
	second1 := buf[0]
	buf = s2.Select(intTuple(0), buf[:0])
	first2 := buf[0]
	if first1 != 0 || second1 != 1 || first2 != 0 {
		t.Fatalf("cursors shared: %d %d %d", first1, second1, first2)
	}
}

func ExampleTopology() {
	tp := New("example", 16)
	tp.AddSpout("numbers", func(int) Spout { return &sliceSpout{vals: []int{1, 2, 3}} }, 1)
	tp.AddBolt("double", func(int) Bolt { return doubleBolt{} }, 1).
		SubscribeTo("numbers", Shuffle{})
	tp.AddBolt("sum", func(int) Bolt { return &sumFlushBolt{} }, 1).
		SubscribeTo("double", Shuffle{})
	rep, _ := tp.Run()
	fmt.Println(rep.Bolts["sum"][0].(*sumFlushBolt).sum)
	// Output: 12
}

// panicBolt explodes on every value from on.
type panicBolt struct{ on int }

func (p panicBolt) Execute(t Tuple, em Emitter) {
	if int(t.(intTuple)) >= p.on {
		panic("boom")
	}
	em.Emit(t)
}

// TestBoltPanicIsIsolated: four bolt tasks panic at once; every panic is
// recorded and the topology still drains.
func TestBoltPanicIsIsolated(t *testing.T) {
	tp := New("panic", 4, WithBatchSize(1))
	tp.AddSpout("src", func(int) Spout { return &sliceSpout{vals: ints(100)} }, 1)
	tp.AddBolt("mid", func(int) Bolt { return panicBolt{on: 10} }, 4).
		SubscribeTo("src", Shuffle{})
	tp.AddBolt("sink", func(task int) Bolt { return &collectBolt{task: task} }, 1).
		SubscribeTo("mid", Shuffle{})
	rep, err := runChecked(t, tp)
	if err == nil || !strings.Contains(err.Error(), "4 task(s) panicked") {
		t.Fatalf("err = %v, want all 4 panics reported", err)
	}
	if rep == nil {
		t.Fatal("report missing despite partial run")
	}
	// The process survived and the topology drained (no deadlock).
}

func TestSpoutPanicIsIsolated(t *testing.T) {
	tp := New("spanic", 4)
	tp.AddSpout("src", func(int) Spout { return panicSpout{} }, 1)
	tp.AddBolt("sink", func(task int) Bolt { return &collectBolt{task: task} }, 1).
		SubscribeTo("src", Shuffle{})
	if _, err := runChecked(t, tp); err == nil {
		t.Fatal("spout panic not reported")
	}
}

type panicSpout struct{}

func (panicSpout) Next() (Tuple, bool) { panic("spout boom") }

// splitBolt routes evens to the default stream, odds to "odds".
type splitBolt struct{}

func (splitBolt) Execute(t Tuple, em Emitter) {
	if int(t.(intTuple))%2 == 0 {
		em.Emit(t)
	} else {
		em.EmitTo("odds", t)
	}
}

func TestNamedStreams(t *testing.T) {
	tp := New("streams", 8)
	tp.AddSpout("src", func(int) Spout { return &sliceSpout{vals: ints(20)} }, 1)
	tp.AddBolt("split", func(int) Bolt { return splitBolt{} }, 1).
		SubscribeTo("src", Shuffle{})
	tp.AddBolt("evens", func(task int) Bolt { return &collectBolt{task: task} }, 1).
		SubscribeTo("split", Shuffle{})
	tp.AddBolt("odds", func(task int) Bolt { return &collectBolt{task: task} }, 1).
		SubscribeToStream("split", "odds", Shuffle{})
	rep, err := runChecked(t, tp)
	if err != nil {
		t.Fatal(err)
	}
	evens := rep.Bolts["evens"][0].(*collectBolt).got
	odds := rep.Bolts["odds"][0].(*collectBolt).got
	if len(evens) != 10 || len(odds) != 10 {
		t.Fatalf("split: %d evens %d odds", len(evens), len(odds))
	}
	for _, v := range evens {
		if v%2 != 0 {
			t.Fatalf("odd value %d on default stream", v)
		}
	}
	for _, v := range odds {
		if v%2 == 0 {
			t.Fatalf("even value %d on odds stream", v)
		}
	}
}

func TestEmitToUnsubscribedStreamDrops(t *testing.T) {
	tp := New("drop", 8)
	tp.AddSpout("src", func(int) Spout { return &sliceSpout{vals: ints(10)} }, 1)
	tp.AddBolt("split", func(int) Bolt { return splitBolt{} }, 1).
		SubscribeTo("src", Shuffle{})
	tp.AddBolt("evens", func(task int) Bolt { return &collectBolt{task: task} }, 1).
		SubscribeTo("split", Shuffle{})
	// Nobody subscribes to "odds": the topology must still drain.
	rep, err := runChecked(t, tp)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(rep.Bolts["evens"][0].(*collectBolt).got); got != 5 {
		t.Fatalf("evens: %d", got)
	}
}

// TestRandomTopologyConservation builds random layered DAGs and checks
// tuple conservation: every tuple a producer sends is executed exactly once
// downstream (per delivered copy), for every grouping type.
func TestRandomTopologyConservation(t *testing.T) {
	groupings := []Grouping{Shuffle{}, Broadcast{},
		Fields{Hash: func(t Tuple) uint64 { return uint64(t.(intTuple)) }}}
	for seed := 0; seed < 10; seed++ {
		tp := New("rand", 16)
		n := 200 + seed*37
		tp.AddSpout("src", func(int) Spout { return &sliceSpout{vals: ints(n)} }, 1+seed%3)
		layers := 1 + seed%3
		prev := "src"
		for l := 0; l < layers; l++ {
			name := "layer" + itoa(l)
			tp.AddBolt(name, func(int) Bolt { return doubleBolt{} }, 1+(seed+l)%4).
				SubscribeTo(prev, groupings[(seed+l)%len(groupings)])
			prev = name
		}
		tp.AddBolt("sink", func(task int) Bolt { return &collectBolt{task: task} }, 1).
			SubscribeTo(prev, Shuffle{})
		rep, err := runChecked(t, tp)
		if err != nil {
			t.Fatal(err)
		}
		// Conservation: sink executed == tuples on the last edge; and every
		// edge's tuple count equals the downstream component's total
		// executed count.
		for key, ec := range rep.Edges {
			var executed uint64
			for _, tc := range rep.Tasks[key.To] {
				executed += tc.Executed.Load()
			}
			// A component may have several input edges; sum them.
			var inbound uint64
			for k2, e2 := range rep.Edges {
				if k2.To == key.To {
					inbound += e2.Tuples.Load()
				}
			}
			if executed != inbound {
				t.Fatalf("seed %d: %s executed %d != inbound %d", seed, key.To, executed, inbound)
			}
			_ = ec
		}
	}
}

func itoa(n int) string {
	return fmt.Sprintf("%d", n)
}
