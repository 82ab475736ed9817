package stream

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
)

// sizedTuple reports its value as its wire size, so byte counts differ
// from tuple counts by more than a constant factor.
type sizedTuple int

func (t sizedTuple) SizeBytes() int { return int(t) }

// fanBolt emits two sized tuples per input, counts what it was handed and
// what it sent in counters of its own, and calls probe (when set) between
// the count and the emit — on the task's own goroutine, mid-batch.
type fanBolt struct {
	seen, sent, sentBytes *atomic.Uint64
	probe                 func()
}

func (b fanBolt) Execute(t Tuple, em Emitter) {
	v := int(t.(intTuple))
	b.seen.Add(1)
	for _, out := range []sizedTuple{sizedTuple(1 + v%5), sizedTuple(7 + v%3)} {
		b.sent.Add(1)
		b.sentBytes.Add(uint64(out))
		if b.probe != nil {
			b.probe()
		}
		em.Emit(out)
	}
}

// TestProducerLocalCountersAreExact: counters are kept in the producers and
// folded into the shared ones per batch, so once Run returns they must equal
// a per-tuple count — here on streams that end in the middle of a batch,
// with one producer on the fan → sink edge and with three.
func TestProducerLocalCountersAreExact(t *testing.T) {
	for _, producers := range []int{1, 3} {
		for _, n := range []int{1, 13, 101} {
			const bs = 8
			var seen, sent, sentBytes atomic.Uint64
			tp := New("exact", 4, WithBatchSize(bs))
			tp.AddSpout("src", func(int) Spout { return &sliceSpout{vals: ints(n)} }, 1)
			tp.AddBolt("fan", func(int) Bolt {
				return fanBolt{seen: &seen, sent: &sent, sentBytes: &sentBytes}
			}, producers).SubscribeTo("src", Shuffle{})
			tp.AddBolt("sink", func(int) Bolt { return dropBolt{} }, 1).SubscribeTo("fan", Shuffle{})
			rep, err := runChecked(t, tp)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("%d producers, %d tuples", producers, n)
			if seen.Load() != uint64(n) || sent.Load() != uint64(2*n) {
				t.Fatalf("%s: the bolts saw %d and sent %d", label, seen.Load(), sent.Load())
			}
			sum := func(component string, pick func(*TaskCounters) uint64) (total uint64) {
				for _, tc := range rep.Tasks[component] {
					total += pick(tc)
				}
				return total
			}
			executed := func(tc *TaskCounters) uint64 { return tc.Executed.Load() }
			emitted := func(tc *TaskCounters) uint64 { return tc.Emitted.Load() }
			for _, c := range []struct {
				what      string
				got, want uint64
			}{
				{"src executed", sum("src", executed), uint64(n)},
				{"src emitted", sum("src", emitted), uint64(n)},
				{"src->fan tuples", rep.EdgeTuples("src", "fan"), uint64(n)},
				{"src->fan bytes", rep.Edges[EdgeKey{From: "src", To: "fan"}].Bytes.Load(), uint64(8 * n)},
				{"fan executed", sum("fan", executed), seen.Load()},
				{"fan emitted", sum("fan", emitted), sent.Load()},
				{"fan->sink tuples", rep.EdgeTuples("fan", "sink"), sent.Load()},
				{"fan->sink bytes", rep.Edges[EdgeKey{From: "fan", To: "sink"}].Bytes.Load(), sentBytes.Load()},
				{"sink executed", sum("sink", executed), sent.Load()},
			} {
				if c.got != c.want {
					t.Fatalf("%s: %s = %d, want %d", label, c.what, c.got, c.want)
				}
			}
		}
	}
}

// TestLiveCountersTrailByLessThanABatch scrapes the registry from inside a
// running bolt. A live series may trail the truth, by at most one input
// batch per producer, and may never run ahead of it or of its final value.
func TestLiveCountersTrailByLessThanABatch(t *testing.T) {
	for _, producers := range []int{1, 3} {
		const n, bs = 3000, 8
		reg := obs.NewRegistry()
		var seen, sent, sentBytes atomic.Uint64
		// series sums the samples of one family whose label starts with prefix.
		series := func(name, prefix string) (total uint64) {
			for _, ms := range reg.Snapshot() {
				if ms.Name != name {
					continue
				}
				for _, s := range ms.Samples {
					if strings.HasPrefix(s.Label, prefix) {
						total += uint64(s.Value)
					}
				}
			}
			return total
		}
		// A fan task publishes at the end of every input batch, so it holds
		// back at most bs executed tuples and two emits for each; the probe
		// runs after sent was bumped for the emit under way, hence the +1.
		slackIn, slackOut := uint64(producers*bs), uint64(producers*(2*bs+1))
		var calls, scrapes int
		probe := func() {
			if calls++; calls%97 != 0 {
				return
			}
			scrapes++
			inBefore, outBefore := seen.Load(), sent.Load()
			executed := series("stream_task_executed_total", "fan/")
			tuples := series("stream_edge_tuples_total", "fan->sink")
			pulled := series("stream_task_emitted_total", "src/")
			inAfter, outAfter := seen.Load(), sent.Load()
			// The spout publishes every bs pulls, and whatever a fan task has
			// seen the spout has emitted.
			if pulled > n || pulled+bs < inBefore {
				t.Errorf("%d producers: src emitted scraped %d with %d already seen downstream", producers, pulled, inBefore)
			}
			if executed > inAfter || executed+slackIn < inBefore {
				t.Errorf("%d producers: fan executed scraped %d with %d..%d seen", producers, executed, inBefore, inAfter)
			}
			if tuples > outAfter || tuples+slackOut < outBefore {
				t.Errorf("%d producers: fan->sink tuples scraped %d with %d..%d sent", producers, tuples, outBefore, outAfter)
			}
		}
		tp := New("live", 4, WithBatchSize(bs), WithRegistry(reg))
		tp.AddSpout("src", func(int) Spout { return &sliceSpout{vals: ints(n)} }, 1)
		tp.AddBolt("fan", func(task int) Bolt {
			b := fanBolt{seen: &seen, sent: &sent, sentBytes: &sentBytes}
			if task == 0 {
				b.probe = probe // one task scrapes while the others keep producing
			}
			return b
		}, producers).SubscribeTo("src", Shuffle{})
		tp.AddBolt("sink", func(int) Bolt { return dropBolt{} }, 1).SubscribeTo("fan", Shuffle{})
		rep, err := runChecked(t, tp)
		if err != nil {
			t.Fatal(err)
		}
		if scrapes < 10 {
			t.Fatalf("%d producers: only %d scrapes", producers, scrapes)
		}
		if got := series("stream_task_executed_total", "fan/"); got != n {
			t.Fatalf("%d producers: final fan executed %d, want %d", producers, got, n)
		}
		if got := series("stream_edge_tuples_total", "fan->sink"); got != 2*n || got != rep.EdgeTuples("fan", "sink") {
			t.Fatalf("%d producers: final fan->sink tuples %d, report %d, want %d", producers, got, rep.EdgeTuples("fan", "sink"), 2*n)
		}
	}
}
