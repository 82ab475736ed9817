package stream

import (
	"fmt"
	"sync/atomic"
	"testing"
)

// sizedTuple reports its value as its wire size, so byte counts differ
// from tuple counts by more than a constant factor.
type sizedTuple int

func (t sizedTuple) SizeBytes() int { return int(t) }

// fanBolt emits two sized tuples per input and counts what it was handed
// and what it sent in counters of its own.
type fanBolt struct {
	seen, sent, sentBytes *atomic.Uint64
}

func (b fanBolt) Execute(t Tuple, em Emitter) {
	v := int(t.(intTuple))
	b.seen.Add(1)
	for _, out := range []sizedTuple{sizedTuple(1 + v%5), sizedTuple(7 + v%3)} {
		b.sent.Add(1)
		b.sentBytes.Add(uint64(out))
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
