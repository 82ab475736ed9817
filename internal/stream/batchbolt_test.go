package stream

import (
	"sync"
	"testing"
)

// batchRecBolt implements BatchBolt and records every batch it receives.
// Execute must never run once ExecuteBatch exists — the executor hands the
// whole transport batch over in one call.
type batchRecBolt struct {
	mu      sync.Mutex
	batches [][]taggedTuple // guarded by mu
	execs   int             // guarded by mu
}

func (b *batchRecBolt) Execute(Tuple, Emitter) {
	b.mu.Lock()
	b.execs++
	b.mu.Unlock()
}

func (b *batchRecBolt) ExecuteBatch(ts []Tuple, _ Emitter) {
	cp := make([]taggedTuple, len(ts))
	for i, t := range ts {
		cp[i] = t.(taggedTuple)
	}
	b.mu.Lock()
	b.batches = append(b.batches, cp)
	b.mu.Unlock()
}

// TestBatchBoltReceivesWholeBatches checks the BatchBolt contract: batches
// arrive intact (never split, never above the transport batch size), every
// tuple is delivered exactly once, per-producer order is preserved across
// batch boundaries, the per-tuple Execute path is bypassed, and the
// Executed counter still counts tuples.
func TestBatchBoltReceivesWholeBatches(t *testing.T) {
	const perProducer = 400
	for _, bs := range []int{1, 8, 64} {
		tp := New("batchbolt", 8, WithBatchSize(bs))
		tp.AddSpout("src", func(task int) Spout {
			return &taggedSpout{task: task, n: perProducer}
		}, 2)
		tp.AddBolt("sink", func(int) Bolt { return &batchRecBolt{} }, 1).
			SubscribeTo("src", Shuffle{})
		rep, err := runChecked(t, tp)
		if err != nil {
			t.Fatalf("batch %d: %v", bs, err)
		}
		sink := rep.Bolts["sink"][0].(*batchRecBolt)
		if sink.execs != 0 {
			t.Fatalf("batch %d: per-tuple Execute called %d times on a BatchBolt", bs, sink.execs)
		}
		total := 0
		lastSeq := map[int]int{0: -1, 1: -1}
		for _, b := range sink.batches {
			if len(b) == 0 || len(b) > bs {
				t.Fatalf("batch %d: delivered batch of size %d", bs, len(b))
			}
			total += len(b)
			for _, tt := range b {
				if tt.seq <= lastSeq[tt.producer] {
					t.Fatalf("batch %d: producer %d out of order: %d after %d",
						bs, tt.producer, tt.seq, lastSeq[tt.producer])
				}
				lastSeq[tt.producer] = tt.seq
			}
		}
		if total != 2*perProducer {
			t.Fatalf("batch %d: delivered %d tuples, want %d", bs, total, 2*perProducer)
		}
		if got := rep.Tasks["sink"][0].Executed.Load(); got != uint64(total) {
			t.Fatalf("batch %d: Executed counter %d, want %d", bs, got, total)
		}
	}
}

// relayBatchBolt forwards every tuple of every batch downstream — checks
// that a BatchBolt's emitter works mid-batch like any bolt's.
type relayBatchBolt struct{}

func (relayBatchBolt) Execute(Tuple, Emitter) {}
func (relayBatchBolt) ExecuteBatch(ts []Tuple, em Emitter) {
	for _, t := range ts {
		em.Emit(t)
	}
}

// TestBatchBoltEmitsDownstream wires a BatchBolt mid-pipeline and checks
// nothing is lost or reordered on the way to a per-tuple sink.
func TestBatchBoltEmitsDownstream(t *testing.T) {
	const perProducer = 300
	tp := New("batchrelay", 8, WithBatchSize(16))
	tp.AddSpout("src", func(task int) Spout {
		return &taggedSpout{task: task, n: perProducer}
	}, 3)
	tp.AddBolt("relay", func(int) Bolt { return relayBatchBolt{} }, 2).
		SubscribeTo("src", Shuffle{})
	tp.AddBolt("sink", func(int) Bolt { return &orderBolt{} }, 1).
		SubscribeTo("relay", Shuffle{})
	rep, err := runChecked(t, tp)
	if err != nil {
		t.Fatal(err)
	}
	sink := rep.Bolts["sink"][0].(*orderBolt)
	total := 0
	for _, seqs := range sink.got {
		total += len(seqs)
	}
	if total != 3*perProducer {
		t.Fatalf("delivered %d tuples, want %d", total, 3*perProducer)
	}
}
