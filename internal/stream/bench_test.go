package stream

import (
	"fmt"
	"sync"
	"testing"
)

// ptrTuple is a pre-boxed tuple for benchmarks: emitting it exercises only
// the transport, not interface boxing of the payload.
type ptrTuple struct{ v int }

func (*ptrTuple) SizeBytes() int { return 8 }

// emitPath wires an emitter to one batched edge with a live consumer that
// recycles every batch into the pool, as a running topology does. stop
// flushes the emitter and waits for the consumer.
func emitPath(bs int) (em *emitter, stop func()) {
	pool := &sync.Pool{New: func() interface{} {
		return &batch{items: make([]Tuple, 0, bs)}
	}}
	dest := &taskRun{in: make(chan *batch, 64), pool: pool}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for ba := range dest.in {
			for i := range ba.items {
				ba.items[i] = nil
			}
			ba.items = ba.items[:0]
			pool.Put(ba)
		}
	}()
	out := &edgeOut{
		stream:    DefaultStream,
		sel:       Shuffle{}.NewSelector(1),
		dests:     []*taskRun{dest},
		counters:  &EdgeCounters{},
		batchSize: bs,
		pending:   make([]*batch, 1),
	}
	em = &emitter{outs: []*edgeOut{out}, counters: &TaskCounters{}, pool: pool}
	return em, func() {
		em.flush()
		close(dest.in)
		wg.Wait()
	}
}

// BenchmarkEmitPath measures the steady-state cost of one EmitTo through a
// batched edge with a live consumer: batching plus the pooled batches keep
// it allocation-flat (~0 allocs/op).
func BenchmarkEmitPath(b *testing.B) {
	for _, bs := range []int{1, 64} {
		b.Run(fmt.Sprintf("batch-%d", bs), func(b *testing.B) {
			em, stop := emitPath(bs)
			tu := &ptrTuple{v: 7}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				em.Emit(tu)
			}
			em.flush()
			b.StopTimer()
			stop()
		})
	}
}

// BenchmarkTransport pushes tuples through a three-stage pipeline at
// several batch sizes; per-tuple cost should drop sharply from batch 1 to
// 64 because channel synchronization is amortized across the batch.
func BenchmarkTransport(b *testing.B) {
	const n = 100000
	for _, bs := range []int{1, 8, 64, 256} {
		b.Run(fmt.Sprintf("batch-%d", bs), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tp := New("bench", 16, WithBatchSize(bs))
				tp.AddSpout("src", func(int) Spout { return &sliceSpout{vals: ints(n)} }, 1)
				tp.AddBolt("mid", func(int) Bolt { return doubleBolt{} }, 4).
					SubscribeTo("src", Shuffle{})
				tp.AddBolt("sink", func(int) Bolt { return countBolt{c: new(int)} }, 1).
					SubscribeTo("mid", Shuffle{})
				if _, err := tp.Run(); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(n)
		})
	}
}

// countBolt counts tuples without retaining them.
type countBolt struct{ c *int }

// Execute implements Bolt.
func (c countBolt) Execute(Tuple, Emitter) { *c.c++ }
