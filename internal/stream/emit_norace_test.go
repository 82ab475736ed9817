//go:build !race

package stream

import "testing"

// TestEmitPathAllocs is BenchmarkEmitPath's 0 allocs/op as a test: Emit,
// the edge's send and the fold into the shared counters allocate nothing
// once the pool holds enough batches. The race detector makes sync.Pool
// drop items at random, so the file is left out of -race builds.
func TestEmitPathAllocs(t *testing.T) {
	for _, bs := range []int{1, 64} {
		em, stop := emitPath(bs)
		tu := &ptrTuple{v: 7}
		for i := 0; i < 1000; i++ { // fill the pool
			em.Emit(tu)
		}
		if n := testing.AllocsPerRun(1000, func() { em.Emit(tu) }); n != 0 {
			t.Errorf("batch %d: Emit allocates %v times per tuple", bs, n)
		}
		stop()
	}
}
