package bundle

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/record"
	"repro/internal/window"
)

// processPar mirrors Index.Process with the probe fanned over pool — the
// sequence bundledJoiner.Step performs per record.
func processPar(bx *Index, pool *Pool, r *record.Record, emit func(Match)) {
	bx.Evict(r.ID, r.Time)
	best, ok := bx.ProbePar(pool, r, emit)
	if !ok {
		bx.InsertSingleton(r)
	} else {
		bx.Insert(r, best)
	}
	bx.stats.Records++
}

// emitted is one match flattened for ordered comparison: probe identity
// plus everything the match carries.
type emitted struct {
	Probe   record.ID
	Partner record.ID
	Overlap int
	Sim     float64
}

func runSequential(stream []*record.Record, tau float64, win window.Policy, cfg Config) ([]emitted, Stats) {
	bx := New(params(tau), win, cfg)
	var out []emitted
	for _, r := range stream {
		bx.Process(r, func(m Match) {
			out = append(out, emitted{r.ID, m.Rec.ID, m.Overlap, m.Sim})
		})
	}
	return out, bx.Stats()
}

func runParallel(stream []*record.Record, tau float64, win window.Policy, cfg Config, p int) ([]emitted, Stats) {
	bx := New(params(tau), win, cfg)
	pool := NewPool(p)
	defer pool.Close()
	var out []emitted
	for _, r := range stream {
		processPar(bx, pool, r, func(m Match) {
			out = append(out, emitted{r.ID, m.Rec.ID, m.Overlap, m.Sim})
		})
	}
	return out, bx.Stats()
}

func at(xs []emitted, i int) interface{} {
	if i < len(xs) {
		return xs[i]
	}
	return "<end of stream>"
}

// requireStreams asserts byte-identical ordered match streams and identical
// work counters between a parallel run and the sequential reference.
func requireStreams(t *testing.T, label string, got, want []emitted, gotStats, wantStats Stats) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		t.Fatalf("%s: match stream diverges at position %d: got %v want %v (lengths %d vs %d)",
			label, i, at(got, i), at(want, i), len(got), len(want))
	}
	if gotStats != wantStats {
		t.Fatalf("%s: stats diverge:\n got  %+v\n want %+v", label, gotStats, wantStats)
	}
}

// TestParallelParityMatchStream is the tentpole determinism gate at the
// index level: for every pool size the parallel probe must emit the exact
// ordered match stream of the sequential Probe — same matches, same order,
// same similarity bytes — and accumulate the exact same work counters, so
// insertion decisions (and therefore index evolution) are identical too.
func TestParallelParityMatchStream(t *testing.T) {
	stream := duplicateHeavyStream(rand.New(rand.NewSource(47)), 500, 40)
	parallelParity(t, stream, []int{1, 2, 4, 8}, false)
}

// TestParallelParityLongRecords is the same gate with the signature filter
// engaged: its counters are bumped in the single-writer phase, so they too
// must come out identical at every pool size.
func TestParallelParityLongRecords(t *testing.T) {
	stream := longDuplicateStream(rand.New(rand.NewSource(49)), 600)
	parallelParity(t, stream, []int{1, 3}, true)
}

func parallelParity(t *testing.T, stream []*record.Record, pools []int, wantSigSkip bool) {
	for _, tau := range []float64{0.5, 0.8} {
		for _, win := range []window.Policy{window.Unbounded{}, window.Count{N: 60}} {
			want, wantStats := runSequential(stream, tau, win, Config{})
			if tau == 0.5 && len(want) == 0 {
				t.Fatal("degenerate workload: sequential run found no matches")
			}
			if wantSigSkip && wantStats.BundleSigSkip == 0 {
				t.Fatalf("τ=%v win=%v: the signature gate never skipped a bundle", tau, win)
			}
			for _, p := range pools {
				got, gotStats := runParallel(stream, tau, win, Config{}, p)
				requireStreams(t, fmt.Sprintf("τ=%v win=%v P=%d", tau, win, p),
					got, want, gotStats, wantStats)
			}
		}
	}
}

// TestParallelParityAcrossConfigs re-checks parity under the verification
// and grouping variants: one-by-one verification (different counter mix),
// tight member caps (insertion rejections), and aggressive grouping.
func TestParallelParityAcrossConfigs(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	stream := duplicateHeavyStream(rng, 400, 30)
	configs := []Config{
		{OneByOneVerify: true},
		{MaxMembers: 3},
		{GroupThreshold: 0.95},
		{MinCoreFrac: 0.9},
	}
	for ci, cfg := range configs {
		want, wantStats := runSequential(stream, 0.6, window.Count{N: 100}, cfg)
		for _, p := range []int{2, 8} {
			got, gotStats := runParallel(stream, 0.6, window.Count{N: 100}, cfg, p)
			requireStreams(t, fmt.Sprintf("cfg#%d P=%d", ci, p), got, want, gotStats, wantStats)
		}
	}
}

// TestPoolCloseIdempotent covers the lifecycle edges: double close, closing
// a size-1 pool (no goroutines), and the nil pool's snapshot.
func TestPoolCloseIdempotent(t *testing.T) {
	p := NewPool(4)
	if p.Size() != 4 {
		t.Fatalf("size: %d", p.Size())
	}
	p.Close()
	p.Close()

	one := NewPool(1)
	one.Close()
	one.Close()

	var nilPool *Pool
	nilPool.Close()
	if s := nilPool.Snapshot(); s.Size != 1 {
		t.Fatalf("nil pool snapshot size: %d", s.Size)
	}
	if np := NewPool(0); np.Size() != 1 {
		t.Fatalf("clamp: NewPool(0) size %d", np.Size())
	}
}

// TestPoolSnapshotCounters checks the accounting the obs layer scrapes:
// fanned rounds happen, and the per-context verified counters sum exactly
// to the fanned-candidate total.
func TestPoolSnapshotCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	// Never group: every record becomes its own bundle, so probes see many
	// candidate bundles and reliably cross the fanout cutoff.
	stream := duplicateHeavyStream(rng, 400, 25)
	bx := New(params(0.5), window.Unbounded{}, Config{GroupThreshold: 2.0})
	pool := NewPool(3)
	defer pool.Close()
	for _, r := range stream {
		processPar(bx, pool, r, func(Match) {})
	}
	s := pool.Snapshot()
	if s.Size != 3 || len(s.PerCtx) != 3 {
		t.Fatalf("snapshot shape: %+v", s)
	}
	if s.RoundsParallel == 0 {
		t.Fatal("no probe ever fanned out on a candidate-heavy stream")
	}
	var per uint64
	for _, v := range s.PerCtx {
		per += v
	}
	if per != s.Fanned {
		t.Fatalf("per-context verified %d != fanned %d", per, s.Fanned)
	}
	if s.PerCtx[0] == 0 {
		t.Fatal("the probing goroutine's own context did no work")
	}
	if v := pool.CtxVerified(0); v != s.PerCtx[0] {
		t.Fatalf("CtxVerified(0) = %d, snapshot says %d", v, s.PerCtx[0])
	}
}

// BenchmarkParallelVerify drives the full per-record pipeline (evict,
// parallel probe, insert) at each pool size over a duplicate-heavy windowed
// stream. On a multi-core box P>1 shows the verify-phase speedup; on one
// core it measures pool overhead (the parity tests guarantee the output is
// identical either way).
// BenchmarkProbePar isolates the probe path (no inserts after warmup):
// a pre-built index is probed with fresh records, so the numbers track
// candidate claiming and the verify fan-out rather than index
// maintenance. This is the before/after benchmark for chunked candidate
// claiming (see claimChunk) — the contended atomic on j.next is the
// dominant cost at high P with cheap per-candidate work.
func BenchmarkProbePar(b *testing.B) {
	rng := rand.New(rand.NewSource(73))
	stream := duplicateHeavyStream(rng, 3000, 400)
	for _, p := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
			bx := New(params(0.5), window.Unbounded{}, Config{})
			pool := NewPool(p)
			defer pool.Close()
			for i, src := range stream {
				r := &record.Record{ID: record.ID(i), Time: int64(i), Tokens: src.Tokens}
				processPar(bx, pool, r, func(Match) {})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				src := stream[i%len(stream)]
				r := &record.Record{ID: record.ID(len(stream) + i), Time: int64(len(stream) + i), Tokens: src.Tokens}
				if p > 1 {
					bx.ProbePar(pool, r, func(Match) {})
				} else {
					bx.Probe(r, func(Match) {})
				}
			}
		})
	}
}

func BenchmarkParallelVerify(b *testing.B) {
	rng := rand.New(rand.NewSource(61))
	stream := duplicateHeavyStream(rng, 2000, 30)
	for _, p := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
			bx := New(params(0.5), window.Count{N: 500}, Config{})
			pool := NewPool(p)
			defer pool.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				src := stream[i%len(stream)]
				r := &record.Record{ID: record.ID(i), Time: int64(i), Tokens: src.Tokens}
				processPar(bx, pool, r, func(Match) {})
			}
		})
	}
}
