package bundle

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/record"
	"repro/internal/similarity"
	"repro/internal/tokens"
	"repro/internal/window"
)

// kernelMatrix is every forced kernel plus auto at cutoffs that exercise
// all three paths on the test streams (tiny BitsetMinLen and GallopRatio
// so short synthetic records still hit the bitset and gallop branches).
var kernelMatrix = []similarity.KernelConfig{
	{Mode: similarity.KernelLinear},
	{Mode: similarity.KernelGallop},
	{Mode: similarity.KernelBitset},
	{Mode: similarity.KernelAuto},
	{Mode: similarity.KernelAuto, GallopRatio: 2, BitsetMinLen: 4},
}

// TestKernelParityMatchStream is the kernel-choice analogue of the pool
// parity gate: every kernel config must emit the byte-identical ordered
// match stream of the linear reference, at every pool size. Work counters
// are NOT compared across kernels (the kernel mix differs by design);
// within one kernel config, serial-vs-parallel counter parity is covered
// by requireStreams below.
func TestKernelParityMatchStream(t *testing.T) {
	stream := duplicateHeavyStream(rand.New(rand.NewSource(71)), 500, 40)
	kernelParity(t, stream, []int{2, 8}, false)
}

// TestKernelParityLongRecords runs the matrix behind the signature gate:
// the kernels see only the candidates it lets through, and must still agree.
func TestKernelParityLongRecords(t *testing.T) {
	stream := longDuplicateStream(rand.New(rand.NewSource(75)), 500)
	kernelParity(t, stream, []int{3}, true)
}

func kernelParity(t *testing.T, stream []*record.Record, pools []int, wantSigSkip bool) {
	for _, tau := range []float64{0.5, 0.8} {
		want, _ := runSequential(stream, tau, window.Count{N: 80}, Config{Kernel: similarity.KernelConfig{Mode: similarity.KernelLinear}})
		if tau == 0.5 && len(want) == 0 {
			t.Fatal("degenerate workload: linear reference found no matches")
		}
		for ki, kern := range kernelMatrix {
			cfg := Config{Kernel: kern}
			got, gotStats := runSequential(stream, tau, window.Count{N: 80}, cfg)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("τ=%v kernel#%d (%v): sequential stream diverges from linear (lengths %d vs %d)",
					tau, ki, kern.Mode, len(got), len(want))
			}
			if wantSigSkip && gotStats.BundleSigSkip == 0 {
				t.Fatalf("τ=%v kernel#%d (%v): the signature gate never skipped a bundle", tau, ki, kern.Mode)
			}
			for _, p := range pools {
				gotP, statsP := runParallel(stream, tau, window.Count{N: 80}, cfg, p)
				requireStreams(t, fmt.Sprintf("τ=%v kernel#%d P=%d", tau, ki, p),
					gotP, want, statsP, gotStats)
			}
		}
	}
}

// TestKernelParityOneByOne re-checks kernel parity under the E8 ablation
// config, whose verify path (full member merges) dispatches on the
// members' full packed forms.
func TestKernelParityOneByOne(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	stream := duplicateHeavyStream(rng, 300, 30)
	want, _ := runSequential(stream, 0.6, window.Count{N: 100}, Config{OneByOneVerify: true})
	for ki, kern := range kernelMatrix {
		got, _ := runSequential(stream, 0.6, window.Count{N: 100}, Config{OneByOneVerify: true, Kernel: kern})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("kernel#%d (%v): one-by-one stream diverges (lengths %d vs %d)",
				ki, kern.Mode, len(got), len(want))
		}
	}
}

// TestKernelCountersFire checks that the forced and low-cutoff-auto
// configs actually exercise their kernels (otherwise the parity matrix
// would vacuously pass on the linear path) and that the new prune
// counters move on a grouping-heavy stream.
func TestKernelCountersFire(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	stream := duplicateHeavyStream(rng, 400, 30)
	run := func(cfg Config) Stats {
		_, st := runSequential(stream, 0.6, window.Count{N: 100}, cfg)
		return st
	}
	if st := run(Config{Kernel: similarity.KernelConfig{Mode: similarity.KernelGallop}}); st.KernelGallop == 0 || st.KernelBitset != 0 {
		t.Fatalf("forced gallop counters: %+v", st)
	}
	if st := run(Config{Kernel: similarity.KernelConfig{Mode: similarity.KernelBitset}}); st.KernelBitset == 0 {
		t.Fatalf("forced bitset never ran the bitset kernel")
	}
	if st := run(Config{Kernel: similarity.KernelConfig{Mode: similarity.KernelLinear}}); st.KernelGallop != 0 || st.KernelBitset != 0 {
		t.Fatalf("forced linear ran a non-linear kernel: %+v", st)
	}
	st := run(Config{Kernel: similarity.KernelConfig{Mode: similarity.KernelAuto, GallopRatio: 2, BitsetMinLen: 4}})
	if st.KernelGallop == 0 || st.KernelBitset == 0 || st.KernelLinear == 0 {
		t.Fatalf("low-cutoff auto should mix all kernels: %+v", st)
	}
	if st.Pruned() == 0 {
		t.Fatalf("no candidate was ever pruned pre-verify: %+v", st)
	}
}

// TestAdaptiveMinLenNeverChangesResults pins satellite guarantee: kernel
// adaptation moves BitsetMinLen (within its clamps) but can never change
// the match stream. The stream is near-duplicates of long dense records
// over a narrow universe: unrelated records of that shape are rejected by
// the signature gate before any kernel runs, so only pairs similar enough
// to pass it — here mostly a duplicate probing its original's singleton
// bundle, both sides packed — feed the kernel mix. The bitset share is
// high and the cutoff is driven downward.
func TestAdaptiveMinLenNeverChangesResults(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	var stream []*record.Record
	var protos [][]tokens.Rank
	for i := 0; i < 2*adaptInterval+50; i++ {
		var set []tokens.Rank
		if len(protos) > 0 && rng.Float64() < 0.4 {
			set = append(set, protos[len(protos)-1-rng.Intn(min(len(protos), 40))]...)
			for k := 1 + rng.Intn(3); k > 0; k-- {
				set[rng.Intn(len(set))] = tokens.Rank(rng.Intn(160))
			}
		} else {
			for len(set) < 90 {
				set = append(set, tokens.Rank(rng.Intn(160)))
			}
			protos = append(protos, set)
		}
		stream = append(stream, rec(record.ID(i), set...))
	}
	want, _ := runSequential(stream, 0.5, window.Count{N: 200}, Config{})
	if len(want) == 0 {
		t.Fatal("degenerate workload: no matches")
	}
	cfgA := Config{Kernel: similarity.KernelConfig{AdaptiveMinLen: true}}
	bx := New(params(0.5), window.Count{N: 200}, cfgA)
	var got []emitted
	for _, r := range stream {
		bx.Process(r, func(m Match) {
			got = append(got, emitted{r.ID, m.Rec.ID, m.Overlap, m.Sim})
		})
	}
	requireStreams(t, "adaptive", got, want, Stats{}, Stats{})
	cut := bx.Config().Kernel.BitsetMinLen
	if cut < adaptMinLen || cut > adaptMaxLen {
		t.Fatalf("adapted cutoff %d outside clamps", cut)
	}
	if cut == 64 {
		st := bx.Stats()
		t.Fatalf("cutoff never adapted on a bitset-heavy stream: %d (linear %d gallop %d bitset %d)",
			cut, st.KernelLinear, st.KernelGallop, st.KernelBitset)
	}
}
