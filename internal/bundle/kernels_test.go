package bundle

import (
	"math/rand"
	"testing"

	"repro/internal/record"
	"repro/internal/similarity"
	"repro/internal/window"
	"repro/internal/workload"
)

// TestKernelParityMatchStream checks the dispatched kernels against the
// linear reference pair by pair: every emitted overlap is the
// similarity.IntersectSize of the two records, the emitted pairs are
// exactly brute force's, and both kernels ran — so the galloping merges are
// held to the linear merge's answers, not to their own.
func TestKernelParityMatchStream(t *testing.T) {
	stream := duplicateHeavyStream(rand.New(rand.NewSource(71)), 500, 40)
	kernelParity(t, stream, Config{}, false)
}

// TestKernelParityLongRecords runs the same check behind the signature
// gate: the kernels see only the candidates it lets through.
func TestKernelParityLongRecords(t *testing.T) {
	stream := longDuplicateStream(rand.New(rand.NewSource(75)), 500)
	kernelParity(t, stream, Config{}, true)
}

// TestKernelParityOneByOne re-checks it under the E8 ablation config, whose
// verify path dispatches on the members' full token sets.
func TestKernelParityOneByOne(t *testing.T) {
	stream := duplicateHeavyStream(rand.New(rand.NewSource(73)), 300, 30)
	kernelParity(t, stream, Config{OneByOneVerify: true}, false)
}

func kernelParity(t *testing.T, stream []*record.Record, cfg Config, wantSigSkip bool) {
	byID := make(map[record.ID]*record.Record, len(stream))
	for _, r := range stream {
		byID[r.ID] = r
	}
	win := window.Count{N: 80}
	for _, tau := range []float64{0.5, 0.8} {
		got, st := runSequential(stream, tau, win, cfg)
		want := bruteForce(stream, tau, win)
		if tau == 0.5 && len(want) == 0 {
			t.Fatal("degenerate workload: brute force found no matches")
		}
		if len(got) != len(want) {
			t.Fatalf("τ=%v: %d matches, brute force has %d", tau, len(got), len(want))
		}
		for _, e := range got {
			a, b := byID[e.Probe], byID[e.Partner]
			if !want[record.NewPair(e.Probe, e.Partner, 0)] {
				t.Fatalf("τ=%v: emitted pair (%d,%d) is not a brute-force match", tau, e.Probe, e.Partner)
			}
			if o := similarity.IntersectSize(a.Tokens, b.Tokens); e.Overlap != o {
				t.Fatalf("τ=%v pair (%d,%d): overlap %d, linear reference %d", tau, e.Probe, e.Partner, e.Overlap, o)
			}
		}
		// One-by-one merges full 3–12-token sets, which never reach 8:1;
		// the batch path's deltas do.
		if st.KernelLinear == 0 || (st.KernelGallop == 0 && !cfg.OneByOneVerify) {
			t.Fatalf("τ=%v: a kernel never ran (linear %d, gallop %d)", tau, st.KernelLinear, st.KernelGallop)
		}
		if wantSigSkip && st.BundleSigSkip == 0 {
			t.Fatalf("τ=%v: the signature gate never skipped a bundle", tau)
		}
	}
}

// TestKernelCountersFire checks that every merge the probe made was
// counted by exactly one kernel, and that the prune counters move, on two
// streams: AOL-like — short records, where nearly every verified member is
// an exact duplicate of its bundle's core and takes the merge-free path —
// and Enron-like — long records whose few-token deltas and unions are
// merged against ~100-token probes, so skewed merges are structural and
// both kernels must run.
func TestKernelCountersFire(t *testing.T) {
	for _, tc := range []struct {
		prof workload.Profile
		tau  float64
	}{{workload.AOLLike(42), 0.8}, {workload.EnronLike(42), 0.7}} {
		stream := workload.NewGenerator(tc.prof).Generate(8000)
		_, st := runSequential(stream, tc.tau, window.Count{N: 2000}, Config{})
		// A singleton probe and a delta merge each end in Verified++; a
		// multi-member bundle adds its union and core merges; a delta-free
		// member is verified without one.
		if merges := st.Verified + st.UnionOverlaps + st.CoreOverlaps - st.DeltaFree; st.KernelLinear+st.KernelGallop != merges {
			t.Fatalf("%s: linear %d + gallop %d != %d merges made: %+v", tc.prof.Name, st.KernelLinear, st.KernelGallop, merges, st)
		}
		if st.Pruned() == 0 {
			t.Fatalf("%s: no candidate was ever pruned pre-verify: %+v", tc.prof.Name, st)
		}
		if st.DeltaFree == 0 {
			t.Fatalf("%s: no member was verified without a merge: %+v", tc.prof.Name, st)
		}
		if tc.prof.Name == "ENRON-like" && (st.KernelGallop == 0 || st.KernelLinear == 0) {
			t.Fatalf("%s: a kernel never ran: %+v", tc.prof.Name, st)
		}
	}
}
