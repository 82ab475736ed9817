package similarity

import (
	"math/rand"
	"testing"

	"repro/internal/tokens"
)

// genSorted returns n distinct ascending ranks drawn from [0, universe).
func genSorted(rng *rand.Rand, n, universe int) []tokens.Rank {
	if n > universe {
		n = universe
	}
	seen := make(map[tokens.Rank]bool, n)
	out := make([]tokens.Rank, 0, n)
	for len(out) < n {
		v := tokens.Rank(rng.Intn(universe))
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	sortRanks(out)
	return out
}

// refOverlap counts |a∩b| by set membership, independent of any merge.
func refOverlap(a, b []tokens.Rank) int {
	in := make(map[tokens.Rank]bool, len(a))
	for _, x := range a {
		in[x] = true
	}
	o := 0
	for _, x := range b {
		if in[x] {
			o++
		}
	}
	return o
}

// mergeIters is the number of iterations a two-pointer merge of a and b
// runs, the unit VerifySteps counts: one per distinct rank of a∪b up to
// the smaller of the two last ranks, where the first side runs out.
func mergeIters(a, b []tokens.Rank) int {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	end := min(a[len(a)-1], b[len(b)-1])
	seen := make(map[tokens.Rank]bool)
	for _, s := range [][]tokens.Rank{a, b} {
		for _, x := range s {
			if x <= end {
				seen[x] = true
			}
		}
	}
	return len(seen)
}

// mergeState is the merge's state (i, j, o) after its first k iterations.
func mergeState(a, b []tokens.Rank, k int) (i, j, o int) {
	for ; k > 0 && i < len(a) && j < len(b); k-- {
		switch {
		case a[i] == b[j]:
			o++
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return i, j, o
}

// checkLinearKernels holds the two step-counting linear kernels, the ones
// the bundle probe and the naive and prefix joiners run, to their
// contracts on one input: the exact overlap in the merge's iterations;
// ok exactly when |a∩b| >= req, with the overlap exact when ok; and a
// merge resumed at the (i, j, o) it reached after k of its steps (k taken
// modulo its steps + 1) ending with the unsplit merge's overlap and ok,
// the two calls' steps adding up to the unsplit merge's. It also checks
// UnionInto under the in-place aliasing the bundle's union growth uses.
func checkLinearKernels(t *testing.T, a, b []tokens.Rank, req, k int) {
	t.Helper()
	want, iters := refOverlap(a, b), mergeIters(a, b)
	if o, steps := IntersectSizeLinear(a, b); o != want || steps != iters {
		t.Fatalf("IntersectSizeLinear(%v, %v) = (%d, %d steps), want (%d, %d)", a, b, o, steps, want, iters)
	}
	o, steps, ok := VerifyOverlapLinear(a, b, 0, 0, 0, req)
	if ok != (want >= req) || (ok && (o != want || steps != iters)) || (!ok && o >= req) {
		t.Fatalf("VerifyOverlapLinear(%v, %v, req %d) = (%d, %d steps, %v), want ok=%v and (%d, %d steps) when ok",
			a, b, req, o, steps, ok, want >= req, want, iters)
	}
	k %= steps + 1
	i, j, o0 := mergeState(a, b, k)
	if o2, steps2, ok2 := VerifyOverlapLinear(a, b, i, j, o0, req); o2 != o || ok2 != ok || k+steps2 != steps {
		t.Fatalf("resumed at (%d, %d, %d) after %d steps, req %d: (%d, %d steps, %v), want (%d, %d steps, %v)",
			i, j, o0, k, req, o2, k+steps2, ok2, o, steps, ok)
	}

	need := len(a) + len(b)
	buf := make([]tokens.Rank, need)
	shifted := buf[need-len(a):]
	copy(shifted, a)
	got := UnionInto(buf[:0], shifted, b)
	wantU := append(append([]tokens.Rank(nil), a...), SubtractInto(nil, b, a)...)
	sortRanks(wantU)
	if !sameRanks(got, wantU) {
		t.Fatalf("in-place UnionInto(%v, %v) = %v, want %v", a, b, got, wantU)
	}
}

// TestKernelsAgreeRandomized drives the galloping kernel against the
// linear reference, and the step-counting linear kernels against their
// contracts (checkLinearKernels), across random set shapes, including
// heavy skew (the gallop target) and clustered ranks.
func TestKernelsAgreeRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 2000; i++ {
		la, lb := rng.Intn(80), rng.Intn(80)
		if i%3 == 0 { // force skew
			lb = la*16 + rng.Intn(40)
		}
		universe := 1 + rng.Intn(400)
		a := genSorted(rng, la, universe)
		b := genSorted(rng, lb, universe)
		want := IntersectSize(a, b)

		if got, _ := IntersectSizeGallop(a, b); got != want {
			t.Fatalf("iter %d: gallop=%d want %d (a=%v b=%v)", i, got, want, a, b)
		}

		// Bounded variants must agree with VerifyOverlap on the ok
		// decision for every requirement, and return the exact overlap
		// whenever ok.
		for _, req := range []int{0, 1, want, want + 1, len(a)} {
			wantOK := want >= req || req <= 0
			if o, _, ok := VerifyOverlapGallop(a, b, req); ok != wantOK || (ok && o != want) {
				t.Fatalf("iter %d req %d: gallop verify (%d,%v) want (%d,%v)", i, req, o, ok, want, wantOK)
			}
			checkLinearKernels(t, a, b, req, rng.Intn(la+lb+1))
		}
	}
}

// TestKernelEdgeShapes pins the boundary shapes: empty sides, identical
// sets, disjoint sets, single elements at the ends of the other side.
func TestKernelEdgeShapes(t *testing.T) {
	cases := []struct{ a, b []tokens.Rank }{
		{nil, nil},
		{nil, ranks(1, 2, 3)},
		{ranks(5), nil},
		{ranks(1, 2, 3), ranks(1, 2, 3)},
		{ranks(1, 2, 3), ranks(4, 5, 6)},
		{ranks(63, 64, 127, 128), ranks(63, 128)},
		{ranks(0), ranks(0)},
		{ranks(1 << 20), ranks(1<<20-1, 1<<20, 1<<20+1)},
	}
	for i, c := range cases {
		want := IntersectSize(c.a, c.b)
		if got, _ := IntersectSizeGallop(c.a, c.b); got != want {
			t.Fatalf("case %d: gallop=%d want %d", i, got, want)
		}
		if o, _, ok := VerifyOverlapGallop(c.a, c.b, want); !ok || o != want {
			t.Fatalf("case %d: gallop verify (%d,%v) want (%d,true)", i, o, ok, want)
		}
	}
}

// TestKernelConfigDispatch pins the one dispatch rule the bundle hot path
// relies on: gallop iff long >= 8·short, whichever operand is the long one.
func TestKernelConfigDispatch(t *testing.T) {
	cases := []struct {
		la, lb int
		gallop bool
	}{
		{100, 100, false},
		{10, 70, false}, // 7:1
		{10, 79, false},
		{10, 80, true}, // 8:1
		{10, 90, true}, // 9:1
		{1, 7, false},
		{1, 8, true},
		{0, 0, true}, // an empty side gallops: the merge is over at once
		{0, 1, true},
		{0, 500, true},
	}
	for _, c := range cases {
		if got := Gallops(c.la, c.lb); got != c.gallop {
			t.Errorf("Gallops(%d, %d) = %v, want %v", c.la, c.lb, got, c.gallop)
		}
		if got := Gallops(c.lb, c.la); got != c.gallop {
			t.Errorf("Gallops(%d, %d) = %v, want %v (operand order must not matter)", c.lb, c.la, got, c.gallop)
		}
	}
}

// fuzzRanks decodes fuzz bytes into an ascending, deduplicated rank
// slice: each byte is a positive delta (clamped to >= 1), so any input
// yields a valid sorted set.
func fuzzRanks(data []byte) []tokens.Rank {
	out := make([]tokens.Rank, 0, len(data))
	cur := tokens.Rank(0)
	for _, d := range data {
		cur += tokens.Rank(d%97) + 1
		out = append(out, cur)
	}
	return out
}

// FuzzIntersectKernels differentially tests the galloping kernel (and the
// scratch Into ops under the documented dst = a[:0] aliasing contract)
// against the linear-merge reference, and holds the step-counting linear
// kernels and UnionInto to their contracts (checkLinearKernels), resuming
// after kByte steps.
func FuzzIntersectKernels(f *testing.F) {
	f.Add([]byte{1, 2, 3}, []byte{2, 3, 4}, uint8(2), uint8(2))
	f.Add([]byte{}, []byte{5}, uint8(0), uint8(0))
	f.Add([]byte{1, 1, 1, 1, 1, 1, 1, 1}, []byte{4, 4}, uint8(3), uint8(5))
	f.Fuzz(func(t *testing.T, rawA, rawB []byte, reqByte, kByte uint8) {
		a := fuzzRanks(rawA)
		b := fuzzRanks(rawB)
		want := IntersectSize(a, b)
		req := int(reqByte) % (want + 2)

		if got, _ := IntersectSizeGallop(a, b); got != want {
			t.Fatalf("gallop=%d want %d", got, want)
		}
		if o, _, ok := VerifyOverlapGallop(a, b, req); ok != (want >= req) || (ok && o != want) {
			t.Fatalf("gallop verify req=%d: (%d,%v) want (%d,%v)", req, o, ok, want, want >= req)
		}

		// Scratch ops under the in-place aliasing contract.
		ac := append([]tokens.Rank(nil), a...)
		got := IntersectInto(ac[:0], ac, b)
		if len(got) != want {
			t.Fatalf("in-place IntersectInto len=%d want %d", len(got), want)
		}
		ac = append(ac[:0], a...)
		if got := SubtractInto(ac[:0], ac, b); len(got) != len(a)-want {
			t.Fatalf("in-place SubtractInto len=%d want %d", len(got), len(a)-want)
		}
		checkLinearKernels(t, a, b, req, int(kByte))
	})
}

// benchSets builds a deterministic (short, long) pair with roughly half
// the short side present in the long side, at the given length ratio.
func benchSets(short, long int) (a, b []tokens.Rank) {
	rng := rand.New(rand.NewSource(1234))
	b = genSorted(rng, long, long*4)
	a = make([]tokens.Rank, 0, short)
	seen := make(map[tokens.Rank]bool)
	for len(a) < short/2 { // half from b
		v := b[rng.Intn(len(b))]
		if !seen[v] {
			seen[v] = true
			a = append(a, v)
		}
	}
	for len(a) < short { // half fresh
		v := tokens.Rank(rng.Intn(long * 4))
		if !seen[v] {
			seen[v] = true
			a = append(a, v)
		}
	}
	sortRanks(a)
	return a, b
}

// The BenchmarkIntersect* family measures each kernel the bundle probe
// dispatches to, plain and bounded, across the size ratios that drive
// dispatch (1:1, 1:16, 1:256), and UnionInto into a preallocated dst. CI
// asserts 0 allocs/op on all of them.
func benchmarkKernels(b *testing.B, short, long int) {
	sa, sb := benchSets(short, long)
	req := short / 2
	b.Run("linear", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink, _ = IntersectSizeLinear(sa, sb)
		}
	})
	b.Run("gallop", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink, _ = IntersectSizeGallop(sa, sb)
		}
	})
	b.Run("linear-verify", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink, _, _ = VerifyOverlapLinear(sa, sb, 0, 0, 0, req)
		}
	})
	b.Run("gallop-verify", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink, _, _ = VerifyOverlapGallop(sa, sb, req)
		}
	})
	b.Run("union", func(b *testing.B) {
		dst := make([]tokens.Rank, 0, len(sa)+len(sb))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dst = UnionInto(dst[:0], sa, sb)
		}
		sink = len(dst)
	})
}

var sink int

func BenchmarkIntersectEven(b *testing.B)    { benchmarkKernels(b, 1024, 1024) }
func BenchmarkIntersectSkew16(b *testing.B)  { benchmarkKernels(b, 64, 1024) }
func BenchmarkIntersectSkew256(b *testing.B) { benchmarkKernels(b, 16, 4096) }
