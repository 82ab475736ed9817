package similarity

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/tokens"
)

func ranks(xs ...tokens.Rank) []tokens.Rank { return xs }

// refIntersect/refSubtract are the obviously-correct references the Into
// variants are checked against.
func refIntersect(a, b []tokens.Rank) []tokens.Rank {
	var out []tokens.Rank
	return IntersectInto(out, a, b)
}

func refSubtract(a, b []tokens.Rank) []tokens.Rank {
	var out []tokens.Rank
	return SubtractInto(out, a, b)
}

// sameRanks compares element-wise, treating nil and empty as equal (the
// Into ops return dst's empty prefix untouched when nothing matches).
func sameRanks(a, b []tokens.Rank) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestIntoInPlaceAliasing checks the documented in-place idiom: dst = a[:0]
// must produce the same result as a fresh destination, for both set ops,
// including the boundary shapes (identical sets, disjoint sets, one side
// empty) where the write cursor runs closest to the read cursor.
func TestIntoInPlaceAliasing(t *testing.T) {
	cases := []struct{ a, b []tokens.Rank }{
		{ranks(1, 3, 5, 7), ranks(3, 4, 5)},
		{ranks(1, 2, 3), ranks(1, 2, 3)}, // identical: every element kept by ∩
		{ranks(1, 2, 3), ranks(7, 8)},    // disjoint: every element kept by \
		{ranks(1, 2, 3), nil},            // empty b
		{nil, ranks(1, 2)},               // empty a
		{ranks(2, 4, 6, 8, 10), ranks(1, 2, 3, 4, 9, 10)},
	}
	for i, c := range cases {
		wantI := refIntersect(c.a, c.b)
		ac := append([]tokens.Rank(nil), c.a...)
		if got := IntersectInto(ac[:0], ac, c.b); !sameRanks(got, wantI) {
			t.Fatalf("case %d: in-place intersect: got %v want %v", i, got, wantI)
		}
		wantS := refSubtract(c.a, c.b)
		ac = append([]tokens.Rank(nil), c.a...)
		if got := SubtractInto(ac[:0], ac, c.b); !sameRanks(got, wantS) {
			t.Fatalf("case %d: in-place subtract: got %v want %v", i, got, wantS)
		}
	}
}

// TestIntoInPlaceRandomized drives the in-place idiom across random sorted
// sets — the cursor-chasing argument must hold for every overlap shape.
func TestIntoInPlaceRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	gen := func() []tokens.Rank {
		n := rng.Intn(30)
		seen := make(map[tokens.Rank]bool)
		var out []tokens.Rank
		for len(out) < n {
			v := tokens.Rank(rng.Intn(40))
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
		sortRanks(out)
		return out
	}
	for i := 0; i < 500; i++ {
		a, b := gen(), gen()
		wantI, wantS := refIntersect(a, b), refSubtract(a, b)
		ac := append([]tokens.Rank(nil), a...)
		if got := IntersectInto(ac[:0], ac, b); !sameRanks(got, wantI) {
			t.Fatalf("iter %d: intersect(%v, %v): got %v want %v", i, a, b, got, wantI)
		}
		ac = append([]tokens.Rank(nil), a...)
		if got := SubtractInto(ac[:0], ac, b); !sameRanks(got, wantS) {
			t.Fatalf("iter %d: subtract(%v, %v): got %v want %v", i, a, b, got, wantS)
		}
	}
}

func sortRanks(xs []tokens.Rank) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// TestIntoZeroCapGrowth: a nil or zero-capacity destination must grow
// without disturbing the inputs, and the result must not share backing
// storage with either input after growth.
func TestIntoZeroCapGrowth(t *testing.T) {
	a := ranks(1, 2, 3, 4, 5, 6, 7, 8)
	b := ranks(2, 4, 6, 8, 10)
	aCopy := append([]tokens.Rank(nil), a...)
	bCopy := append([]tokens.Rank(nil), b...)

	for name, dst := range map[string][]tokens.Rank{
		"nil":     nil,
		"zerocap": make([]tokens.Rank, 0),
	} {
		got := IntersectInto(dst, a, b)
		if !reflect.DeepEqual(got, ranks(2, 4, 6, 8)) {
			t.Fatalf("%s: intersect: %v", name, got)
		}
		got[0] = 99 // must not write through to a or b
		if !reflect.DeepEqual(a, aCopy) || !reflect.DeepEqual(b, bCopy) {
			t.Fatalf("%s: growth aliased an input: a=%v b=%v", name, a, b)
		}
		got = SubtractInto(dst, a, b)
		if !reflect.DeepEqual(got, ranks(1, 3, 5, 7)) {
			t.Fatalf("%s: subtract: %v", name, got)
		}
	}
}

// TestIntoAppendsAfterPrefix: both ops append after dst's existing
// elements — the contract the bundle code relies on when it chains results
// into one scratch buffer.
func TestIntoAppendsAfterPrefix(t *testing.T) {
	dst := ranks(100)
	dst = IntersectInto(dst, ranks(1, 2), ranks(2, 3))
	dst = SubtractInto(dst, ranks(4, 5), ranks(5))
	if !reflect.DeepEqual(dst, ranks(100, 2, 4)) {
		t.Fatalf("chained result: %v", dst)
	}
}

// TestScratchConcurrent hammers the pooled scratch from many goroutines —
// run under -race this is the regression gate for the scratch discipline
// of concurrent worker tasks: buffers from GetRanks are exclusively
// owned between Get and Put, shared inputs are read-only, and results
// computed into pooled scratch (including in-place over a private copy)
// stay correct under interleaving.
func TestScratchConcurrent(t *testing.T) {
	a := ranks(1, 3, 5, 7, 9, 11, 13)
	b := ranks(3, 4, 7, 8, 11, 12)
	wantI := refIntersect(a, b)
	wantS := refSubtract(a, b)

	const goroutines = 8
	const iters = 300
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				buf := GetRanks()
				*buf = IntersectInto((*buf)[:0], a, b)
				if !sameRanks(*buf, wantI) {
					errs <- "intersect into pooled scratch diverged"
					PutRanks(buf)
					return
				}
				*buf = SubtractInto((*buf)[:0], a, b)
				if !sameRanks(*buf, wantS) {
					errs <- "subtract into pooled scratch diverged"
					PutRanks(buf)
					return
				}
				// In-place over a private copy staged in a second pooled
				// buffer — the verifier-local usage pattern.
				tmp := GetRanks()
				*tmp = append((*tmp)[:0], a...)
				*tmp = IntersectInto((*tmp)[:0], *tmp, b)
				if !sameRanks(*tmp, wantI) {
					errs <- "in-place intersect in pooled scratch diverged"
					PutRanks(tmp)
					PutRanks(buf)
					return
				}
				PutRanks(tmp)
				PutRanks(buf)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}
