package bundle

import (
	"fmt"
	"math/bits"
	"slices"
	"testing"

	"repro/internal/filter"
	"repro/internal/record"
	"repro/internal/similarity"
	"repro/internal/tokens"
	"repro/internal/window"
)

// regimeMaxLen is the longest length the brute-force regime checks.
const regimeMaxLen = 512

// pairsBrute reports whether a probe of a tokens can match a stored record
// of b tokens under the index's predicates: b in a's band, at an overlap
// both could hold.
func pairsBrute(p filter.Params, a, b int) bool {
	lo, hi := p.LengthBounds(a)
	return lo <= b && b <= hi && p.RequiredOverlap(a, b) <= min(a, b)
}

// containedBrute decides by brute force whether every match of a record of
// l tokens, in either direction, is at overlap min(l, m): the shorter set a
// subset of the longer. Partner lengths up to 4l+2 cover every band at
// τ >= 0.5; an unbounded band (Overlap) never qualifies.
func containedBrute(p filter.Params, l int) bool {
	if _, hi := p.LengthBounds(l); hi > 4*l+2 {
		return false
	}
	for m := 1; m <= 4*l+2; m++ {
		if (pairsBrute(p, l, m) && p.RequiredOverlap(l, m) < min(l, m)) ||
			(pairsBrute(p, m, l) && p.RequiredOverlap(m, l) < min(l, m)) {
			return false
		}
	}
	return true
}

// twinBrute is the twin (equality) regime by brute force: two records of l
// tokens need all l in common, and no other length pairs with l.
func twinBrute(p filter.Params, l int) bool {
	if !pairsBrute(p, l, l) || p.RequiredOverlap(l, l) != l {
		return false
	}
	for m := 1; m <= 4*l+2; m++ {
		if m != l && (pairsBrute(p, l, m) || pairsBrute(p, m, l)) {
			return false
		}
	}
	return true
}

// masks returns the skip masks of a record of l tokens' keys and lookups.
func (bx *Index) masks(l int) (keys, looks []uint16) {
	return bx.keys[min(l, maxKeyed+1)], bx.looks[min(l, maxKeyed+1)]
}

// keyedBrute returns, for every length m, how many subset keys and subset
// lookups a run 1..c gives it (maxKeyed+1 standing for "more than the
// budget"), and the lengths with any.
func keyedBrute(p filter.Params, c int) (keys, looks map[int]int) {
	keys, looks = make(map[int]int), make(map[int]int)
	for k := 1; k <= min(c, regimeMaxLen); k++ {
		for m := k + 1; m <= 4*k+2; m++ {
			for _, dir := range []struct {
				n  map[int]int
				ok bool
			}{{keys, pairsBrute(p, k, m)}, {looks, pairsBrute(p, m, k)}} {
				if !dir.ok {
					continue
				}
				if m > maxKeyed {
					dir.n[m] = maxKeyed + 1
				} else {
					dir.n[m] = min(dir.n[m]+binomial(m, k), maxKeyed+1)
				}
			}
		}
	}
	return keys, looks
}

// binomial is C(n, k), for n ≤ maxKeyed.
func binomial(n, k int) int {
	c := 1
	for i := 1; i <= k; i++ {
		c = c * (n - k + i) / i
	}
	return c
}

// TestEqualityRegimeEdges pins the containment regime's domain and its
// exactness at the edges. cMax must equal the brute-force run — every
// length 1..cMax contained, to 512 — cut back to the longest prefix whose
// subset keys and lookups stay within the budget of 16 per length, for
// each function and threshold; it never falls below the twin run, whose
// lengths carry no keys. Each length's skip masks must be exactly its
// admissible subsets. And at lengths cMax, cMax+1 and every length with
// keys or lookups, duplicates, one-token supersets and subsets, subset and
// superset chains and empty records through a count window must emit
// exactly the naive scan's pairs, each once, at their true overlap.
func TestEqualityRegimeEdges(t *testing.T) {
	const maxLen = regimeMaxLen
	funcs := []similarity.Func{similarity.Jaccard, similarity.Cosine, similarity.Dice, similarity.Overlap}
	taus := []float64{0.5, 0.6, 2.0 / 3, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95, 0.99, 1}
	got := make(map[string]int)
	for _, f := range funcs {
		for _, tau := range taus {
			p := filter.Params{Func: f, Threshold: tau}
			label := fmt.Sprintf("%v τ=%.4g", f, tau)
			bx := New(p, window.Unbounded{}, Config{})
			got[label] = bx.cMax
			run, twins := 0, 0
			for l := 1; l <= maxLen && containedBrute(p, l); l++ {
				run = l
			}
			for l := 1; l <= maxLen && twinBrute(p, l); l++ {
				twins = l
			}
			want := run
			for ; want > 0; want-- {
				keys, looks := keyedBrute(p, want)
				over := false
				for _, n := range keys {
					over = over || n > maxKeyed
				}
				for _, n := range looks {
					over = over || n > maxKeyed
				}
				if !over {
					break
				}
			}
			if bx.cMax != want && !(want == maxLen && bx.cMax >= maxLen) {
				t.Fatalf("%s: cMax %d, brute force %d (contained run %d)", label, bx.cMax, want, run)
			}
			if bx.cMax < twins {
				t.Fatalf("%s: cMax %d below the twin run %d", label, bx.cMax, twins)
			}
			keys, looks := keyedBrute(p, bx.cMax)
			edges := []int{bx.cMax, bx.cMax + 1}
			for m := 1; m <= maxKeyed; m++ {
				bk, bl := bx.masks(m)
				if !admissible(p, bx.cMax, m, bk, true) || !admissible(p, bx.cMax, m, bl, false) ||
					len(bk) != keys[m] || len(bl) != looks[m] {
					t.Fatalf("%s, length %d: keys %b, lookups %b; brute force %d and %d", label, m, bk, bl, keys[m], looks[m])
				}
				if len(bk)+len(bl) > 0 && m > bx.cMax+1 {
					edges = append(edges, m)
				}
			}
			if n := New(p, window.Unbounded{}, Config{GroupThreshold: 1.01}).cMax; n != 0 {
				t.Fatalf("%s: λ > 1 keeps a containment regime up to length %d", label, n)
			}
			for _, l := range edges {
				edgeStream(t, label, p, l)
			}
		}
	}
	t.Logf("cMax by function and τ: %v", got)
	for label, want := range map[string]int{
		"jaccard τ=0.8": 7, "jaccard τ=0.7": 4, "jaccard τ=0.75": 5, "cosine τ=0.8": 4, "dice τ=0.8": 4,
		"jaccard τ=0.95": 18, "jaccard τ=0.99": 98, "overlap τ=0.8": 0, "overlap τ=1": 0,
	} {
		if got[label] != want {
			t.Errorf("%s: cMax %d, want %d", label, got[label], want)
		}
	}
	if k, l := New(params(0.8), window.Unbounded{}, Config{}).masks(8); len(k) != 8 || len(l) != 8 {
		t.Errorf("Jaccard 0.8: 8-token records carry %d keys and %d lookups, want 8 and 8", len(k), len(l))
	}

	// {a,b,c} ⊂ {a,b,c,d} has Jaccard 0.75: at τ 0.75 the 4-token probe
	// finds the 3-token record by a subset lookup.
	bx := New(filter.Params{Func: similarity.Jaccard, Threshold: 0.75}, window.Unbounded{}, Config{})
	var ms []Match
	for i, r := range []*record.Record{rec(0, 1, 2, 3), rec(1, 1, 2, 3, 4), rec(2), rec(3)} {
		bx.Process(r, func(m Match) {
			if i != 1 {
				t.Fatalf("record %d matched %d", i, m.ID)
			}
			ms = append(ms, m)
		})
	}
	if st := bx.Stats(); len(ms) != 1 || ms[0].ID != 0 || ms[0].Overlap != 3 || ms[0].Sim != 0.75 || st.TwinMatches != 1 || st.Scanned != 0 {
		t.Fatalf("Jaccard 0.75, {1,2,3} then {1,2,3,4}: %+v, %+v", ms, st)
	}
}

// admissible reports whether masks are each subset of a record of m tokens
// the run 1..c admits, once each: a key's subset size k pairs with m as the
// probe, a lookup's with m as the stored record.
func admissible(p filter.Params, c, m int, masks []uint16, key bool) bool {
	seen := make(map[uint16]bool)
	for _, s := range masks {
		k := m - bits.OnesCount16(s)
		ok := pairsBrute(p, m, k)
		if key {
			ok = pairsBrute(p, k, m)
		}
		if seen[s] || s>>m != 0 || k < 1 || k >= m || k > c || !ok {
			return false
		}
		seen[s] = true
	}
	return true
}

// edgeStream streams records of about l tokens built to sit on the regime's
// edge — duplicates of two base sets that share all but one token, their
// one-token supersets and subsets, chains of subsets down to l-3 tokens and
// supersets up to l+3, and empty records — through a count window of 7
// and compares the emitted pairs with the naive scan.
func edgeStream(t *testing.T, label string, p filter.Params, l int) {
	t.Helper()
	base := func(first tokens.Rank) []tokens.Rank {
		ts := make([]tokens.Rank, 0, l+1)
		for i := 0; i < l; i++ {
			ts = append(ts, first+tokens.Rank(i))
		}
		return ts
	}
	drop := func(ts []tokens.Rank, at ...int) []tokens.Rank {
		out := slices.Clone(ts)
		for i := len(at) - 1; i >= 0; i-- {
			if 0 <= at[i] && at[i] < len(out) {
				out = slices.Delete(out, at[i], at[i]+1)
			}
		}
		return out
	}
	add := func(ts []tokens.Rank, extra ...tokens.Rank) []tokens.Rank {
		return tokens.Dedup(append(slices.Clone(ts), extra...))
	}
	a, b := base(10), base(11) // |a ∩ b| = l-1
	shapes := [][]tokens.Rank{
		a, a, b, add(a, 9000), a, nil, b, b,
		a, drop(a, l-1), a, add(b, 9001), nil, a, b, a,
		drop(b, l-1), a, a, b, a, a,
		// a subset chain under a and a superset chain over it, interleaved
		drop(a, 0), add(a, 5), drop(a, 0, 2), add(a, 5, 9000), a, drop(a, 1, 2, 3),
		add(a, 5, 6, 9000), drop(a, 0), a, add(a, 9002), drop(a, 0, 2), add(a, 5),
		add(b, 5), drop(b, 1), b, add(b, 5, 6), drop(b, 0, 1), b,
	}
	var stream []*record.Record
	for i, ts := range shapes {
		stream = append(stream, rec(record.ID(i), ts...))
	}
	win := window.Count{N: 7}
	want := bruteForce(stream, p, win)
	bx := New(p, win, Config{})
	seen := make(map[record.Pair]bool)
	for _, r := range stream {
		bx.Process(r, func(m Match) {
			pr := record.NewPair(r.ID, m.ID, 0)
			if seen[pr] || !want[pr] || m.Overlap != similarity.IntersectSize(r.Tokens, m.Rec.Tokens) ||
				m.Sim != similarity.FromOverlap(p.Func, m.Overlap, r.Len(), m.Rec.Len()) {
				t.Fatalf("%s, length %d: match %v (overlap %d, sim %v) emitted twice, wrong, or at a wrong overlap", label, l, pr, m.Overlap, m.Sim)
			}
			seen[pr] = true
		})
		checkInvariants(t, bx)
	}
	if len(seen) != len(want) {
		t.Fatalf("%s, length %d: %d pairs, naive scan %d", label, l, len(seen), len(want))
	}
	if st := bx.Stats(); (l > 0 && l <= bx.cMax) && st.TwinProbes == 0 || bx.cMax == 0 && st.TwinProbes > 0 || st.TwinMatches > st.Verified {
		t.Fatalf("%s, length %d (cMax %d): %d containment probes, %d containment matches of %d verified",
			label, l, bx.cMax, st.TwinProbes, st.TwinMatches, st.Verified)
	}
}
