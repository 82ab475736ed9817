package bundle

import (
	"fmt"
	"testing"

	"repro/internal/filter"
	"repro/internal/record"
	"repro/internal/similarity"
	"repro/internal/tokens"
	"repro/internal/window"
)

// inRegimeBrute decides by brute force whether a record of l tokens matches
// exactly the records with its own token set under the index's predicates:
// two records of l tokens need all l in common, and no other length m pairs
// with l — neither l in m's band nor m in l's with an overlap both could
// hold. Partner lengths up to 4l+2 cover every band at τ >= 0.5.
func inRegimeBrute(p filter.Params, l int) bool {
	pairs := func(a, b int) bool {
		lo, hi := p.LengthBounds(a)
		return lo <= b && b <= hi && p.RequiredOverlap(a, b) <= min(a, b)
	}
	if !pairs(l, l) || p.RequiredOverlap(l, l) != l {
		return false
	}
	for m := 1; m <= 4*l+2; m++ {
		if m != l && (pairs(l, m) || pairs(m, l)) {
			return false
		}
	}
	return true
}

// TestEqualityRegimeEdges pins the twin table's domain and its exactness at
// the edges. equalityMax must equal the brute-force regime over every length
// up to 512 for each function and threshold, which also proves the regime is
// a prefix 1..L there; and at lengths L and L+1 — the last twin length and
// the first bundled one — duplicates, one-token supersets and subsets and
// empty records through a count window must emit exactly the naive scan's
// pairs, each once, at their true overlap.
func TestEqualityRegimeEdges(t *testing.T) {
	const maxLen = 512
	funcs := []similarity.Func{similarity.Jaccard, similarity.Cosine, similarity.Dice, similarity.Overlap}
	taus := []float64{0.5, 0.6, 2.0 / 3, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95, 0.99, 1}
	got := make(map[string]int)
	for _, f := range funcs {
		for _, tau := range taus {
			p := filter.Params{Func: f, Threshold: tau}
			label := fmt.Sprintf("%v τ=%.4g", f, tau)
			eqMax := New(p, window.Unbounded{}, Config{}).eqMax
			got[label] = eqMax
			run := 0
			for l := 1; l <= maxLen; l++ {
				in := inRegimeBrute(p, l)
				if in && run == l-1 {
					run = l
				} else if in {
					t.Fatalf("%s: length %d is in the regime, %d is not: not a prefix", label, l, run+1)
				}
			}
			if eqMax != run && !(run == maxLen && eqMax >= maxLen) {
				t.Fatalf("%s: eqMax %d, brute force %d", label, eqMax, run)
			}
			if n := New(p, window.Unbounded{}, Config{GroupThreshold: 1.01}).eqMax; n != 0 {
				t.Fatalf("%s: λ > 1 keeps a twin table up to length %d", label, n)
			}
			for _, l := range []int{eqMax, eqMax + 1} {
				edgeStream(t, label, p, l)
			}
		}
	}
	t.Logf("eqMax by function and τ: %v", got)
	for label, want := range map[string]int{
		"jaccard τ=0.8": 3, "jaccard τ=0.75": 2, "cosine τ=0.8": 1, "dice τ=0.8": 1, "overlap τ=0.8": 0, "overlap τ=1": 0,
	} {
		if got[label] != want {
			t.Errorf("%s: eqMax %d, want %d", label, got[label], want)
		}
	}

	// {a,b,c} ⊂ {a,b,c,d} has Jaccard 0.75: at τ 0.75 length 3 is bundled.
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
	if len(ms) != 1 || ms[0].ID != 0 || ms[0].Overlap != 3 || ms[0].Sim != 0.75 || bx.Stats().TwinProbes != 0 {
		t.Fatalf("Jaccard 0.75, {1,2,3} then {1,2,3,4}: %+v, %+v", ms, bx.Stats())
	}
}

// edgeStream streams records of about l tokens built to sit on the regime's
// edge — duplicates of two base sets that share all but one token, their
// one-token supersets and subsets, and empty records — through a count
// window of 5 and compares the emitted pairs with the naive scan.
func edgeStream(t *testing.T, label string, p filter.Params, l int) {
	t.Helper()
	base := func(first tokens.Rank) []tokens.Rank {
		ts := make([]tokens.Rank, 0, l+1)
		for i := 0; i < l; i++ {
			ts = append(ts, first+tokens.Rank(i))
		}
		return ts
	}
	a, b := base(10), base(11) // |a ∩ b| = l-1
	shapes := [][]tokens.Rank{
		a, a, b, append(a[:l:l], 9000), a, nil, b, b,
		a, a[:max(l-1, 0)], a, append(b[:l:l], 9001), nil, a, b, a,
		b[:max(l-1, 0)], a, a, b, a, a,
	}
	var stream []*record.Record
	for i, ts := range shapes {
		stream = append(stream, rec(record.ID(i), ts...))
	}
	win := window.Count{N: 5}
	want := bruteForce(stream, p, win)
	bx := New(p, win, Config{})
	seen := make(map[record.Pair]bool)
	for _, r := range stream {
		bx.Process(r, func(m Match) {
			pr := record.NewPair(r.ID, m.ID, 0)
			if seen[pr] || !want[pr] || m.Overlap != similarity.IntersectSize(r.Tokens, m.Rec.Tokens) {
				t.Fatalf("%s, length %d: match %v (overlap %d) emitted twice, wrong, or at a wrong overlap", label, l, pr, m.Overlap)
			}
			seen[pr] = true
		})
		checkInvariants(t, bx)
	}
	if len(seen) != len(want) {
		t.Fatalf("%s, length %d: %d pairs, naive scan %d", label, l, len(seen), len(want))
	}
	if st := bx.Stats(); (l > 0 && l <= bx.eqMax) && st.TwinProbes == 0 || bx.eqMax == 0 && st.TwinProbes > 0 || st.TwinMatches > st.Verified {
		t.Fatalf("%s, length %d (eqMax %d): %d twin probes, %d twin matches of %d verified",
			label, l, bx.eqMax, st.TwinProbes, st.TwinMatches, st.Verified)
	}
}
