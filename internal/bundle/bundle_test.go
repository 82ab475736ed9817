package bundle

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/filter"
	"repro/internal/record"
	"repro/internal/similarity"
	"repro/internal/tokens"
	"repro/internal/window"
)

func params(tau float64) filter.Params {
	return filter.Params{Func: similarity.Jaccard, Threshold: tau}
}

func rec(id record.ID, ranks ...tokens.Rank) *record.Record {
	return &record.Record{ID: id, Time: int64(id), Tokens: tokens.Dedup(ranks)}
}

func TestSetOps(t *testing.T) {
	a := []tokens.Rank{1, 3, 5, 7}
	b := []tokens.Rank{3, 4, 5}
	if got := intersect(a, b); !reflect.DeepEqual(got, []tokens.Rank{3, 5}) {
		t.Fatalf("intersect: %v", got)
	}
	if got := subtract(a, b); !reflect.DeepEqual(got, []tokens.Rank{1, 7}) {
		t.Fatalf("subtract: %v", got)
	}
	if got := unionInto(nil, a, b); !reflect.DeepEqual(got, []tokens.Rank{1, 3, 4, 5, 7}) {
		t.Fatalf("union: %v", got)
	}
	if got := unionInto(nil, nil, b); !reflect.DeepEqual(got, b) {
		t.Fatalf("union nil: %v", got)
	}
}

func TestOverlapSteps(t *testing.T) {
	o, steps := overlapSteps([]tokens.Rank{1, 2, 3}, []tokens.Rank{2, 3, 4})
	if o != 2 {
		t.Fatalf("overlap: %d", o)
	}
	if steps == 0 {
		t.Fatal("steps not counted")
	}
}

// checkBundle asserts the core/delta/union algebra of a bundle and that
// its cached length extremes equal a recount over the members.
func checkBundle(t *testing.T, b *Bundle) {
	t.Helper()
	lo, hi := 0, 0
	for _, m := range b.Members {
		if l := m.Rec.Len(); lo == 0 || l < lo {
			lo = l
		}
		if l := m.Rec.Len(); l > hi {
			hi = l
		}
		if m.id != m.Rec.ID || m.ln != m.Rec.Len() {
			t.Fatalf("member %d of %d tokens carries id %d, length %d", m.Rec.ID, m.Rec.Len(), m.id, m.ln)
		}
		// Core ⊆ member tokens.
		if similarity.IntersectSize(b.Core, m.Rec.Tokens) != len(b.Core) {
			t.Fatalf("core not subset of member %d: core=%v tokens=%v",
				m.Rec.ID, b.Core, m.Rec.Tokens)
		}
		// Core ∪ Delta == member tokens exactly.
		if recon := unionInto(nil, b.Core, m.Delta); !slices.Equal(recon, m.Rec.Tokens) {
			t.Fatalf("core+delta != tokens for member %d: %v vs %v",
				m.Rec.ID, recon, m.Rec.Tokens)
		}
		// Core ∩ Delta == ∅.
		if similarity.IntersectSize(b.Core, m.Delta) != 0 {
			t.Fatalf("core and delta overlap for member %d", m.Rec.ID)
		}
		// Member ⊆ Union.
		if similarity.IntersectSize(b.Union, m.Rec.Tokens) != len(m.Rec.Tokens) {
			t.Fatalf("member %d not subset of union", m.Rec.ID)
		}
	}
	if b.MinLen() != lo || b.MaxLen() != hi {
		t.Fatalf("cached length range [%d,%d], recount [%d,%d]", b.MinLen(), b.MaxLen(), lo, hi)
	}
}

// addRec calls Bundle.add the way Index.Insert does: the trial core
// (core ∩ r.Tokens) is computed by the caller and threaded through.
func addRec(b *Bundle, r *record.Record, prefixLen int) []tokens.Rank {
	var newCore []tokens.Rank
	if b.Live() > 0 {
		newCore = intersect(b.Core, r.Tokens)
	}
	var al alloc
	return b.add(&al, r, prefixLen, newCore)
}

func TestBundleAddMaintainsInvariants(t *testing.T) {
	b := &Bundle{}
	recs := []*record.Record{
		rec(0, 1, 2, 3, 4, 5),
		rec(1, 1, 2, 3, 4, 6),
		rec(2, 2, 3, 4, 5, 6),
		rec(3, 1, 2, 3, 9, 10),
	}
	for _, r := range recs {
		addRec(b, r, 2)
		checkBundle(t, b)
	}
	// Core must be the intersection of all four: {2,3}
	if !reflect.DeepEqual(b.Core, []tokens.Rank{2, 3}) {
		t.Fatalf("core: got %v want [2 3]", b.Core)
	}
}

func TestBundleAddReportsOnlyNewPostings(t *testing.T) {
	b := &Bundle{}
	first := addRec(b, rec(0, 1, 2, 3, 4), 2)
	if !reflect.DeepEqual(first, []tokens.Rank{1, 2}) {
		t.Fatalf("first postings: %v", first)
	}
	second := addRec(b, rec(1, 1, 2, 3, 5), 2)
	if len(second) != 0 {
		t.Fatalf("duplicate postings issued: %v", second)
	}
	third := addRec(b, rec(2, 1, 7, 8, 9), 2)
	if !reflect.DeepEqual(third, []tokens.Rank{7}) {
		t.Fatalf("third postings: %v", third)
	}
}

func TestProcessFindsDuplicates(t *testing.T) {
	bx := New(params(0.8), window.Unbounded{}, Config{})
	var matches []Match
	bx.Process(rec(0, 1, 2, 3, 4, 5), func(m Match) { matches = append(matches, m) })
	bx.Process(rec(1, 1, 2, 3, 4, 5), func(m Match) { matches = append(matches, m) })
	if len(matches) != 1 || matches[0].Rec.ID != 0 {
		t.Fatalf("matches: %v", matches)
	}
	if matches[0].Sim != 1.0 {
		t.Fatalf("sim: %v", matches[0].Sim)
	}
	// The duplicate must have been appended, not given a new bundle.
	st := bx.Stats()
	if st.Bundles != 1 || st.Appends != 1 {
		t.Fatalf("grouping: bundles=%d appends=%d", st.Bundles, st.Appends)
	}
}

func TestSingletonWhenNoMatch(t *testing.T) {
	bx := New(params(0.8), window.Unbounded{}, Config{})
	bx.Process(rec(0, 1, 2, 3), func(Match) {})
	bx.Process(rec(1, 10, 11, 12), func(Match) {})
	if st := bx.Stats(); st.Bundles != 2 || st.Appends != 0 {
		t.Fatalf("bundles=%d appends=%d", st.Bundles, st.Appends)
	}
}

func TestMaxMembersCapsBundles(t *testing.T) {
	bx := New(params(0.8), window.Unbounded{}, Config{MaxMembers: 2})
	for i := 0; i < 4; i++ {
		bx.Process(rec(record.ID(i), 1, 2, 3, 4, 5), func(Match) {})
	}
	st := bx.Stats()
	if st.MaxBundleSize > 2 {
		t.Fatalf("bundle grew past cap: %d", st.MaxBundleSize)
	}
	if st.Bundles < 2 {
		t.Fatalf("expected at least 2 bundles, got %d", st.Bundles)
	}
}

// TestDuplicateOverflowFillsBundles streams 200 copies of one set through
// groups capped at 8 members, for a set of 5 tokens and one of 9. At τ 0.8
// the 5-token copies live in the containment regime's twin entries, which
// the cap splits as it splits bundles: a copy joins the entry with room and
// a further copy founds the next. The 9-token copies go through bundles:
// every copy ties at similarity 1 with every live copy, and ties go to the
// newest, whose bundle the last overflow founded. Either way the copies
// fill 25 groups of 8 rather than leaving one full group and a singleton
// per later copy. Every pair is emitted once.
func TestDuplicateOverflowFillsBundles(t *testing.T) {
	const copies = 200
	for _, set := range [][]tokens.Rank{{3, 7, 11, 13, 17}, {3, 7, 11, 13, 17, 19, 23, 29, 31}} {
		bx := New(params(0.8), window.Unbounded{}, Config{MaxMembers: 8})
		seen := make(map[record.Pair]bool)
		for i := 0; i < copies; i++ {
			bx.Process(rec(record.ID(i), set...), func(m Match) {
				pr := record.NewPair(record.ID(i), m.Rec.ID, 0)
				if seen[pr] || m.Sim != 1 {
					t.Fatalf("match %v (sim %v) emitted twice or not exact", pr, m.Sim)
				}
				seen[pr] = true
			})
		}
		checkInvariants(t, bx)
		if len(seen) != copies*(copies-1)/2 {
			t.Fatalf("%d tokens: %d pairs, want %d", len(set), len(seen), copies*(copies-1)/2)
		}
		if st := bx.Stats(); st.Bundles != copies/8 || st.MaxBundleSize != 8 || (len(set) > bx.cMax) != (st.Postings > 0) {
			t.Fatalf("%d tokens: copies built %d groups (largest %d), want %d full ones: %+v", len(set), st.Bundles, st.MaxBundleSize, copies/8, st)
		}
	}
}

func TestMinCoreFracRejectsWeakGroups(t *testing.T) {
	// Two records with sim exactly at τ but small intersection relative to
	// their length would shrink the core too much with MinCoreFrac close
	// to 1.
	bx := New(params(0.5), window.Unbounded{}, Config{MinCoreFrac: 0.99})
	bx.Process(rec(0, 1, 2, 3, 4), func(Match) {})
	// sim = 3/5 = 0.6 >= 0.5 but core would be 3 < 0.99*4
	bx.Process(rec(1, 1, 2, 3, 9), func(Match) {})
	if st := bx.Stats(); st.Appends != 0 {
		t.Fatalf("append happened despite MinCoreFrac: %+v", st)
	}
}

func TestEvictionRemovesMembers(t *testing.T) {
	bx := New(params(0.8), window.Count{N: 1}, Config{})
	got := 0
	bx.Process(rec(0, 1, 2, 3, 4), func(Match) { got++ })
	bx.Process(rec(1, 1, 2, 3, 4), func(Match) { got++ }) // finds 0
	bx.Process(rec(3, 1, 2, 3, 4), func(Match) { got++ }) // 0 and 1 expired (N=1)
	if got != 1 {                                         // only the match at step 2; at seq 3 both partners are dead
		t.Fatalf("matches: got %d want 1", got)
	}
	if st := bx.Stats(); st.Evicted == 0 {
		t.Fatal("no evictions recorded")
	}
}

// TestBundleJoinMatchesBruteForce is the headline correctness property: the
// bundle-based joiner must produce exactly the same result pairs as a
// brute-force scan, across thresholds, windows, verification modes, and
// grouping configs.
func TestBundleJoinMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	matchesBruteForce(t, func() []*record.Record { return duplicateHeavyStream(rng, 220, 50) }, false)
}

// TestBruteForceLongRecords repeats it on records long enough to carry
// signatures, so every configuration runs with the gate engaged.
func TestBruteForceLongRecords(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	matchesBruteForce(t, func() []*record.Record { return longDuplicateStream(rng, 160) }, true)
}

// matchesBruteForce checks the bundle joiner against the quadratic scan on a
// fresh stream per configuration; wantSigSkip additionally requires the
// signature gate to have rejected candidates in every run.
func matchesBruteForce(t *testing.T, next func() []*record.Record, wantSigSkip bool) {
	configs := []Config{
		{},
		{OneByOneVerify: true},
		{MaxMembers: 3},
		{GroupThreshold: 0.95},
		{MinCoreFrac: 0.8},
	}
	for _, tau := range []float64{0.5, 0.7, 0.85} {
		for _, win := range []window.Policy{window.Unbounded{}, window.Count{N: 25}} {
			for ci, cfg := range configs {
				bx := New(params(tau), win, cfg)
				stream := next()
				got := make(map[record.Pair]bool)
				for _, r := range stream {
					bx.Process(r, func(m Match) {
						got[record.NewPair(r.ID, m.Rec.ID, 0)] = true
						// Overlap reported must be exact.
						if truth := similarity.IntersectSize(r.Tokens, m.Rec.Tokens); truth != m.Overlap {
							t.Fatalf("overlap wrong: got %d want %d", m.Overlap, truth)
						}
					})
				}
				want := bruteForce(stream, params(tau), win)
				if len(got) != len(want) {
					t.Fatalf("τ=%v win=%v cfg#%d: got %d pairs want %d",
						tau, win, ci, len(got), len(want))
				}
				for pr := range want {
					if !got[pr] {
						t.Fatalf("τ=%v win=%v cfg#%d: missing %v", tau, win, ci, pr)
					}
				}
				if wantSigSkip && (bx.stats.BundleSigSkip == 0 || len(want) == 0) {
					t.Fatalf("τ=%v win=%v cfg#%d: %d pairs, signature gate skipped %d bundles",
						tau, win, ci, len(want), bx.stats.BundleSigSkip)
				}
			}
		}
	}
}

// duplicateHeavyStream produces clusters of near-duplicates — the workload
// bundling exists for.
func duplicateHeavyStream(rng *rand.Rand, n, universe int) []*record.Record {
	var stream []*record.Record
	var protos [][]tokens.Rank
	for i := 0; i < n; i++ {
		var set []tokens.Rank
		if len(protos) > 0 && rng.Float64() < 0.6 {
			proto := protos[rng.Intn(len(protos))]
			set = append([]tokens.Rank{}, proto...)
			// mutate one token sometimes
			if rng.Float64() < 0.5 && len(set) > 1 {
				set[rng.Intn(len(set))] = tokens.Rank(rng.Intn(universe))
			}
		} else {
			m := 3 + rng.Intn(10)
			for len(set) < m {
				set = append(set, tokens.Rank(rng.Intn(universe)))
			}
			protos = append(protos, set)
		}
		stream = append(stream, rec(record.ID(i), set...))
	}
	return stream
}

// longDuplicateStream is the long-record counterpart: Enron-like records of
// 40–160 draws from a Zipf universe of 6 000 ranks (rare tokens low, as
// under the global ordering), half of them near-duplicates of one of the
// last 30 originals with 5–15 % of the tokens redrawn — long enough that
// every bundle carries a signature, similar enough that bundles form and
// shrink their cores, recent enough that small windows still see them.
func longDuplicateStream(rng *rand.Rand, n int) []*record.Record {
	return longStream(rng, n, 121)
}

// longStream is longDuplicateStream with originals of 40 to 39+span draws: a
// span of several hundred founds bundles at every signature width.
func longStream(rng *rand.Rand, n, span int) []*record.Record {
	const universe = 6000
	zipf := rand.NewZipf(rng, 1.1, 1, universe-1)
	draw := func() tokens.Rank { return tokens.Rank(universe - 1 - zipf.Uint64()) }
	var stream []*record.Record
	var protos [][]tokens.Rank
	for i := 0; i < n; i++ {
		var set []tokens.Rank
		if len(protos) > 0 && rng.Float64() < 0.5 {
			proto := protos[len(protos)-1-rng.Intn(min(len(protos), 30))]
			set = append(set, proto...)
			for k := len(set) * (5 + rng.Intn(11)) / 100; k > 0; k-- {
				set[rng.Intn(len(set))] = draw()
			}
		} else {
			for m := 40 + rng.Intn(span); len(set) < m; {
				set = append(set, draw())
			}
			protos = append(protos, set)
		}
		stream = append(stream, rec(record.ID(i), set...))
	}
	return stream
}

// bruteForce is the quadratic scan: every pair of window-live records whose
// similarity under p reaches p's threshold.
func bruteForce(stream []*record.Record, p filter.Params, win window.Policy) map[record.Pair]bool {
	out := make(map[record.Pair]bool)
	for i, r := range stream {
		for j := 0; j < i; j++ {
			s := stream[j]
			if !win.Live(s.ID, s.Time, r.ID, r.Time) {
				continue
			}
			if similarity.Of(p.Func, r.Tokens, s.Tokens) >= p.Threshold-1e-12 {
				out[record.NewPair(r.ID, s.ID, 0)] = true
			}
		}
	}
	return out
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

func at(xs []emitted, i int) interface{} {
	if i < len(xs) {
		return xs[i]
	}
	return "<end of stream>"
}

// requireStreams asserts byte-identical ordered match streams and identical
// work counters between a run and its reference.
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

func TestBatchVerificationSavesSteps(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	stream := duplicateHeavyStream(rng, 600, 40)
	run := func(oneByOne bool) Stats {
		bx := New(params(0.6), window.Unbounded{}, Config{OneByOneVerify: oneByOne})
		for _, r := range stream {
			bx.Process(r, func(Match) {})
		}
		return bx.Stats()
	}
	batch := run(false)
	singly := run(true)
	if batch.Results != singly.Results {
		t.Fatalf("result mismatch: batch=%d single=%d", batch.Results, singly.Results)
	}
	if batch.VerifySteps >= singly.VerifySteps {
		t.Fatalf("batch verification not cheaper: batch=%d steps vs single=%d",
			batch.VerifySteps, singly.VerifySteps)
	}
}

func TestBundlingReducesPostings(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	stream := duplicateHeavyStream(rng, 600, 40)
	grouped := New(params(0.6), window.Unbounded{}, Config{})
	solo := New(params(0.6), window.Unbounded{}, Config{GroupThreshold: 2.0}) // never group
	for _, r := range stream {
		grouped.Process(r, func(Match) {})
		solo.Process(r, func(Match) {})
	}
	if g, s := grouped.Stats().Postings, solo.Stats().Postings; g >= s {
		t.Fatalf("bundling did not reduce postings: grouped=%d solo=%d", g, s)
	}
}

func TestRemoveRebuildsUnion(t *testing.T) {
	b := &Bundle{}
	addRec(b, rec(0, 1, 2, 3), 1)
	addRec(b, rec(1, 1, 2, 4), 1)
	addRec(b, rec(2, 1, 2, 5), 1)
	addRec(b, rec(3, 1, 2, 6), 1)
	// kill 3 of 4 → shrink rebuild must fire
	for _, m := range append([]*Member(nil), b.Members[:3]...) {
		b.remove(&alloc{}, m)
		checkBundle(t, b)
	}
	if len(b.Members) != 1 {
		t.Fatalf("members after remove: %d", len(b.Members))
	}
	if !reflect.DeepEqual(b.Union, []tokens.Rank{1, 2, 6}) {
		t.Fatalf("union not rebuilt: %v", b.Union)
	}
}

func TestConfigDefaults(t *testing.T) {
	bx := New(params(0.7), window.Unbounded{}, Config{})
	cfg := bx.Config()
	if cfg.GroupThreshold != 0.7 || cfg.MaxMembers != 64 || cfg.MinCoreFrac != 0.5 {
		t.Fatalf("defaults wrong: %+v", cfg)
	}
}
