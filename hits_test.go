package ssjoin

import (
	"cmp"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bundle"
	"repro/internal/local"
	"repro/internal/record"
	"repro/internal/tokens"
	"repro/internal/workload"
)

// sortedHits returns a sorted copy of ms: by ID, then overlap, then the
// similarity's bits, so two multisets compare element by element.
func sortedHits(ms []Match) []Match {
	out := slices.Clone(ms)
	slices.SortFunc(out, func(a, b Match) int {
		return cmp.Or(cmp.Compare(a.ID, b.ID), cmp.Compare(a.Overlap, b.Overlap),
			cmp.Compare(math.Float64bits(a.Similarity), math.Float64bits(b.Similarity)))
	})
	return out
}

// sameHits reports whether got and want hold the same multiset of (ID,
// Overlap, bit-identical Similarity).
func sameHits(got, want []Match) bool {
	return slices.EqualFunc(sortedHits(got), sortedHits(want), func(a, b Match) bool {
		return a.ID == b.ID && a.Overlap == b.Overlap && math.Float64bits(a.Similarity) == math.Float64bits(b.Similarity)
	})
}

// viaEmit returns what step's emit callback hands out, as Matches.
func viaEmit(step func(emit func(local.Match))) []Match {
	var out []Match
	step(func(m local.Match) {
		out = append(out, Match{ID: uint64(m.ID), Overlap: m.Overlap, Similarity: m.Sim})
	})
	return out
}

// wordTexts renders rank sets as one distinct word per rank, so the word
// tokenizer gives back each record's set.
func wordTexts(recs []*record.Record) []string {
	texts := make([]string, len(recs))
	for i, r := range recs {
		words := make([]string, len(r.Tokens))
		for k, t := range r.Tokens {
			words[k] = "w" + strconv.FormatUint(uint64(t), 36)
		}
		texts[i] = strings.Join(words, " ")
	}
	return texts
}

// TestStreamHitsMatchJoinerStep holds every single-node stream call to the
// matches local.Joiner.Step's callback gives for the same record: the same
// multiset of (ID, Overlap, bit-identical Similarity). Seed-42 AOL-, Tweet-
// and Enron-like streams go through Stream.Add, through TextStream.Add as
// words, and alternately through BiStream.AddLeft and AddRight, each beside
// a joiner of the same configuration; the first AOL records also go through
// Stream.Add under the Prefix and Naive algorithms. On AOL some set has more
// than 64 live copies at once, so its copies span several twin entries.
func TestStreamHitsMatchJoinerStep(t *testing.T) {
	for _, tc := range []struct {
		prof  workload.Profile
		n     int
		algs  []Algorithm
		spans bool // some set spans several twin entries
	}{
		{workload.AOLLike(42), 30_000, []Algorithm{Bundle, Prefix, Naive}, true},
		{workload.TweetLike(42), 20_000, []Algorithm{Bundle}, false},
		{workload.EnronLike(42), 3_000, []Algorithm{Bundle}, false},
	} {
		recs := workload.NewGenerator(tc.prof).Generate(tc.n)
		for _, alg := range tc.algs {
			n := tc.n
			if alg != Bundle {
				n = 2_000
			}
			name := tc.prof.Name + "/" + alg.String()
			cfg := Config{Threshold: 0.8, WindowRecords: 10_000, Algorithm: alg}
			params, win, lalg, bcfg, err := cfg.build()
			if err != nil {
				t.Fatal(err)
			}
			opt := local.Options{Params: params, Window: win, Bundle: bcfg}
			s, err := NewStream(cfg)
			if err != nil {
				t.Fatal(err)
			}
			sj := local.New(lalg, opt)
			texts := wordTexts(recs[:n])
			ts, err := NewTextStream(cfg, Words, texts[:1_000])
			if err != nil {
				t.Fatal(err)
			}
			tj := local.New(lalg, opt)
			dict, order := record.BuildOrderingFromSample(tokens.WordTokenizer{}, texts[:1_000])
			tb := record.NewBuilder(dict, order, tokens.WordTokenizer{})
			bs, err := NewBiStream(cfg)
			if err != nil {
				t.Fatal(err)
			}
			bj := local.NewBi(lalg, opt)
			maxCopies, total := 0, 0
			for i, r := range recs[:n] {
				at := &record.Record{ID: record.ID(i), Time: int64(i), Tokens: r.Tokens}
				id, got := s.Add(r.Tokens)
				want := viaEmit(func(emit func(local.Match)) { sj.Step(at, true, emit) })
				if id != uint64(i) || !sameHits(got, want) {
					t.Fatalf("%s: Stream.Add of record %d (id %d) returned %v, Step emits %v", name, i, id, sortedHits(got), sortedHits(want))
				}
				copies := 0
				for _, m := range got {
					if m.Similarity == 1 && m.Overlap == r.Len() {
						copies++
					}
				}
				maxCopies, total = max(maxCopies, copies), total+len(got)

				tr := tb.FromText(texts[i])
				_, got = ts.Add(texts[i])
				want = viaEmit(func(emit func(local.Match)) { tj.Step(&tr, true, emit) })
				if !sameHits(got, want) {
					t.Fatalf("%s: TextStream.Add of record %d returned %v, Step emits %v", name, i, sortedHits(got), sortedHits(want))
				}

				if i%2 == 0 {
					_, got = bs.AddLeft(r.Tokens)
					want = viaEmit(func(emit func(local.Match)) { bj.StepLeft(at, emit) })
				} else {
					_, got = bs.AddRight(r.Tokens)
					want = viaEmit(func(emit func(local.Match)) { bj.StepRight(at, emit) })
				}
				if !sameHits(got, want) {
					t.Fatalf("%s: BiStream call for record %d returned %v, Step emits %v", name, i, sortedHits(got), sortedHits(want))
				}
			}
			t.Logf("%s: %d records, %d matches, at most %d exact copies of one set", name, n, total, maxCopies)
			if tc.spans && alg == Bundle && maxCopies <= 64 {
				t.Fatalf("%s: at most %d live copies of one set: no set spans two twin entries", name, maxCopies)
			}
		}
	}
}

// heavyStream returns a Stream over a window of 1 024 records, warmed with
// copies of one 3-token set, and that set: each further Add of it returns
// 1 024 twin matches, found by the containment regime's lookup.
func heavyStream(tb testing.TB) (*Stream, []uint32) {
	tb.Helper()
	s, err := NewStream(Config{Threshold: 0.8, WindowRecords: 1_024})
	if err != nil {
		tb.Fatal(err)
	}
	set := []uint32{3, 14, 15}
	for range 3 * 1_024 {
		s.Add(set)
	}
	return s, set
}

// twinMatches is the twin matches the stream's bundle index has found.
func twinMatches(tb testing.TB, s *Stream) uint64 {
	tb.Helper()
	bj, ok := s.joiner.(interface{ BundleStats() bundle.Stats })
	if !ok {
		tb.Fatalf("the stream's joiner is %s, not the bundle index", s.joiner.Name())
	}
	return bj.BundleStats().TwinMatches
}

// TestStreamAddAllocs holds a warm Add that returns over 1 000 twin matches
// to two allocations, the record and its token copy: the index appends the
// matches to the stream's reused slice, with no closure to allocate.
func TestStreamAddAllocs(t *testing.T) {
	s, set := heavyStream(t)
	twins, n := twinMatches(t, s), 0
	allocs := testing.AllocsPerRun(100, func() {
		_, ms := s.Add(set)
		n = len(ms)
	})
	if twins = twinMatches(t, s) - twins; n < 1_000 || twins < 1_000*101 {
		t.Fatalf("a warm Add returned %d matches, %d twin matches over 101 calls; want at least 1 000 each", n, twins)
	}
	if allocs > 2 {
		t.Fatalf("a warm Add returning %d matches costs %v allocations, want at most 2", n, allocs)
	}
}

// BenchmarkStreamAddHeavy times a warm Add that returns 1 024 twin matches:
// ns/op for the call, ns/match for each result written out. CI gates its
// allocs/op at 2.
func BenchmarkStreamAddHeavy(b *testing.B) {
	s, set := heavyStream(b)
	matches := 0
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		_, ms := s.Add(set)
		matches += len(ms)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(max(matches, 1)), "ns/match")
}
