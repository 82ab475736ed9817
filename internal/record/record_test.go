package record

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/tokens"
)

func buildTestBuilder(sample []string) *Builder {
	dict, order := BuildOrderingFromSample(tokens.WordTokenizer{}, sample)
	return NewBuilder(dict, order, tokens.WordTokenizer{})
}

func TestFromTextAssignsSequentialIDs(t *testing.T) {
	b := buildTestBuilder([]string{"a b c"})
	r1 := b.FromText("a b")
	r2 := b.FromText("b c")
	if r1.ID != 0 || r2.ID != 1 {
		t.Fatalf("ids: got %d,%d want 0,1", r1.ID, r2.ID)
	}
	if r1.Time != 0 || r2.Time != 1 {
		t.Fatalf("times: got %d,%d want 0,1", r1.Time, r2.Time)
	}
}

func TestFromTextTokensSortedDeduped(t *testing.T) {
	b := buildTestBuilder([]string{"the the the quick brown", "the fox", "the dog"})
	r := b.FromText("the quick the quick fox")
	if len(r.Tokens) != 3 {
		t.Fatalf("want 3 distinct tokens, got %d: %v", len(r.Tokens), r.Tokens)
	}
	if !sort.SliceIsSorted(r.Tokens, func(i, j int) bool { return r.Tokens[i] < r.Tokens[j] }) {
		t.Fatalf("tokens not sorted: %v", r.Tokens)
	}
}

func TestRareTokensSortBeforeCommonOnes(t *testing.T) {
	// "the" appears in every sample doc, "zebra" in one.
	b := buildTestBuilder([]string{"the cat", "the dog", "the zebra"})
	r := b.FromText("the zebra")
	if len(r.Tokens) != 2 {
		t.Fatalf("want 2 tokens, got %v", r.Tokens)
	}
	zebra, _ := b.Dict.Lookup("zebra")
	if b.Order.RankOf(zebra) != r.Tokens[0] {
		t.Fatalf("rare token should be first: tokens=%v zebraRank=%d",
			r.Tokens, b.Order.RankOf(zebra))
	}
}

func TestOverlap(t *testing.T) {
	a := &Record{Tokens: []tokens.Rank{1, 3, 5, 7}}
	b := &Record{Tokens: []tokens.Rank{3, 4, 5, 9}}
	if o := a.Overlap(b); o != 2 {
		t.Fatalf("overlap: got %d want 2", o)
	}
	empty := &Record{}
	if o := a.Overlap(empty); o != 0 {
		t.Fatalf("overlap with empty: got %d want 0", o)
	}
}

func TestOverlapIsSymmetric(t *testing.T) {
	f := func(xs, ys []uint32) bool {
		a := &Record{Tokens: tokens.Dedup(append([]tokens.Rank{}, xs...))}
		b := &Record{Tokens: tokens.Dedup(append([]tokens.Rank{}, ys...))}
		return a.Overlap(b) == b.Overlap(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFromRanksDedups(t *testing.T) {
	b := buildTestBuilder([]string{"x"})
	r := b.FromRanks([]tokens.Rank{9, 2, 9, 2, 4})
	if len(r.Tokens) != 3 {
		t.Fatalf("want 3 tokens got %v", r.Tokens)
	}
}

func TestNewPairNormalizesOrder(t *testing.T) {
	p := NewPair(9, 3, 0.8)
	if p.First != 3 || p.Second != 9 {
		t.Fatalf("pair not normalized: %v", p)
	}
	q := NewPair(3, 9, 0.8)
	if p != q {
		t.Fatalf("pairs differ after normalization: %v vs %v", p, q)
	}
}

func TestBuildOrderingFromSampleCountsDocFreqNotTermFreq(t *testing.T) {
	// "a" appears twice in one doc, "b" once in each of two docs: doc
	// frequency must make b the more frequent token.
	dict, order := BuildOrderingFromSample(tokens.WordTokenizer{}, []string{"a a b", "b c"})
	a, _ := dict.Lookup("a")
	bb, _ := dict.Lookup("b")
	if !(order.RankOf(a) < order.RankOf(bb)) {
		t.Fatalf("doc-freq ordering wrong: rank(a)=%d rank(b)=%d",
			order.RankOf(a), order.RankOf(bb))
	}
}

func TestFromTextDedupsAcrossEpochWrap(t *testing.T) {
	b := buildTestBuilder([]string{"a b c"})
	b.FromText("a b")
	// The text after 2^32 - 1 others: marks left by earlier texts must not
	// read as "already seen" once the counter starts over.
	b.epoch = ^uint32(0)
	for _, c := range []struct {
		text string
		want int
	}{{"a a b", 2}, {"a b b c", 3}, {"c c", 1}} {
		if r := b.FromText(c.text); len(r.Tokens) != c.want {
			t.Fatalf("%q after the wrap: %d tokens, want %d", c.text, len(r.Tokens), c.want)
		}
	}
	if f := b.Dict.Frequency(b.Dict.Intern("a")); f != 1+1+2 {
		t.Fatalf("freq(a) = %d, want 4 (sample, then three texts)", f)
	}
}

// TestFromTextTokensStrictlyIncrease feeds texts that repeat words, known to
// the sample or not, in any order: FromText only sorts the ranks its scan
// collected, so each record must still come out a set, strictly increasing,
// of exactly the text's distinct words.
func TestFromTextTokensStrictlyIncrease(t *testing.T) {
	b := buildTestBuilder([]string{"w0 w1 w2", "w1 w2 w3", "w2 w4"})
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2_000; i++ {
		words, distinct := make([]string, 1+rng.Intn(12)), make(map[string]bool)
		for k := range words {
			words[k] = fmt.Sprintf("w%d", rng.Intn(10+i/100)) // past w4: unseen, ranked post-frozen
			distinct[words[k]] = true
		}
		text := fmt.Sprint(words)
		text = text[1 : len(text)-1]
		r := b.FromText(text)
		if len(r.Tokens) != len(distinct) {
			t.Fatalf("%q: %d tokens %v, want %d", text, len(r.Tokens), r.Tokens, len(distinct))
		}
		for k := 1; k < len(r.Tokens); k++ {
			if r.Tokens[k] <= r.Tokens[k-1] {
				t.Fatalf("%q: tokens %v do not strictly increase", text, r.Tokens)
			}
		}
	}
}
