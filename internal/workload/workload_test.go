package workload

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/record"
	"repro/internal/similarity"
)

// streamHash is SHA-256 over the first n records of p's stream, each
// written as its length followed by its ranks, all little-endian uint32.
func streamHash(p Profile, n int) string {
	h := sha256.New()
	g := NewGenerator(p)
	var buf []byte
	for i := 0; i < n; i++ {
		r := g.Next()
		buf = binary.LittleEndian.AppendUint32(buf[:0], uint32(r.Len()))
		for _, t := range r.Tokens {
			buf = binary.LittleEndian.AppendUint32(buf, t)
		}
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGeneratorStreamPinned pins the first 5 000 records of every profile
// at two seeds to the bytes the generator produced when it still sorted
// after every draw: a change to the draw order, the stop rule or the
// dedup fails here instead of silently shifting every benchmark's pinned
// result counts.
func TestGeneratorStreamPinned(t *testing.T) {
	want := map[string]string{
		"AOL-like/42":   "7af4aa170a5bc50d4ccc1cc190a70fa7b860ff17c71a6dfce4559f43da98b73a",
		"TWEET-like/42": "845e55ad97f93e136cb39220ffd64fb45bfd52e6a45880dfc3c94f5b7f89a055",
		"ENRON-like/42": "5e23cc4b926c1325bfe8af5a6b6ba748f23468d2a3f34b84a5fc25c3656fae63",
		"UNIFORM/42":    "380a5784388359e3aaaa8e62db793f72ff20fc6628cbb8a36463bd975e2779f5",
		"AOL-like/7":    "cc47e26da52ea14db21fece614c1cc2ae04b09254aee02b8aea5ed9bb1b439ed",
		"TWEET-like/7":  "caff26c5726fffafafd495c7e5205e3dd02b7b43e88f21d4d7ed6b29feee9c8f",
		"ENRON-like/7":  "55932fbdfbdb1419266fd6cce1ce9c7cb62c0a98a749d59046452340497d4719",
		"UNIFORM/7":     "28db9a0717e6148ab25fdc20fe68648ef365bb9a03de1e1c949e27f5222d88f6",
	}
	for _, seed := range []int64{42, 7} {
		for _, p := range Profiles(seed) {
			key := p.Name + "/" + strconv.FormatInt(seed, 10)
			if got := streamHash(p, 5000); got != want[key] {
				t.Errorf("%s: stream hash %s, want %s", key, got, want[key])
			}
		}
	}
}

// TestGeneratorStampWrap drives the membership stamp through its wrap to
// zero mid-stream: the records after it must be valid sets and equal an
// unwrapped generator's, i.e. no rank drawn before the wrap may still
// read as drawn after it.
func TestGeneratorStampWrap(t *testing.T) {
	for _, p := range []Profile{UniformSmall(3), EnronLike(3)} {
		ref := NewGenerator(p).Generate(300)
		g := NewGenerator(p)
		got := g.Generate(100)
		g.stamp = math.MaxUint32 - 1
		got = append(got, g.Generate(200)...)
		if g.stamp > 200 {
			t.Fatalf("%s: stamp %d, want it wrapped", p.Name, g.stamp)
		}
		for i, r := range got {
			if r.Len() == 0 || !slices.IsSorted(r.Tokens) || len(slices.Compact(slices.Clone(r.Tokens))) != r.Len() {
				t.Fatalf("%s: record %d is not a non-empty sorted set: %v", p.Name, i, r.Tokens)
			}
			if !slices.Equal(r.Tokens, ref[i].Tokens) {
				t.Fatalf("%s: record %d differs from the unwrapped stream:\n got %v\nwant %v", p.Name, i, r.Tokens, ref[i].Tokens)
			}
		}
	}
}

var sinkRecord *record.Record

// BenchmarkGeneratorNext times one record of a running stream. The two
// allocations per op are the record's token slice and the Record itself.
func BenchmarkGeneratorNext(b *testing.B) {
	for _, c := range []struct {
		name string
		prof Profile
	}{{"aol", AOLLike(42)}, {"tweet", TweetLike(42)}, {"enron", EnronLike(42)}} {
		b.Run(c.name, func(b *testing.B) {
			g := NewGenerator(c.prof)
			g.Generate(1024) // fill the near-duplicate reservoir
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkRecord = g.Next()
			}
		})
	}
}

func TestGeneratorIsReproducible(t *testing.T) {
	a := NewGenerator(UniformSmall(42)).Generate(100)
	b := NewGenerator(UniformSmall(42)).Generate(100)
	for i := range a {
		if a[i].ID != b[i].ID || len(a[i].Tokens) != len(b[i].Tokens) {
			t.Fatalf("streams diverge at %d", i)
		}
		for j := range a[i].Tokens {
			if a[i].Tokens[j] != b[i].Tokens[j] {
				t.Fatalf("streams diverge at record %d token %d", i, j)
			}
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := NewGenerator(UniformSmall(1)).Generate(50)
	b := NewGenerator(UniformSmall(2)).Generate(50)
	same := 0
	for i := range a {
		if len(a[i].Tokens) == len(b[i].Tokens) {
			eq := true
			for j := range a[i].Tokens {
				if a[i].Tokens[j] != b[i].Tokens[j] {
					eq = false
					break
				}
			}
			if eq {
				same++
			}
		}
	}
	if same == 50 {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestRecordsAreValidSets(t *testing.T) {
	for _, p := range Profiles(7) {
		g := NewGenerator(p)
		for i := 0; i < 200; i++ {
			r := g.Next()
			if r.Len() == 0 {
				t.Fatalf("%s: empty record", p.Name)
			}
			if !sort.SliceIsSorted(r.Tokens, func(a, b int) bool { return r.Tokens[a] < r.Tokens[b] }) {
				t.Fatalf("%s: unsorted tokens %v", p.Name, r.Tokens)
			}
			for j := 1; j < r.Len(); j++ {
				if r.Tokens[j] == r.Tokens[j-1] {
					t.Fatalf("%s: duplicate token", p.Name)
				}
			}
			if int(r.ID) != i {
				t.Fatalf("%s: id %d at position %d", p.Name, r.ID, i)
			}
		}
	}
}

func TestProfileLengthShapes(t *testing.T) {
	// AOL-like records must be much shorter than ENRON-like on average.
	mean := func(p Profile) float64 {
		g := NewGenerator(p)
		var sum int
		const n = 2000
		for i := 0; i < n; i++ {
			sum += g.Next().Len()
		}
		return float64(sum) / n
	}
	aol, enron := mean(AOLLike(3)), mean(EnronLike(3))
	if aol > 8 {
		t.Fatalf("AOL-like mean length too big: %v", aol)
	}
	if enron < 30 {
		t.Fatalf("ENRON-like mean length too small: %v", enron)
	}
	if enron < 5*aol {
		t.Fatalf("profiles not distinct enough: aol=%v enron=%v", aol, enron)
	}
}

func TestDupRateProducesSimilarPairs(t *testing.T) {
	// A duplicate-heavy profile must yield many high-similarity pairs; a
	// zero-dup profile on a large vocabulary must yield almost none.
	count := func(p Profile) int {
		g := NewGenerator(p)
		recs := g.Generate(300)
		n := 0
		for i := range recs {
			for j := 0; j < i; j++ {
				if similarity.Of(similarity.Jaccard, recs[i].Tokens, recs[j].Tokens) >= 0.8 {
					n++
				}
			}
		}
		return n
	}
	dup := UniformSmall(5)
	dup.DupRate = 0.5
	dup.DupMutate = 0.05
	noDup := UniformSmall(5)
	noDup.DupRate = 0
	noDup.Vocab = 1_000_000
	a, b := count(dup), count(noDup)
	if a < 50 {
		t.Fatalf("dup-heavy stream has too few similar pairs: %d", a)
	}
	if b > a/10 {
		t.Fatalf("no-dup stream too similar: dup=%d nodup=%d", a, b)
	}
}

func TestZipfSkewShowsInRanks(t *testing.T) {
	// High ranks (frequent tokens) must appear far more often than low
	// ranks across a sample.
	p := UniformSmall(11)
	g := NewGenerator(p)
	freq := make(map[uint32]int)
	for i := 0; i < 2000; i++ {
		for _, tok := range g.Next().Tokens {
			freq[tok]++
		}
	}
	var topCount, bottomCount int
	for tok, c := range freq {
		if int(tok) >= p.Vocab-10 {
			topCount += c
		}
		if int(tok) < p.Vocab/2 {
			bottomCount += c
		}
	}
	if topCount < bottomCount {
		t.Fatalf("skew missing: top10=%d bottomHalf=%d", topCount, bottomCount)
	}
}

func TestLengthHistogram(t *testing.T) {
	h := LengthHistogram(UniformSmall(13), 500)
	if h.Total() != 500 {
		t.Fatalf("total: %d", h.Total())
	}
	if h.MaxLen() == 0 {
		t.Fatal("empty histogram")
	}
}

func TestProfileByName(t *testing.T) {
	for _, name := range []string{"aol", "tweet", "enron", "uniform", "AOL-like"} {
		if _, err := ProfileByName(name, 1); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if _, err := ProfileByName("nope", 1); err == nil {
		t.Fatal("expected error")
	}
}

func TestGeneratorPanicsOnBadProfile(t *testing.T) {
	bad := []Profile{
		{Vocab: 1, ZipfS: 1.2, Lengths: Uniform{Min: 1, Max: 2}},
		{Vocab: 100, ZipfS: 1.0, Lengths: Uniform{Min: 1, Max: 2}},
	}
	for i, p := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			NewGenerator(p)
		}()
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	recs := NewGenerator(UniformSmall(17)).Generate(120)
	var buf bytes.Buffer
	if err := Save(&buf, recs); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("count: %d vs %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i].ID != recs[i].ID {
			t.Fatalf("id mismatch at %d", i)
		}
		if len(got[i].Tokens) != len(recs[i].Tokens) {
			t.Fatalf("len mismatch at %d", i)
		}
		for j := range recs[i].Tokens {
			if got[i].Tokens[j] != recs[i].Tokens[j] {
				t.Fatalf("token mismatch at %d,%d", i, j)
			}
		}
	}
}

func TestLoadSkipsBlankAndRejectsGarbage(t *testing.T) {
	got, err := Load(strings.NewReader("1 2 3\n\n4 5\n"))
	if err != nil || len(got) != 2 {
		t.Fatalf("load: %v %d", err, len(got))
	}
	if _, err := Load(strings.NewReader("1 x 3\n")); err == nil {
		t.Fatal("expected parse error")
	}
}

func TestLengthDistributions(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	u := Uniform{Min: 5, Max: 9}
	for i := 0; i < 100; i++ {
		l := u.Sample(rng)
		if l < 5 || l > 9 {
			t.Fatalf("uniform out of range: %d", l)
		}
	}
	if (Uniform{Min: 4, Max: 4}).Sample(rng) != 4 {
		t.Fatal("degenerate uniform")
	}
	ln := Lognormal{Mu: 2, Sigma: 0.5, Min: 1, Max: 50}
	var sum float64
	for i := 0; i < 2000; i++ {
		l := ln.Sample(rng)
		if l < 1 || l > 50 {
			t.Fatalf("lognormal out of range: %d", l)
		}
		sum += float64(l)
	}
	mean := sum / 2000
	// E[lognormal(2, .5)] ≈ exp(2.125) ≈ 8.4
	if math.Abs(mean-8.4) > 2.5 {
		t.Fatalf("lognormal mean off: %v", mean)
	}
	if u.String() == "" || ln.String() == "" {
		t.Fatal("empty dist strings")
	}
}
