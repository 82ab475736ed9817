package ssjoin

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

func TestNewStreamValidation(t *testing.T) {
	bad := []Config{
		{},                                  // missing threshold
		{Threshold: -0.5},                   // negative
		{Threshold: 1.5},                    // fraction > 1 for Jaccard
		{Threshold: 0.8, WindowRecords: -1}, // negative window
		{Threshold: 0.8, WindowRecords: 5, WindowTicks: 5}, // both windows
		{Threshold: 0.8, Function: Similarity(99)},
		{Threshold: 0.8, Algorithm: Algorithm(99)},
		{Threshold: math.NaN()},                     // NaN
		{Threshold: math.Inf(1), Function: Overlap}, // infinite overlap count
	}
	for i, cfg := range bad {
		if _, err := NewStream(cfg); err == nil {
			t.Errorf("case %d: expected error for %+v", i, cfg)
		}
	}
	if _, err := NewStream(Config{Threshold: 3, Function: Overlap}); err != nil {
		t.Errorf("overlap count threshold should be accepted: %v", err)
	}
}

func TestStreamFindsNearDuplicates(t *testing.T) {
	for _, alg := range []Algorithm{Bundle, Prefix, Naive} {
		s, err := NewStream(Config{Threshold: 0.8, Algorithm: alg})
		if err != nil {
			t.Fatal(err)
		}
		id0, m := s.Add([]uint32{1, 2, 3, 4, 5})
		if len(m) != 0 {
			t.Fatalf("%v: first record matched %v", alg, m)
		}
		_, m = s.Add([]uint32{1, 2, 3, 4, 5})
		if len(m) != 1 || m[0].ID != id0 || m[0].Similarity != 1.0 || m[0].Overlap != 5 {
			t.Fatalf("%v: matches=%v", alg, m)
		}
	}
}

func TestStreamHandlesUnsortedDuplicateTokens(t *testing.T) {
	s, _ := NewStream(Config{Threshold: 0.9})
	id0, _ := s.Add([]uint32{5, 1, 3, 3, 2, 4, 1})
	_, m := s.Add([]uint32{1, 2, 3, 4, 5})
	if len(m) != 1 || m[0].ID != id0 {
		t.Fatalf("matches=%v", m)
	}
}

func TestCountWindowExpires(t *testing.T) {
	s, _ := NewStream(Config{Threshold: 0.9, WindowRecords: 1})
	s.Add([]uint32{1, 2, 3})
	s.Add([]uint32{7, 8, 9})
	_, m := s.Add([]uint32{1, 2, 3}) // original expired two records ago
	if len(m) != 0 {
		t.Fatalf("expired record matched: %v", m)
	}
	if s.Size() > 2 {
		t.Fatalf("window not enforced: size=%d", s.Size())
	}
}

func TestTickWindowExpires(t *testing.T) {
	s, _ := NewStream(Config{Threshold: 0.9, WindowTicks: 10})
	s.AddAt([]uint32{1, 2, 3}, 0)
	_, m := s.AddAt([]uint32{1, 2, 3}, 5)
	if len(m) != 1 {
		t.Fatalf("in-window match missing: %v", m)
	}
	_, m = s.AddAt([]uint32{1, 2, 3}, 100)
	if len(m) != 0 { // both earlier records are outside the 10-tick window
		t.Fatalf("expired records matched at t=100: %v", m)
	}
}

func TestStreamStats(t *testing.T) {
	s, _ := NewStream(Config{Threshold: 0.8})
	s.Add([]uint32{1, 2, 3, 4})
	s.Add([]uint32{1, 2, 3, 4})
	st := s.Stats()
	if st.Records != 2 || st.Stored != 2 || st.Results != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestMatchesSliceIsReused(t *testing.T) {
	s, _ := NewStream(Config{Threshold: 0.8})
	s.Add([]uint32{1, 2, 3, 4})
	_, m1 := s.Add([]uint32{1, 2, 3, 4})
	if len(m1) != 1 {
		t.Fatal("setup failed")
	}
	saved := m1[0]
	s.Add([]uint32{100, 200, 300})
	if saved != (Match{ID: 0, Overlap: 4, Similarity: 1.0}) {
		t.Fatalf("copied match corrupted: %+v", saved)
	}
}

// streamPairs feeds sets to a fresh Stream and returns the (earlier, later)
// ID pairs it matched, with the stream so a caller can keep it alive.
func streamPairs(t *testing.T, cfg Config, sets [][]uint32) (map[[2]uint64]bool, *Stream) {
	t.Helper()
	s, err := NewStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[[2]uint64]bool)
	for _, set := range sets {
		id, ms := s.Add(set)
		for _, m := range ms {
			out[[2]uint64{m.ID, id}] = true
		}
	}
	return out, s
}

func TestAllAlgorithmsAgreeViaPublicAPI(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	sets := make([][]uint32, 400)
	for i := range sets {
		n := 3 + rng.Intn(10)
		set := make([]uint32, n)
		for j := range set {
			set[j] = uint32(rng.Intn(80))
		}
		sets[i] = set
	}
	want, _ := streamPairs(t, Config{Threshold: 0.7, Algorithm: Naive}, sets)
	for _, alg := range []Algorithm{Bundle, Prefix} {
		got, _ := streamPairs(t, Config{Threshold: 0.7, Algorithm: alg}, sets)
		if len(got) != len(want) {
			t.Fatalf("%v: %d pairs vs %d", alg, len(got), len(want))
		}
		for p := range want {
			if !got[p] {
				t.Fatalf("%v: missing %v", alg, p)
			}
		}
	}
}

// TestHostileTokens feeds Stream.Add what only a caller outside
// tokens.Ordering can: the largest uint32, sparse powers of two, and 10 000
// distinct tokens chosen to share one bucket of the bundle index's posting
// table (their products with its hash multiplier agree in the top 16 bits).
// At τ 0.25 a 4-token record's prefix is the whole record, so every token
// ingested is a live posting. Matches must equal the naive joiner's, and the
// heap must grow with the postings, not with the largest token: the bound,
// 1 KiB per posting, is one a token-indexed directory misses by four orders
// of magnitude for a single 0xFFFFFFFF.
func TestHostileTokens(t *testing.T) {
	const hashMul = 0x9E3779B1 // bundle.sigHashMul
	inv := uint32(hashMul)     // its inverse mod 2^32, by Newton's iteration
	for i := 0; i < 5; i++ {
		inv *= 2 - hashMul*inv
	}
	var sets [][]uint32
	for k := 0; k < 10_000; k += 4 {
		set := make([]uint32, 4)
		for j := range set {
			set[j] = (0xABCD<<16 | uint32(k+j)) * inv
		}
		sets = append(sets, set)
	}
	for i := 0; i < 28; i++ {
		sets = append(sets, []uint32{0xFFFFFFFF, 1 << (i + 4), 1 << (i + 3), 1 << (i + 2)})
	}
	postings := 4 * len(sets)
	for i := 0; i < len(sets)-28; i += 10 { // near-duplicates: three of four tokens shared
		sets = append(sets, append([]uint32{0}, sets[i][:3]...))
	}
	sets = append(sets, []uint32{0xFFFFFFFF, 1 << 31, 1 << 30, 1 << 29}, []uint32{0, 0xFFFFFFFF})

	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapInuse
	}
	want, _ := streamPairs(t, Config{Threshold: 0.25, Algorithm: Naive}, sets)
	before := heap()
	got, s := streamPairs(t, Config{Threshold: 0.25, Algorithm: Bundle}, sets)
	grown := heap() - before
	runtime.KeepAlive(s)
	if len(want) < 250 {
		t.Fatalf("degenerate stream: the naive joiner finds %d pairs", len(want))
	}
	for p := range want {
		if !got[p] {
			t.Fatalf("missing %v", p)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d pairs, the naive joiner finds %d", len(got), len(want))
	}
	t.Logf("%d records, %d postings, heap grew %d KiB", len(sets), postings, grown>>10)
	if grown > uint64(postings)<<10 {
		t.Fatalf("heap grew %d KiB for %d postings", grown>>10, postings)
	}
}

func TestEnumStrings(t *testing.T) {
	if Jaccard.String() != "jaccard" || Cosine.String() != "cosine" ||
		Dice.String() != "dice" || Overlap.String() != "overlap" {
		t.Fatal("similarity strings")
	}
	if Bundle.String() != "bundle" || Prefix.String() != "prefix" || Naive.String() != "naive" {
		t.Fatal("algorithm strings")
	}
	if LengthBased.String() != "length" || PrefixBased.String() != "prefix" ||
		BroadcastBased.String() != "broadcast" {
		t.Fatal("distribution strings")
	}
	if LoadAware.String() != "load-aware" || EvenLength.String() != "even-length" ||
		EvenFrequency.String() != "even-frequency" {
		t.Fatal("partitioner strings")
	}
}

func TestTextStreamWords(t *testing.T) {
	sample := []string{
		"breaking news market rally continues",
		"weather sunny with clouds",
		"sports team wins championship final",
	}
	ts, err := NewTextStream(Config{Threshold: 0.7}, Words, sample)
	if err != nil {
		t.Fatal(err)
	}
	id0, _ := ts.Add("Breaking news: market rally continues!")
	_, m := ts.Add("breaking news market rally CONTINUES")
	if len(m) != 1 || m[0].ID != id0 {
		t.Fatalf("text dedup failed: %v", m)
	}
	if ts.Size() != 2 || ts.Stats().Records != 2 {
		t.Fatalf("size/stats: %d %+v", ts.Size(), ts.Stats())
	}
}

func TestTextStreamQGrams(t *testing.T) {
	ts, err := NewTextStream(Config{Threshold: 0.6}, QGrams, nil)
	if err != nil {
		t.Fatal(err)
	}
	id0, _ := ts.Add("similarity")
	_, m := ts.Add("similarty") // typo
	if len(m) != 1 || m[0].ID != id0 {
		t.Fatalf("qgram fuzzy match failed: %v", m)
	}
}

func TestTextStreamBadTokenization(t *testing.T) {
	if _, err := NewTextStream(Config{Threshold: 0.8}, Tokenization(9), nil); err == nil {
		t.Fatal("expected error")
	}
}

func TestTextStreamEmptyText(t *testing.T) {
	ts, _ := NewTextStream(Config{Threshold: 0.8}, Words, nil)
	_, m := ts.Add("...")
	if len(m) != 0 {
		t.Fatalf("empty text matched: %v", m)
	}
	_, m = ts.Add("!!!")
	if len(m) != 0 {
		t.Fatalf("two empty texts matched: %v", m)
	}
}

func TestJoinBatchMatchesStream(t *testing.T) {
	sets := [][]uint32{
		{1, 2, 3, 4, 5},
		{9, 8, 7},
		{1, 2, 3, 4, 5, 6},
		{7, 8, 9, 10},
	}
	pairs, err := JoinBatch(sets, Config{Threshold: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	// (0,2): 5/6 = 0.833; (1,3): 3/4 = 0.75
	if len(pairs) != 2 {
		t.Fatalf("pairs: %v", pairs)
	}
	if pairs[0].A != 0 || pairs[0].B != 2 || pairs[1].A != 1 || pairs[1].B != 3 {
		t.Fatalf("pairs: %v", pairs)
	}
	// Batch and streaming must agree on the same data.
	s, _ := NewStream(Config{Threshold: 0.7})
	n := 0
	for _, set := range sets {
		_, ms := s.Add(set)
		n += len(ms)
	}
	if n != len(pairs) {
		t.Fatalf("stream found %d, batch %d", n, len(pairs))
	}
}

func TestJoinBatchRejectsWindows(t *testing.T) {
	if _, err := JoinBatch(nil, Config{Threshold: 0.8, WindowRecords: 10}); err == nil {
		t.Fatal("window accepted in batch mode")
	}
	if _, err := JoinBatch(nil, Config{}); err == nil {
		t.Fatal("missing threshold accepted")
	}
}

func TestRefreshOrderingPreservesMatching(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vocabA := make([]string, 60)
	for i := range vocabA {
		vocabA[i] = "alpha" + string(rune('a'+i%26)) + string(rune('a'+i/26))
	}
	makeText := func() string {
		out := ""
		for j := 0; j < 6; j++ {
			out += vocabA[rng.Intn(len(vocabA))] + " "
		}
		return out
	}
	sample := make([]string, 30)
	for i := range sample {
		sample[i] = makeText()
	}
	tsA, _ := NewTextStream(Config{Threshold: 0.6, WindowRecords: 200}, Words, sample)
	tsB, _ := NewTextStream(Config{Threshold: 0.6, WindowRecords: 200}, Words, sample)
	texts := make([]string, 300)
	for i := range texts {
		texts[i] = makeText()
	}
	for i, text := range texts {
		if i == 150 {
			tsB.RefreshOrdering() // mid-stream refresh on B only
		}
		_, mA := tsA.Add(text)
		gotA := len(mA)
		_, mB := tsB.Add(text)
		if gotA != len(mB) {
			t.Fatalf("record %d: %d matches vs %d after refresh", i, gotA, len(mB))
		}
	}
	if tsA.Size() != tsB.Size() {
		t.Fatalf("sizes diverged: %d vs %d", tsA.Size(), tsB.Size())
	}
}

func TestRefreshOrderingRestoresPruning(t *testing.T) {
	// Bootstrap on one vocabulary, then stream a different one whose most
	// frequent word was unseen at bootstrap: it gets a rare rank and lands
	// in every prefix. After refresh, candidates per record must drop.
	sample := []string{"old words entirely different universe"}
	build := func() *TextStream {
		ts, _ := NewTextStream(Config{Threshold: 0.8, Algorithm: Prefix}, Words, sample)
		return ts
	}
	rng := rand.New(rand.NewSource(9))
	makeText := func(i int) string {
		// "common" appears in EVERY record; the rest are unique-ish.
		return "common w" + itoa(i) + " x" + itoa(rng.Intn(1000)) + " y" + itoa(rng.Intn(1000))
	}
	const n = 1500
	run := func(refreshAt int) uint64 {
		ts := build()
		for i := 0; i < n; i++ {
			if i == refreshAt {
				ts.RefreshOrdering()
			}
			ts.Add(makeText(i))
		}
		return ts.Stats().Candidates
	}
	noRefresh := run(-1)
	refreshed := run(n / 4)
	if refreshed >= noRefresh {
		t.Fatalf("refresh did not reduce candidates: %d vs %d", refreshed, noRefresh)
	}
	if refreshed*2 > noRefresh {
		t.Fatalf("refresh saving too small: %d vs %d", refreshed, noRefresh)
	}
}
