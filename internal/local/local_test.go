package local

import (
	"math/rand"
	"testing"

	"repro/internal/filter"
	"repro/internal/record"
	"repro/internal/similarity"
	"repro/internal/tokens"
	"repro/internal/window"
)

func opts(tau float64, win window.Policy) Options {
	return Options{
		Params: filter.Params{Func: similarity.Jaccard, Threshold: tau},
		Window: win,
	}
}

func rec(id record.ID, ranks ...tokens.Rank) *record.Record {
	return &record.Record{ID: id, Time: int64(id), Tokens: tokens.Dedup(ranks)}
}

func allAlgorithms() []Algorithm { return []Algorithm{Naive, Prefix, Bundled} }

func TestAlgorithmStringRoundTrip(t *testing.T) {
	for _, a := range allAlgorithms() {
		got, err := ParseAlgorithm(a.String())
		if err != nil || got != a {
			t.Fatalf("round trip %v: got %v err %v", a, got, err)
		}
	}
	if _, err := ParseAlgorithm("zzz"); err == nil {
		t.Fatal("expected parse error")
	}
}

func TestEveryJoinerFindsDuplicate(t *testing.T) {
	for _, a := range allAlgorithms() {
		j := New(a, opts(0.9, window.Unbounded{}))
		var got []record.ID
		j.Step(rec(0, 1, 2, 3, 4), true, func(Match) {})
		j.Step(rec(1, 1, 2, 3, 4), true, func(m Match) { got = append(got, m.Rec.ID) })
		if len(got) != 1 || got[0] != 0 {
			t.Fatalf("%v: matches=%v", a, got)
		}
		if j.Size() != 2 {
			t.Fatalf("%v: size=%d want 2", a, j.Size())
		}
	}
}

func TestProbeOnlyDoesNotStore(t *testing.T) {
	for _, a := range allAlgorithms() {
		j := New(a, opts(0.8, window.Unbounded{}))
		j.Step(rec(0, 1, 2, 3, 4), false, func(Match) {})
		n := 0
		j.Step(rec(1, 1, 2, 3, 4), true, func(Match) { n++ })
		if n != 0 {
			t.Fatalf("%v: probe-only record was stored (found %d matches)", a, n)
		}
		if j.Size() != 1 {
			t.Fatalf("%v: size=%d want 1", a, j.Size())
		}
	}
}

// TestJoinersAgreeWithNaive drives all three joiners over random streams at
// several thresholds and windows: their emitted pair sets must be
// identical.
func TestJoinersAgreeWithNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for _, tau := range []float64{0.5, 0.7, 0.85} {
		for _, win := range []window.Policy{window.Unbounded{}, window.Count{N: 30}, window.Time{Span: 40}} {
			stream := randomStream(rng, 300, 55)
			results := make(map[Algorithm]map[record.Pair]bool)
			for _, a := range allAlgorithms() {
				j := New(a, opts(tau, win))
				pairs := make(map[record.Pair]bool)
				for _, r := range stream {
					j.Step(r, true, func(m Match) {
						pairs[record.NewPair(r.ID, m.Rec.ID, 0)] = true
					})
				}
				results[a] = pairs
			}
			want := results[Naive]
			for _, a := range []Algorithm{Prefix, Bundled} {
				got := results[a]
				if len(got) != len(want) {
					t.Fatalf("τ=%v win=%v: %v found %d pairs, naive %d",
						tau, win, a, len(got), len(want))
				}
				for p := range want {
					if !got[p] {
						t.Fatalf("τ=%v win=%v: %v missing %v", tau, win, a, p)
					}
				}
			}
		}
	}
}

// TestJoinersAgreeOnCosineAndDice extends the agreement test to the other
// fractional similarity functions.
func TestJoinersAgreeOnCosineAndDice(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for _, f := range []similarity.Func{similarity.Cosine, similarity.Dice} {
		stream := randomStream(rng, 250, 45)
		o := Options{
			Params: filter.Params{Func: f, Threshold: 0.75},
			Window: window.Unbounded{},
		}
		results := make(map[Algorithm]map[record.Pair]bool)
		for _, a := range allAlgorithms() {
			j := New(a, o)
			pairs := make(map[record.Pair]bool)
			for _, r := range stream {
				j.Step(r, true, func(m Match) {
					pairs[record.NewPair(r.ID, m.Rec.ID, 0)] = true
				})
			}
			results[a] = pairs
		}
		want := results[Naive]
		for _, a := range []Algorithm{Prefix, Bundled} {
			got := results[a]
			if len(got) != len(want) {
				t.Fatalf("%v %v: got %d pairs want %d", f, a, len(got), len(want))
			}
			for p := range want {
				if !got[p] {
					t.Fatalf("%v %v: missing %v", f, a, p)
				}
			}
		}
	}
}

func TestPrefixScansLessThanNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	stream := randomStream(rng, 800, 2000)
	nv := New(Naive, opts(0.8, window.Unbounded{}))
	pf := New(Prefix, opts(0.8, window.Unbounded{}))
	for _, r := range stream {
		nv.Step(r, true, func(Match) {})
		pf.Step(r, true, func(Match) {})
	}
	if pf.Cost().Verified >= nv.Cost().Verified {
		t.Fatalf("prefix filter gave no pruning: prefix=%d naive=%d",
			pf.Cost().Verified, nv.Cost().Verified)
	}
}

func TestCostCounters(t *testing.T) {
	for _, a := range allAlgorithms() {
		j := New(a, opts(0.8, window.Unbounded{}))
		j.Step(rec(0, 1, 2, 3, 4), true, func(Match) {})
		j.Step(rec(1, 1, 2, 3, 4), true, func(Match) {})
		c := j.Cost()
		if c.Probes != 2 {
			t.Fatalf("%v probes: %d", a, c.Probes)
		}
		if c.Stored != 2 {
			t.Fatalf("%v stored: %d", a, c.Stored)
		}
		if c.Results != 1 {
			t.Fatalf("%v results: %d", a, c.Results)
		}
	}
}

func TestNilWindowDefaultsToUnbounded(t *testing.T) {
	j := New(Prefix, Options{Params: filter.Params{Func: similarity.Jaccard, Threshold: 0.8}})
	j.Step(rec(0, 1, 2, 3), true, func(Match) {})
	n := 0
	j.Step(rec(1000000, 1, 2, 3), true, func(Match) { n++ })
	if n != 1 {
		t.Fatalf("unbounded default: got %d matches want 1", n)
	}
}

func randomStream(rng *rand.Rand, n, universe int) []*record.Record {
	var protos [][]tokens.Rank
	out := make([]*record.Record, 0, n)
	for i := 0; i < n; i++ {
		var set []tokens.Rank
		if len(protos) > 0 && rng.Float64() < 0.5 {
			proto := protos[rng.Intn(len(protos))]
			set = append([]tokens.Rank{}, proto...)
			if len(set) > 1 && rng.Float64() < 0.6 {
				set[rng.Intn(len(set))] = tokens.Rank(rng.Intn(universe))
			}
		} else {
			m := 2 + rng.Intn(12)
			for len(set) < m {
				set = append(set, tokens.Rank(rng.Intn(universe)))
			}
			protos = append(protos, set)
		}
		out = append(out, rec(record.ID(i), set...))
	}
	return out
}

// TestSuffixFilterPreservesResults: enabling the suffix filter must never
// change the result set, only prune candidates earlier.
func TestSuffixFilterPreservesResults(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	stream := randomStream(rng, 400, 60)
	run := func(suffix bool) (map[record.Pair]bool, Cost) {
		o := opts(0.7, window.Unbounded{})
		o.SuffixFilter = suffix
		j := New(Prefix, o)
		pairs := make(map[record.Pair]bool)
		for _, r := range stream {
			j.Step(r, true, func(m Match) {
				pairs[record.NewPair(r.ID, m.Rec.ID, 0)] = true
			})
		}
		return pairs, j.Cost()
	}
	plain, _ := run(false)
	filtered, cost := run(true)
	if len(plain) != len(filtered) {
		t.Fatalf("suffix filter changed results: %d vs %d", len(plain), len(filtered))
	}
	for p := range plain {
		if !filtered[p] {
			t.Fatalf("suffix filter dropped %v", p)
		}
	}
	if cost.SuffixPruned == 0 {
		t.Fatal("suffix filter never pruned anything on a random stream")
	}
}

func TestSuffixDepthDefault(t *testing.T) {
	o := opts(0.8, nil)
	o.SuffixFilter = true
	j := New(Prefix, o).(*prefixJoiner)
	if j.suffixDepth != 2 {
		t.Fatalf("default depth: %d", j.suffixDepth)
	}
	o.SuffixDepth = 5
	j = New(Prefix, o).(*prefixJoiner)
	if j.suffixDepth != 5 {
		t.Fatalf("explicit depth: %d", j.suffixDepth)
	}
}

func TestJoinerNames(t *testing.T) {
	for _, a := range allAlgorithms() {
		if got := New(a, opts(0.8, nil)).Name(); got != a.String() {
			t.Fatalf("name: %q vs %q", got, a.String())
		}
	}
}

func TestDumpAndLoadRoundTripPerJoiner(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	stream := randomStream(rng, 150, 40)
	for _, a := range allAlgorithms() {
		src := New(a, opts(0.7, window.Count{N: 60}))
		for _, r := range stream {
			src.Step(r, true, func(Match) {})
		}
		// Dump must visit exactly Size() live records in arrival order.
		var dumped []*record.Record
		src.Dump(func(r *record.Record) bool {
			dumped = append(dumped, r)
			return true
		})
		if len(dumped) != src.Size() {
			t.Fatalf("%v: dumped %d, size %d", a, len(dumped), src.Size())
		}
		for i := 1; i < len(dumped); i++ {
			if dumped[i].ID <= dumped[i-1].ID {
				t.Fatalf("%v: dump not in arrival order", a)
			}
		}
		// Early-stop must work.
		n := 0
		src.Dump(func(*record.Record) bool { n++; return n < 3 })
		if n != 3 && src.Size() >= 3 {
			t.Fatalf("%v: early stop visited %d", a, n)
		}
		// Load into a fresh joiner; future probes must behave like src.
		dst := New(a, opts(0.7, window.Count{N: 60}))
		for _, r := range dumped {
			dst.Load(r)
		}
		if dst.Size() != src.Size() {
			t.Fatalf("%v: loaded size %d vs %d", a, dst.Size(), src.Size())
		}
		probe := stream[len(stream)-1]
		probe2 := &record.Record{ID: probe.ID + 1, Time: probe.Time + 1, Tokens: probe.Tokens}
		var a1, a2 int
		src.Step(probe2, false, func(Match) { a1++ })
		dst.Step(probe2, false, func(Match) { a2++ })
		if a1 != a2 {
			t.Fatalf("%v: restored joiner diverges: %d vs %d matches", a, a1, a2)
		}
	}
}

func TestBiJoinerDirect(t *testing.T) {
	bi := NewBi(Prefix, opts(0.8, window.Count{N: 100}))
	got := 0
	bi.StepSide(rec(0, 1, 2, 3, 4), false, true, func(Match) { got++ })
	bi.StepSide(rec(1, 1, 2, 3, 4), true, true, func(m Match) {
		got++
		if m.Rec.ID != 0 {
			t.Fatalf("wrong partner %d", m.Rec.ID)
		}
	})
	bi.StepSide(rec(2, 1, 2, 3, 4), false, true, func(m Match) { got++ }) // matches right record 1
	if got != 2 {
		t.Fatalf("matches: %d", got)
	}
	if bi.SizeLeft() != 2 || bi.SizeRight() != 1 {
		t.Fatalf("sizes: %d/%d", bi.SizeLeft(), bi.SizeRight())
	}
	if bi.left.Cost().Stored != 2 || bi.right.Cost().Stored != 1 {
		t.Fatalf("costs: %+v %+v", bi.left.Cost(), bi.right.Cost())
	}
}

func TestBiJoinerOwnSideEviction(t *testing.T) {
	// A left record must expire from the left store even if no right
	// record probes it for a while.
	bi := NewBi(Naive, opts(0.9, window.Count{N: 2}))
	bi.StepSide(rec(0, 1, 2, 3), false, true, func(Match) {})
	bi.StepSide(rec(5, 7, 8, 9), false, true, func(Match) {})
	bi.StepSide(rec(10, 11, 12, 13), false, true, func(Match) {})
	if bi.SizeLeft() > 2 {
		t.Fatalf("left store not evicted: %d", bi.SizeLeft())
	}
}

// TestCountingStepMatchesEmitting steps two joiners of each algorithm over
// the same stream, one emitting and one with a nil emit: each Step must
// return the number of matches emitted, and the counting joiner must do
// exactly the emitting one's work.
func TestCountingStepMatchesEmitting(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, tau := range []float64{0.5, 0.8} {
		// Short records repeat, so τ 0.8 reaches the bundle index's twin
		// entries and subset keys.
		stream := randomStream(rng, 300, 12)
		for _, a := range allAlgorithms() {
			emitting, counting := New(a, opts(tau, window.Count{N: 40})), New(a, opts(tau, window.Count{N: 40}))
			total := 0
			for _, r := range stream {
				n := 0
				got := emitting.Step(r, true, func(Match) { n++ })
				if c := counting.Step(r, true, nil); got != n || c != n {
					t.Fatalf("τ=%v %v record %d: emitted %d, Step returned %d emitting and %d counting", tau, a, r.ID, n, got, c)
				}
				total += n
			}
			if e, c := emitting.Cost(), counting.Cost(); e != c {
				t.Fatalf("τ=%v %v: emitting cost %+v, counting cost %+v", tau, a, e, c)
			}
			if total == 0 {
				t.Fatalf("τ=%v %v: the stream matched nothing", tau, a)
			}
		}
	}
}

// TestBiStepAllocs holds a two-stream step at 0 allocations once the
// joiners' scratch is warm, so the storing side's eviction tick must not
// allocate a record per step, nor a joiner's candidate bookkeeping: the
// probe shares tokens with every stored record of the other side.
func TestBiStepAllocs(t *testing.T) {
	for _, a := range allAlgorithms() {
		bi := NewBi(a, opts(0.8, window.Unbounded{}))
		for i := record.ID(0); i < 20; i++ {
			bi.StepSide(rec(i, 1, 2, 3, tokens.Rank(4+i%3)), i%2 == 1, true, nil)
		}
		probe := rec(20, 1, 2, 3, 9)
		bi.StepSide(probe, false, false, nil)
		if n := testing.AllocsPerRun(100, func() { bi.StepSide(probe, false, false, nil) }); n != 0 {
			t.Fatalf("%v: a bi step allocates %v times", a, n)
		}
	}
}

// TestBiOwnSideEvictionIsNotAProbe: a two-stream step probes the opposite
// side once and only evicts its own side, so Cost().Probes counts the
// steps and the Naive joiner scans only the opposite side's records, under
// Jaccard and under Overlap (where every length is compatible, so a probe
// of the storing side would verify its whole store). A one-sided stream
// under a count window keeps on its side what a self-join keeps.
func TestBiOwnSideEvictionIsNotAProbe(t *testing.T) {
	const steps = 200
	for _, p := range []filter.Params{
		{Func: similarity.Jaccard, Threshold: 0.6},
		{Func: similarity.Overlap, Threshold: 3},
	} {
		for _, a := range allAlgorithms() {
			bi := NewBi(a, Options{Params: p})
			var scans uint64
			sizes := [2]uint64{}
			for i := record.ID(0); i < steps; i++ {
				right := i%2 == 1
				if right {
					scans += sizes[0]
				} else {
					scans += sizes[1]
				}
				bi.StepSide(rec(i, 1, 2, 3, tokens.Rank(4+i)), right, true, nil)
				if right {
					sizes[1]++
				} else {
					sizes[0]++
				}
			}
			c := bi.Cost()
			if c.Probes != steps {
				t.Errorf("%v %v: %d probes over %d steps", p.Func, a, c.Probes, steps)
			}
			if a == Naive && (c.Scanned != scans || c.Verified > scans) {
				t.Errorf("%v naive: scanned %d, verified %d; the opposite sides held %d", p.Func, c.Scanned, c.Verified, scans)
			}
		}
	}
	for _, a := range allAlgorithms() {
		bi, single := NewBi(a, opts(0.9, window.Count{N: 10})), New(a, opts(0.9, window.Count{N: 10}))
		for i := record.ID(0); i < 100; i++ {
			r := rec(i, tokens.Rank(i), tokens.Rank(i+1000))
			bi.StepSide(r, false, true, nil)
			single.Step(r, true, nil)
			if bi.SizeLeft() != single.Size() || bi.SizeRight() != 0 {
				t.Fatalf("%v: after record %d the sides hold %d/%d, a self-join %d", a, i, bi.SizeLeft(), bi.SizeRight(), single.Size())
			}
		}
	}
}
