package partition

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/filter"
	"repro/internal/similarity"
)

func TestHistogram(t *testing.T) {
	var h Histogram
	h.Add(3)
	h.Add(3)
	h.Add(7)
	if h.Count(3) != 2 || h.Count(7) != 1 || h.Count(5) != 0 {
		t.Fatalf("counts wrong: %d %d %d", h.Count(3), h.Count(7), h.Count(5))
	}
	if h.Total() != 3 {
		t.Fatalf("total: %d", h.Total())
	}
	if h.MaxLen() != 7 {
		t.Fatalf("maxlen: %d", h.MaxLen())
	}
	h.Add(-1) // ignored
	if h.Total() != 3 {
		t.Fatal("negative length not ignored")
	}
}

func TestEmptyHistogram(t *testing.T) {
	var h Histogram
	if h.MaxLen() != 0 || h.Total() != 0 {
		t.Fatal("empty histogram")
	}
}

func TestWorkerOfAndOverlapping(t *testing.T) {
	p := Partition{Bounds: []int{10, 20, 30}}
	cases := []struct{ l, want int }{
		{1, 0}, {10, 0}, {11, 1}, {20, 1}, {21, 2}, {30, 2}, {99, 2},
	}
	for _, c := range cases {
		if got := p.WorkerOf(c.l); got != c.want {
			t.Errorf("WorkerOf(%d) = %d want %d", c.l, got, c.want)
		}
	}
	if f, l := p.Overlapping(8, 22); f != 0 || l != 2 {
		t.Fatalf("Overlapping(8,22) = %d,%d", f, l)
	}
	if f, l := p.Overlapping(12, 15); f != 1 || l != 1 {
		t.Fatalf("Overlapping(12,15) = %d,%d", f, l)
	}
}

func TestEvenLength(t *testing.T) {
	p := EvenLength(100, 4)
	if p.Workers() != 4 {
		t.Fatalf("workers: %d", p.Workers())
	}
	if p.Bounds[3] != 100 {
		t.Fatalf("last bound must cover maxLen: %v", p.Bounds)
	}
	for i := 1; i < 4; i++ {
		if p.Bounds[i] < p.Bounds[i-1] {
			t.Fatalf("bounds not monotone: %v", p.Bounds)
		}
	}
}

func TestEvenFrequencyBalancesCounts(t *testing.T) {
	var h Histogram
	// Heavy skew: 1000 records of length 5, few elsewhere.
	for i := 0; i < 1000; i++ {
		h.Add(5)
	}
	for l := 20; l < 30; l++ {
		h.Add(l)
	}
	p := EvenFrequency(&h, 2)
	// Worker 0 should take length 5 and not much more.
	if p.WorkerOf(5) != 0 {
		t.Fatalf("length 5 on worker %d", p.WorkerOf(5))
	}
	if p.WorkerOf(25) != 1 {
		t.Fatalf("length 25 on worker %d: %v", p.WorkerOf(25), p.Bounds)
	}
}

// TestCostModelWeightsMatchDirectComputation pins the cost model to token
// mass: a length's weight is the number of tokens in the records of that
// length, counted here one record at a time, whatever the join parameters.
func TestCostModelWeightsMatchDirectComputation(t *testing.T) {
	var h Histogram
	rng := rand.New(rand.NewSource(3))
	direct := make([]float64, 41)
	var tokens float64
	for i := 0; i < 500; i++ {
		l := 1 + rng.Intn(40)
		h.Add(l)
		direct[l] += float64(l)
		tokens += float64(l)
	}
	w := CostModel{Params: filter.Params{Func: similarity.Jaccard, Threshold: 0.8}}.Weights(&h)
	if len(w) != h.MaxLen()+1 || w[0] != 0 {
		t.Fatalf("weights indexed 0..%d with w[0]=%v, want 0..%d and 0", len(w)-1, w[0], h.MaxLen())
	}
	var sum float64
	for l := 1; l < len(w); l++ {
		if w[l] != direct[l] {
			t.Fatalf("weight mismatch at l=%d: got %v want %v", l, w[l], direct[l])
		}
		sum += w[l]
	}
	if sum != tokens {
		t.Fatalf("weights sum to %v, the sample holds %v tokens", sum, tokens)
	}
	loose := CostModel{Params: filter.Params{Func: similarity.Cosine, Threshold: 0.5}}.Weights(&h)
	if !slices.Equal(w, loose) {
		t.Fatal("weights depend on the join parameters")
	}
	if w := (CostModel{}).Weights(new(Histogram)); len(w) != 1 {
		t.Fatalf("empty histogram: %v", w)
	}
}

func TestLoadAwareBeatsBaselinesOnSkew(t *testing.T) {
	params := filter.Params{Func: similarity.Jaccard, Threshold: 0.8}
	var h Histogram
	rng := rand.New(rand.NewSource(7))
	// Zipf-flavored length skew around short lengths.
	for i := 0; i < 20000; i++ {
		l := 1 + int(math.Floor(math.Pow(rng.Float64(), 3)*80))
		h.Add(l)
	}
	w := CostModel{Params: params}.Weights(&h)
	k := 8
	la := LoadAware(w, k)
	el := EvenLength(h.MaxLen(), k)
	ef := EvenFrequency(&h, k)
	iLA, iEL, iEF := Imbalance(la, w), Imbalance(el, w), Imbalance(ef, w)
	if iLA > iEL || iLA > iEF {
		t.Fatalf("load-aware not best: la=%v el=%v ef=%v", iLA, iEL, iEF)
	}
	if iLA > 2.0 {
		t.Fatalf("load-aware imbalance too high: %v (bounds %v)", iLA, la.Bounds)
	}
}

func TestLoadAwareIsMinimaxOptimalOnSmallInputs(t *testing.T) {
	// Exhaustive check against brute-force optimal contiguous partition.
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(8)
		w := make([]float64, n+1)
		for l := 1; l <= n; l++ {
			w[l] = float64(rng.Intn(100))
		}
		for k := 1; k <= 4; k++ {
			got := maxLoad(LoadAware(w, k), w)
			want := bruteOptimal(w, k)
			if got > want+1e-9 {
				t.Fatalf("suboptimal: w=%v k=%d got %v want %v", w[1:], k, got, want)
			}
		}
	}
}

func maxLoad(p Partition, w []float64) float64 {
	var max float64
	for _, ld := range Loads(p, w) {
		if ld > max {
			max = ld
		}
	}
	return max
}

// bruteOptimal computes the optimal minimax contiguous partition by DP.
func bruteOptimal(w []float64, k int) float64 {
	n := len(w) - 1
	prefix := make([]float64, n+1)
	for l := 1; l <= n; l++ {
		prefix[l] = prefix[l-1] + w[l]
	}
	const inf = math.MaxFloat64
	dp := make([][]float64, k+1)
	for i := range dp {
		dp[i] = make([]float64, n+1)
		for j := range dp[i] {
			dp[i][j] = inf
		}
	}
	dp[0][0] = 0
	for parts := 1; parts <= k; parts++ {
		for end := 0; end <= n; end++ {
			for cut := 0; cut <= end; cut++ {
				if dp[parts-1][cut] == inf {
					continue
				}
				load := prefix[end] - prefix[cut]
				worst := dp[parts-1][cut]
				if load > worst {
					worst = load
				}
				if worst < dp[parts][end] {
					dp[parts][end] = worst
				}
			}
		}
	}
	return dp[k][n]
}

func TestLoadAwareEdgeCases(t *testing.T) {
	// All-zero weights fall back to even-length.
	p := LoadAware(make([]float64, 11), 3)
	if p.Workers() != 3 {
		t.Fatalf("workers: %d", p.Workers())
	}
	// k=1 owns everything.
	w := []float64{0, 5, 5, 5}
	p = LoadAware(w, 1)
	if p.Workers() != 1 || p.WorkerOf(2) != 0 {
		t.Fatalf("k=1: %v", p.Bounds)
	}
	// More workers than lengths.
	p = LoadAware([]float64{0, 10}, 4)
	if p.Workers() != 4 {
		t.Fatalf("padded workers: %v", p.Bounds)
	}
}

func TestPanicOnBadK(t *testing.T) {
	for _, f := range []func(){
		func() { EvenLength(10, 0) },
		func() { EvenFrequency(&Histogram{}, 0) },
		func() { LoadAware([]float64{0, 1}, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic for k=0")
				}
			}()
			f()
		}()
	}
}

func TestImbalancePerfectSplit(t *testing.T) {
	w := []float64{0, 1, 1, 1, 1}
	p := Partition{Bounds: []int{2, 4}}
	if got := Imbalance(p, w); math.Abs(got-1) > 1e-9 {
		t.Fatalf("imbalance: got %v want 1", got)
	}
}

func TestPartitionString(t *testing.T) {
	p := Partition{Bounds: []int{5, 9}}
	if got := p.String(); got != "[(0,5] (5,9]]" {
		t.Fatalf("string: %q", got)
	}
}

// Property: every length maps to exactly one worker and Overlapping is
// consistent with WorkerOf for arbitrary partitions and ranges.
func TestPartitionPropertyCoverage(t *testing.T) {
	f := func(rawBounds []uint16, l uint16, lo, hi uint16) bool {
		if len(rawBounds) == 0 {
			return true
		}
		bounds := make([]int, 0, len(rawBounds))
		for _, b := range rawBounds {
			bounds = append(bounds, int(b))
		}
		sort.Ints(bounds)
		p := Partition{Bounds: bounds}
		w := p.WorkerOf(int(l))
		if w < 0 || w >= p.Workers() {
			return false
		}
		if lo > hi {
			lo, hi = hi, lo
		}
		first, last := p.Overlapping(int(lo), int(hi))
		if first > last {
			return false
		}
		// Every worker owning a length inside [lo,hi] must lie in
		// [first,last].
		for x := int(lo); x <= int(hi) && x < int(lo)+200; x++ {
			wx := p.WorkerOf(x)
			if wx < first || wx > last {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: the load-aware partition never has a max load above the
// greedy bound sum/k + maxWeight.
func TestLoadAwareBoundProperty(t *testing.T) {
	f := func(raw []uint8, kRaw uint8) bool {
		k := int(kRaw)%8 + 1
		w := make([]float64, len(raw)+1)
		var sum, maxW float64
		for i, v := range raw {
			w[i+1] = float64(v)
			sum += float64(v)
			if float64(v) > maxW {
				maxW = float64(v)
			}
		}
		p := LoadAware(w, k)
		if p.Workers() != k {
			return false
		}
		return maxLoad(p, w) <= sum/float64(k)+maxW+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
