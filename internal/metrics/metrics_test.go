package metrics

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"
)

func TestLatencyBasics(t *testing.T) {
	var l Latency
	if l.Count() != 0 || l.Mean() != 0 || l.Quantile(0.5) != 0 {
		t.Fatal("zero value not empty")
	}
	l.Observe(100 * time.Microsecond)
	l.Observe(200 * time.Microsecond)
	l.Observe(300 * time.Microsecond)
	if l.Count() != 3 {
		t.Fatalf("count: %d", l.Count())
	}
	if got, want := l.Mean(), 200*time.Microsecond; got != want {
		t.Fatalf("mean: %v", got)
	}
	if l.Max() != 300*time.Microsecond {
		t.Fatalf("max: %v", l.Max())
	}
}

func TestLatencyNegativeClamped(t *testing.T) {
	var l Latency
	l.Observe(-5)
	if l.Count() != 1 || l.Max() != 0 {
		t.Fatal("negative duration not clamped")
	}
}

func TestQuantileWithinBucketError(t *testing.T) {
	var l Latency
	rng := rand.New(rand.NewSource(5))
	samples := make([]time.Duration, 0, 10000)
	for i := 0; i < 10000; i++ {
		d := time.Duration(rng.Intn(1_000_000)) * time.Nanosecond
		samples = append(samples, d)
		l.Observe(d)
	}
	// p50 of uniform [0,1ms) is ~0.5ms; log buckets guarantee at most 2x
	// relative error.
	p50 := l.Quantile(0.5)
	if p50 < 250*time.Microsecond || p50 > 1*time.Millisecond {
		t.Fatalf("p50 estimate too far off: %v", p50)
	}
	if l.Quantile(1.0) != l.Max() {
		t.Fatalf("p100 should be max: %v vs %v", l.Quantile(1.0), l.Max())
	}
	if l.Quantile(-1) > l.Quantile(2) {
		t.Fatal("clamped quantiles out of order")
	}
	_ = samples
}

func TestQuantileMonotone(t *testing.T) {
	var l Latency
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 5000; i++ {
		l.Observe(time.Duration(rng.ExpFloat64() * float64(time.Millisecond)))
	}
	prev := time.Duration(0)
	for q := 0.0; q <= 1.0; q += 0.05 {
		cur := l.Quantile(q)
		if cur < prev {
			t.Fatalf("quantiles not monotone at q=%v: %v < %v", q, cur, prev)
		}
		prev = cur
	}
}

func TestLatencyMerge(t *testing.T) {
	var a, b Latency
	a.Observe(time.Millisecond)
	b.Observe(3 * time.Millisecond)
	a.Merge(&b)
	if a.Count() != 2 {
		t.Fatalf("merged count: %d", a.Count())
	}
	if a.Max() != 3*time.Millisecond {
		t.Fatalf("merged max: %v", a.Max())
	}
	if a.Mean() != 2*time.Millisecond {
		t.Fatalf("merged mean: %v", a.Mean())
	}
}

func TestThroughput(t *testing.T) {
	tp := Throughput{Records: 1000, Elapsed: 2 * time.Second}
	if got := tp.PerSecond(); math.Abs(got-500) > 1e-9 {
		t.Fatalf("rate: %v", got)
	}
	if (Throughput{Records: 5}).PerSecond() != 0 {
		t.Fatal("zero elapsed should give 0")
	}
	if tp.String() == "" {
		t.Fatal("empty string")
	}
}

func TestSummarizeLoads(t *testing.T) {
	s := SummarizeLoads([]float64{10, 10, 10, 10})
	if s.Imbalance != 1 || s.CV != 0 {
		t.Fatalf("balanced: %+v", s)
	}
	s = SummarizeLoads([]float64{40, 0, 0, 0})
	if math.Abs(s.Imbalance-4) > 1e-9 {
		t.Fatalf("skewed imbalance: %v", s.Imbalance)
	}
	if s.Max != 40 || s.Min != 0 || s.Mean != 10 {
		t.Fatalf("stats: %+v", s)
	}
	s = SummarizeLoads(nil)
	if s.Imbalance != 1 {
		t.Fatalf("empty: %+v", s)
	}
	s = SummarizeLoads([]float64{0, 0})
	if s.Imbalance != 1 {
		t.Fatalf("all-zero: %+v", s)
	}
}

func TestSyncLatencyConcurrentObservers(t *testing.T) {
	var s SyncLatency
	var wg sync.WaitGroup
	const workers, perWorker = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				s.Observe(time.Duration(w*perWorker+i) * time.Microsecond)
			}
		}(w)
	}
	wg.Wait()
	hist := s.Snapshot()
	if hist.Count() != workers*perWorker {
		t.Fatalf("count = %d, want %d", hist.Count(), workers*perWorker)
	}
	if hist.Max() != time.Duration(workers*perWorker-1)*time.Microsecond {
		t.Fatalf("max = %v", hist.Max())
	}
	// The snapshot is a copy: later observations must not leak into it.
	s.Observe(time.Hour)
	if hist.Max() == time.Hour {
		t.Fatal("snapshot aliases live histogram")
	}
}

// TestBucketsRoundTrip rebuilds a quantile estimate from the exported
// bucket bounds and checks it agrees with Quantile itself — the exposition
// layer depends on Buckets() carrying the same information.
func TestBucketsRoundTrip(t *testing.T) {
	var l Latency
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		l.Observe(time.Duration(rng.Int63n(int64(10 * time.Millisecond))))
	}
	bs := l.Buckets()
	if len(bs) == 0 {
		t.Fatal("no buckets")
	}
	var total uint64
	var sum time.Duration
	prevHi := time.Duration(-1)
	for _, b := range bs {
		if b.Count == 0 {
			t.Fatalf("empty bucket exported: %+v", b)
		}
		if b.Hi <= b.Lo {
			t.Fatalf("bucket bounds inverted: %+v", b)
		}
		if b.Lo < prevHi {
			t.Fatalf("buckets out of order: lo %v after hi %v", b.Lo, prevHi)
		}
		prevHi = b.Hi
		total += b.Count
	}
	if total != l.Count() {
		t.Fatalf("bucket counts sum to %d, observations %d", total, l.Count())
	}
	if sum = l.Sum(); sum <= 0 {
		t.Fatalf("sum: %v", sum)
	}
	if got, want := time.Duration(float64(sum)/float64(total)), l.Mean(); got != want {
		t.Fatalf("mean from Sum/Count %v != Mean %v", got, want)
	}
	// Interpolate quantiles from the exported buckets exactly the way
	// Quantile does internally, and require agreement within one bucket.
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
		want := l.Quantile(q)
		rank := q * float64(total)
		var seen float64
		var got time.Duration
		for _, b := range bs {
			if seen+float64(b.Count) >= rank {
				frac := (rank - seen) / float64(b.Count)
				got = b.Lo + time.Duration(frac*float64(b.Hi-b.Lo))
				break
			}
			seen += float64(b.Count)
		}
		// Same log2 bucket: got and want must share a bucket's range.
		lo, hi := got, want
		if lo > hi {
			lo, hi = hi, lo
		}
		if hi > 2*lo+1 {
			t.Fatalf("q=%v: bucket estimate %v vs Quantile %v disagree beyond one bucket", q, got, want)
		}
	}
}

func TestBucketsSaturatingBound(t *testing.T) {
	var l Latency
	l.Observe(time.Duration(math.MaxInt64))
	bs := l.Buckets()
	if len(bs) != 1 || bs[len(bs)-1].Hi != time.Duration(math.MaxInt64) {
		t.Fatalf("top bucket: %+v", bs)
	}
}

// TestObserveNMatchesRepeatedObserve: one ObserveN(d, n) leaves the
// histogram as n calls to Observe(d) do, negative durations and n = 0
// included.
func TestObserveNMatchesRepeatedObserve(t *testing.T) {
	cases := []struct {
		d time.Duration
		n uint64
	}{
		{0, 1}, {1, 3}, {-5, 4}, {time.Microsecond, 64}, {3 * time.Millisecond, 0},
		{-time.Second, 0}, {150 * time.Microsecond, 17}, {time.Hour, 2}, {999, 1000},
	}
	var weighted, repeated Latency
	for i, c := range cases {
		weighted.ObserveN(c.d, c.n)
		for range c.n {
			repeated.Observe(c.d)
		}
		if weighted != repeated {
			t.Fatalf("after case %d (ObserveN(%v, %d)) the histograms differ", i, c.d, c.n)
		}
		if weighted.Count() != repeated.Count() || weighted.Sum() != repeated.Sum() || weighted.Max() != repeated.Max() {
			t.Fatalf("case %d: count/sum/max %d/%v/%v, want %d/%v/%v", i,
				weighted.Count(), weighted.Sum(), weighted.Max(), repeated.Count(), repeated.Sum(), repeated.Max())
		}
		wb, rb := weighted.Buckets(), repeated.Buckets()
		if len(wb) != len(rb) {
			t.Fatalf("case %d: %d buckets, want %d", i, len(wb), len(rb))
		}
		for j := range wb {
			if wb[j] != rb[j] {
				t.Fatalf("case %d: bucket %d is %+v, want %+v", i, j, wb[j], rb[j])
			}
		}
		for _, q := range []float64{0, 0.1, 0.5, 0.9, 0.99, 1} {
			if w, r := weighted.Quantile(q), repeated.Quantile(q); w != r {
				t.Fatalf("case %d: quantile %v is %v, want %v", i, q, w, r)
			}
		}
	}
	var empty Latency
	empty.ObserveN(time.Second, 0)
	if empty != (Latency{}) {
		t.Fatal("ObserveN with n = 0 changed an empty histogram")
	}
}
