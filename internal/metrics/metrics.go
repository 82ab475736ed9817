// Package metrics provides the measurement plumbing of the experiment
// harness: a log-bucketed latency histogram with percentile queries, a
// throughput summary, and load-imbalance statistics over per-worker work
// counters.
package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
	"time"
)

// Latency is a log2-bucketed histogram of durations. Buckets grow
// geometrically, so percentile estimates carry at most ~50% relative error
// at nanosecond scale and far less after interpolation — plenty for
// comparing frameworks orders of magnitude apart. The zero value is ready
// to use; it is not safe for concurrent writers.
type Latency struct {
	buckets [64]uint64
	count   uint64
	sum     time.Duration
	max     time.Duration
}

func bucketOf(d time.Duration) int {
	n := uint64(d)
	if n == 0 {
		return 0
	}
	return 63 - bits.LeadingZeros64(n)
}

// Observe records one duration (negative durations are clamped to zero).
func (l *Latency) Observe(d time.Duration) { l.ObserveN(d, 1) }

// ObserveN records n observations of one duration, exactly as n calls to
// Observe would; n = 0 records nothing.
func (l *Latency) ObserveN(d time.Duration, n uint64) {
	if n == 0 {
		return
	}
	if d < 0 {
		d = 0
	}
	l.buckets[bucketOf(d)] += n
	l.count += n
	l.sum += d * time.Duration(n)
	if d > l.max {
		l.max = d
	}
}

// Count returns the number of observations.
func (l *Latency) Count() uint64 { return l.count }

// Mean returns the average observed duration (0 when empty).
func (l *Latency) Mean() time.Duration {
	if l.count == 0 {
		return 0
	}
	return l.sum / time.Duration(l.count)
}

// Max returns the largest observed duration.
func (l *Latency) Max() time.Duration { return l.max }

// Quantile returns an interpolated estimate of the q-quantile, q in [0,1].
func (l *Latency) Quantile(q float64) time.Duration {
	if l.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(l.count)
	var acc float64
	for b, n := range l.buckets {
		if n == 0 {
			continue
		}
		next := acc + float64(n)
		if next >= target {
			lo := float64(uint64(1) << uint(b))
			if b == 0 {
				lo = 0
			}
			hi := float64(uint64(1) << uint(b+1))
			frac := 0.5
			if n > 0 {
				frac = (target - acc) / float64(n)
			}
			d := time.Duration(lo + (hi-lo)*frac)
			if d > l.max {
				d = l.max
			}
			return d
		}
		acc = next
	}
	return l.max
}

// Bucket is one log2 histogram bucket: Count observations with durations
// in [Lo, Hi). Buckets returns them so callers can render the histogram in
// external formats (e.g. Prometheus text exposition) without losing the
// information Quantile interpolates over.
type Bucket struct {
	Lo, Hi time.Duration
	Count  uint64
}

// Buckets returns the non-empty buckets in ascending bound order. The
// bounds follow the internal log2 layout: bucket b covers [2^b, 2^(b+1))
// nanoseconds, except the first (which starts at 0) and the last (whose
// upper bound saturates at the maximum Duration). Summing the counts
// reproduces Count(), and a quantile computed by interpolating inside these
// buckets agrees with Quantile up to the shared bucket resolution.
func (l *Latency) Buckets() []Bucket {
	var out []Bucket
	for b, n := range l.buckets {
		if n == 0 {
			continue
		}
		lo := time.Duration(uint64(1) << uint(b))
		if b == 0 {
			lo = 0
		}
		hi := time.Duration(math.MaxInt64)
		if b < 62 { // 1<<63 would overflow int64
			hi = time.Duration(uint64(1) << uint(b+1))
		}
		out = append(out, Bucket{Lo: lo, Hi: hi, Count: n})
	}
	return out
}

// Sum returns the total of all observed durations.
func (l *Latency) Sum() time.Duration { return l.sum }

// Merge adds the contents of other into l.
func (l *Latency) Merge(other *Latency) {
	for i, n := range other.buckets {
		l.buckets[i] += n
	}
	l.count += other.count
	l.sum += other.sum
	if other.max > l.max {
		l.max = other.max
	}
}

// SyncLatency is a Latency histogram safe for concurrent observers: many
// goroutines Observe, any goroutine Snapshots. The zero value is ready to
// use.
type SyncLatency struct {
	mu   sync.Mutex
	hist Latency // guarded by mu
}

// Observe records one duration.
func (s *SyncLatency) Observe(d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.hist.Observe(d)
}

// Snapshot returns a point-in-time copy of the histogram, safe to query
// without further locking.
func (s *SyncLatency) Snapshot() Latency {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hist
}

// Throughput summarizes a processed-count over elapsed wall time.
type Throughput struct {
	Records uint64
	Elapsed time.Duration
}

// PerSecond returns records/second (0 for zero elapsed).
func (t Throughput) PerSecond() float64 {
	if t.Elapsed <= 0 {
		return 0
	}
	return float64(t.Records) / t.Elapsed.Seconds()
}

// String implements fmt.Stringer.
func (t Throughput) String() string {
	return fmt.Sprintf("%.0f rec/s (%d in %v)", t.PerSecond(), t.Records, t.Elapsed.Round(time.Millisecond))
}

// LoadSummary characterizes per-worker load distribution.
type LoadSummary struct {
	Max, Min, Mean float64
	// Imbalance is max/mean: 1.0 is perfectly balanced, k is worst.
	Imbalance float64
	// CV is the coefficient of variation (stddev/mean).
	CV float64
}

// SummarizeLoads computes a LoadSummary over per-worker work counters.
func SummarizeLoads(loads []float64) LoadSummary {
	if len(loads) == 0 {
		return LoadSummary{Imbalance: 1}
	}
	var sum, max float64
	min := math.MaxFloat64
	for _, l := range loads {
		sum += l
		if l > max {
			max = l
		}
		if l < min {
			min = l
		}
	}
	mean := sum / float64(len(loads))
	var varsum float64
	for _, l := range loads {
		d := l - mean
		varsum += d * d
	}
	s := LoadSummary{Max: max, Min: min, Mean: mean}
	if mean > 0 {
		s.Imbalance = max / mean
		s.CV = math.Sqrt(varsum/float64(len(loads))) / mean
	} else {
		s.Imbalance = 1
	}
	return s
}
