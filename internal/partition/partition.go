// Package partition implements the length-domain partitioning behind the
// length-based distribution framework: the stream's record-length histogram
// feeds a local-join cost model, and a partitioner splits the length domain
// into contiguous per-worker intervals. Three strategies are provided —
// even-length and even-frequency baselines, and the load-aware partitioner
// that balances estimated join cost, which is the paper's contribution.
package partition

import (
	"fmt"
	"sort"

	"repro/internal/filter"
	"repro/internal/record"
)

// SampleSize is how many leading records a length plan is fitted to.
const SampleSize = 10000

// Histogram counts records by set size. The zero value is ready to use.
type Histogram struct {
	counts []uint64
	total  uint64
}

// Add records one observation of a record with the given length.
func (h *Histogram) Add(length int) {
	if length < 0 {
		return
	}
	for len(h.counts) <= length {
		h.counts = append(h.counts, 0)
	}
	h.counts[length]++
	h.total++
}

// Count returns the number of observed records with exactly the given
// length.
func (h *Histogram) Count(length int) uint64 {
	if length < 0 || length >= len(h.counts) {
		return 0
	}
	return h.counts[length]
}

// Total returns the number of observations.
func (h *Histogram) Total() uint64 { return h.total }

// MaxLen returns the largest observed length (0 when empty).
func (h *Histogram) MaxLen() int {
	for l := len(h.counts) - 1; l >= 0; l-- {
		if h.counts[l] > 0 {
			return l
		}
	}
	return 0
}

// CostModel estimates the local join cost each record length contributes
// under the length-based framework. What the bundle index pays for a record
// — prefix lookups, posting writes, signature and union maintenance — is
// linear in its length, and the signature gate discards nearly every
// length-compatible pair before any merge runs (DESIGN.md § "Signature
// gate": probe time is a straight line in the record's length), so with f
// the length frequency the cost of a length is its token mass,
//
//	w(l) = f(l) · l
//
// records × tokens. Per-worker cost is then the sum of w over the worker's
// interval, so minimizing the maximum interval sum balances the load. The
// model sees lengths only: what a short record's results cost, and what a
// probe pays for fanning out over narrow intervals, stay outside it. Params
// is no longer consulted — no join parameter enters a per-record cost — and
// stays for the call sites that fill it.
type CostModel struct {
	Params filter.Params
}

// Weights returns w indexed by length 1..h.MaxLen() (index 0 unused).
func (m CostModel) Weights(h *Histogram) []float64 {
	w := make([]float64, h.MaxLen()+1)
	for l := 1; l < len(w); l++ {
		w[l] = float64(h.Count(l)) * float64(l)
	}
	return w
}

// Partition assigns contiguous length intervals to workers. Bounds[i] is
// the inclusive upper length owned by worker i; worker i owns lengths
// (Bounds[i-1], Bounds[i]], worker 0 additionally owns everything below,
// and the last worker owns everything above its bound. Bounds is
// non-decreasing with len(Bounds) == number of workers.
type Partition struct {
	Bounds []int
}

// Workers returns the worker count.
func (p Partition) Workers() int { return len(p.Bounds) }

// WorkerOf returns the worker owning records of the given length.
func (p Partition) WorkerOf(length int) int {
	i := sort.SearchInts(p.Bounds, length)
	if i >= len(p.Bounds) {
		i = len(p.Bounds) - 1
	}
	return i
}

// Overlapping returns the inclusive worker index range whose intervals
// intersect the length range [lo, hi] — the probe fan-out of the
// length-based framework.
func (p Partition) Overlapping(lo, hi int) (first, last int) {
	first = p.WorkerOf(lo)
	last = p.WorkerOf(hi)
	return first, last
}

// String renders the interval list.
func (p Partition) String() string {
	out := "["
	prev := 0
	for i, b := range p.Bounds {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("(%d,%d]", prev, b)
		prev = b
	}
	return out + "]"
}

// EvenLength splits [1, maxLen] into k equal-width intervals — the
// simplest baseline, oblivious to both frequency and cost.
func EvenLength(maxLen, k int) Partition {
	if k < 1 {
		panic("partition: k must be >= 1")
	}
	if maxLen < 1 {
		maxLen = 1
	}
	bounds := make([]int, k)
	for i := 0; i < k; i++ {
		bounds[i] = maxLen * (i + 1) / k
		if bounds[i] < 1 {
			bounds[i] = 1
		}
	}
	bounds[k-1] = maxLen
	return Partition{Bounds: bounds}
}

// EvenFrequency splits the length domain so each worker stores roughly the
// same number of records — frequency-aware but cost-oblivious.
func EvenFrequency(h *Histogram, k int) Partition {
	if k < 1 {
		panic("partition: k must be >= 1")
	}
	maxLen := h.MaxLen()
	if maxLen == 0 {
		return EvenLength(1, k)
	}
	per := float64(h.Total()) / float64(k)
	bounds := make([]int, 0, k)
	var acc float64
	for l := 1; l <= maxLen && len(bounds) < k-1; l++ {
		acc += float64(h.Count(l))
		if acc >= per*float64(len(bounds)+1) {
			bounds = append(bounds, l)
		}
	}
	for len(bounds) < k {
		bounds = append(bounds, maxLen)
	}
	return Partition{Bounds: bounds}
}

// Fit is the LoadAware plan for k workers under p, its weights the cost
// model's over the length histogram of sample.
func Fit(p filter.Params, sample []*record.Record, k int) Partition {
	var h Histogram
	for _, r := range sample {
		h.Add(r.Len())
	}
	return LoadAware(CostModel{Params: p}.Weights(&h), k)
}

// LoadAware partitions the weight array (from CostModel.Weights) into k
// contiguous intervals minimizing the maximum interval weight. Binary
// search over the answer with a greedy feasibility check yields the optimal
// minimax split in O(len(w) · log(sum/min)).
func LoadAware(w []float64, k int) Partition {
	if k < 1 {
		panic("partition: k must be >= 1")
	}
	maxLen := len(w) - 1
	if maxLen < 1 {
		return EvenLength(1, k)
	}
	var lo, hi float64
	for l := 1; l <= maxLen; l++ {
		if w[l] > lo {
			lo = w[l]
		}
		hi += w[l]
	}
	if hi == 0 {
		return EvenLength(maxLen, k)
	}
	// Binary search the smallest cap for which a greedy split uses <= k
	// intervals.
	for i := 0; i < 60 && hi-lo > 1e-9*hi; i++ {
		mid := (lo + hi) / 2
		if segmentsNeeded(w, mid) <= k {
			hi = mid
		} else {
			lo = mid
		}
	}
	bounds := greedySplit(w, hi, k)
	return Partition{Bounds: bounds}
}

// segmentsNeeded counts greedy intervals under the cap.
func segmentsNeeded(w []float64, cap float64) int {
	segs := 1
	var acc float64
	for l := 1; l < len(w); l++ {
		if acc+w[l] > cap && acc > 0 {
			segs++
			acc = 0
		}
		acc += w[l]
	}
	return segs
}

// greedySplit materializes interval bounds under the cap, padding or
// merging to exactly k workers.
func greedySplit(w []float64, cap float64, k int) []int {
	maxLen := len(w) - 1
	bounds := make([]int, 0, k)
	var acc float64
	for l := 1; l <= maxLen; l++ {
		if acc+w[l] > cap && acc > 0 && len(bounds) < k-1 {
			bounds = append(bounds, l-1)
			acc = 0
		}
		acc += w[l]
	}
	for len(bounds) < k {
		bounds = append(bounds, maxLen)
	}
	return bounds
}

// Imbalance evaluates a partition against the weights: it returns the ratio
// of the heaviest worker's weight to the mean worker weight (1.0 is
// perfect; k is worst).
func Imbalance(p Partition, w []float64) float64 {
	k := p.Workers()
	loads := Loads(p, w)
	var sum, max float64
	for _, ld := range loads {
		sum += ld
		if ld > max {
			max = ld
		}
	}
	if sum == 0 {
		return 1
	}
	return max / (sum / float64(k))
}

// Loads sums the weights per worker interval.
func Loads(p Partition, w []float64) []float64 {
	loads := make([]float64, p.Workers())
	for l := 1; l < len(w); l++ {
		loads[p.WorkerOf(l)] += w[l]
	}
	return loads
}
