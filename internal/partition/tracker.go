package partition

import "repro/internal/filter"

// Tracker watches the stream's recent length distribution and decides when
// the active partition has drifted out of balance — the adaptive
// repartitioning extension: a static partition fitted to yesterday's
// lengths can be arbitrarily bad after the workload shifts.
//
// The tracker keeps a sliding histogram over the last WindowSize records
// (implemented as a ring of per-record lengths) so old traffic ages out,
// and evaluates the active partition's estimated imbalance against the
// optimal achievable imbalance on the current histogram.
type Tracker struct {
	model  CostModel
	ring   []int
	next   int
	filled bool
	hist   Histogram
}

// NewTracker creates a tracker over a sliding window of windowSize record
// lengths (minimum 16).
func NewTracker(params filter.Params, windowSize int) *Tracker {
	if windowSize < 16 {
		windowSize = 16
	}
	return &Tracker{
		model: CostModel{Params: params},
		ring:  make([]int, windowSize),
	}
}

// Observe records the next record length.
func (t *Tracker) Observe(length int) {
	if t.filled {
		old := t.ring[t.next]
		if old < len(t.hist.counts) && t.hist.counts[old] > 0 {
			t.hist.counts[old]--
			t.hist.total--
		}
	}
	t.ring[t.next] = length
	t.hist.Add(length)
	t.next++
	if t.next == len(t.ring) {
		t.next = 0
		t.filled = true
	}
}

// Count reports how many lengths are inside the window.
func (t *Tracker) Count() int {
	if t.filled {
		return len(t.ring)
	}
	return t.next
}

// Snapshot returns a copy of the windowed histogram.
func (t *Tracker) Snapshot() *Histogram {
	cp := Histogram{counts: append([]uint64(nil), t.hist.counts...), total: t.hist.total}
	return &cp
}

// Evaluate returns the active partition's estimated imbalance on the
// current window and the imbalance of a freshly fitted load-aware
// partition — the achievable floor.
func (t *Tracker) Evaluate(active Partition) (current, achievable float64) {
	w := t.model.Weights(&t.hist)
	if len(w) <= 1 {
		return 1, 1
	}
	return Imbalance(active, w), Imbalance(LoadAware(w, active.Workers()), w)
}

// ShouldRepartition reports whether the active partition's estimated
// imbalance exceeds the achievable imbalance by more than factor (e.g.
// 1.5 = "50% worse than what a refit would give"). It requires a full
// window so cold starts do not trigger spurious repartitions.
func (t *Tracker) ShouldRepartition(active Partition, factor float64) bool {
	if !t.filled {
		return false
	}
	current, achievable := t.Evaluate(active)
	return current > achievable*factor
}

// Refit returns a load-aware partition fitted to the current window, for k
// workers.
func (t *Tracker) Refit(k int) Partition {
	w := t.model.Weights(&t.hist)
	return LoadAware(w, k)
}
