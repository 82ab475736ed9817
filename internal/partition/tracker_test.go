package partition

import (
	"math/rand"
	"testing"

	"repro/internal/filter"
	"repro/internal/similarity"
)

func trackerParams() filter.Params {
	return filter.Params{Func: similarity.Jaccard, Threshold: 0.8}
}

func TestTrackerWindowSlides(t *testing.T) {
	tr := NewTracker(trackerParams(), 16)
	for i := 0; i < 16; i++ {
		tr.Observe(5)
	}
	if tr.Count() != 16 {
		t.Fatalf("count: %d", tr.Count())
	}
	h := tr.Snapshot()
	if h.Count(5) != 16 {
		t.Fatalf("snapshot count(5): %d", h.Count(5))
	}
	// Push 16 new lengths; the old ones must age out completely.
	for i := 0; i < 16; i++ {
		tr.Observe(40)
	}
	h = tr.Snapshot()
	if h.Count(5) != 0 || h.Count(40) != 16 {
		t.Fatalf("window did not slide: count(5)=%d count(40)=%d", h.Count(5), h.Count(40))
	}
	if tr.Count() != 16 {
		t.Fatalf("count after slide: %d", tr.Count())
	}
}

func TestTrackerMinimumWindow(t *testing.T) {
	tr := NewTracker(trackerParams(), 1)
	if len(tr.ring) < 16 {
		t.Fatalf("window not clamped: %d", len(tr.ring))
	}
}

func TestShouldRepartitionOnlyWhenFull(t *testing.T) {
	tr := NewTracker(trackerParams(), 32)
	active := Partition{Bounds: []int{1, 100}}
	tr.Observe(50)
	if tr.ShouldRepartition(active, 1.1) {
		t.Fatal("cold tracker triggered repartition")
	}
}

func TestTrackerDetectsDrift(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tr := NewTracker(trackerParams(), 512)
	// Phase A: short records around 5-15. Fit a partition to it.
	for i := 0; i < 512; i++ {
		tr.Observe(5 + rng.Intn(11))
	}
	active := tr.Refit(4)
	if tr.ShouldRepartition(active, 1.3) {
		cur, ach := tr.Evaluate(active)
		t.Fatalf("freshly fitted partition flagged: cur=%v ach=%v", cur, ach)
	}
	// Phase B: drift to long records 80-200.
	for i := 0; i < 512; i++ {
		tr.Observe(80 + rng.Intn(121))
	}
	if !tr.ShouldRepartition(active, 1.3) {
		cur, ach := tr.Evaluate(active)
		t.Fatalf("drift not detected: cur=%v ach=%v active=%v", cur, ach, active.Bounds)
	}
	// Refitting clears the alarm.
	refit := tr.Refit(4)
	if tr.ShouldRepartition(refit, 1.3) {
		t.Fatal("refit partition still flagged")
	}
}

func TestTrackerEvaluateEmptyWindow(t *testing.T) {
	tr := NewTracker(trackerParams(), 32)
	cur, ach := tr.Evaluate(Partition{Bounds: []int{10}})
	if cur != 1 || ach != 1 {
		t.Fatalf("empty evaluate: %v %v", cur, ach)
	}
}
