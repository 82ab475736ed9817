package experiments

import (
	"fmt"

	"repro/internal/local"
	"repro/internal/metrics"
	"repro/internal/partition"
	"repro/internal/record"
	"repro/internal/workload"
)

// E13 evaluates adaptive repartitioning under workload drift: the stream
// starts as a short-record query log and shifts to long documents. A
// static partition fitted to phase A degrades in phase B; the tracker
// detects the drift and a refit restores balance. Repartitioning is
// applied at the phase boundary (windowed streams age the old index out,
// so no state migration is simulated).
func E13(sc Scale) *Table {
	t := &Table{
		ID:      "E13",
		Title:   fmt.Sprintf("Adaptive repartitioning under drift, AOL-like → ENRON-like, τ=0.8, k=%d", sc.Workers),
		Columns: []string{"policy", "phase", "est. imbalance", "realized imbalance", "throughput rec/s"},
		Notes:   "extension (paper future work): tracker flags drift when the active split is ≥1.3x worse than a refit",
	}
	p := jaccard(0.8)
	k := sc.Workers
	n := sc.Records / 2
	phaseA := genProfile(workload.AOLLike(sc.Seed), n)
	phaseB := reID(genProfile(workload.EnronLike(sc.Seed), n), record.ID(n))

	histA := histogramOf(phaseA)
	weightsOf := func(recs []*record.Record) []float64 {
		return partition.CostModel{Params: p}.Weights(histogramOf(recs))
	}
	staticPart := partition.LoadAware(weightsOf(phaseA), k)

	runPhase := func(name, phase string, part partition.Partition, recs []*record.Record) {
		strat := lengthWith(p, part)
		res := runTopology(sc, recs, strat, p, k, local.Bundled, nil)
		est := partition.Imbalance(part, weightsOf(recs))
		t.AddRow(name, phase, est, metrics.SummarizeLoads(workerLoads(res)).Imbalance,
			res.Throughput().PerSecond())
	}

	// Static: the phase-A partition serves both phases.
	runPhase("static", "A (short)", staticPart, phaseA)
	runPhase("static", "B (long)", staticPart, phaseB)

	// Adaptive: a tracker watches the stream; at the drift alarm the
	// partition is refitted from the tracker's sliding window.
	tracker := partition.NewTracker(p, minInt(4096, n))
	for _, r := range phaseA {
		tracker.Observe(r.Len())
	}
	active := tracker.Refit(k)
	runPhase("adaptive", "A (short)", active, phaseA)
	repartitions := 0
	for _, r := range phaseB {
		tracker.Observe(r.Len())
		if tracker.ShouldRepartition(active, 1.3) {
			active = tracker.Refit(k)
			repartitions++
		}
	}
	runPhase("adaptive", "B (long)", active, phaseB)
	t.Notes += fmt.Sprintf("; adaptive repartitioned %d time(s) during phase B", repartitions)
	_ = histA
	return t
}

func reID(recs []*record.Record, base record.ID) []*record.Record {
	for i, r := range recs {
		r.ID = base + record.ID(i)
		r.Time = int64(r.ID)
	}
	return recs
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
