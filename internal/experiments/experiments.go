package experiments

import (
	"fmt"
	"sort"

	"repro/internal/dispatch"
	"repro/internal/filter"
	"repro/internal/local"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/record"
	"repro/internal/remote"
	"repro/internal/similarity"
	"repro/internal/topology"
	"repro/internal/window"
	"repro/internal/workload"

	ssjoin "repro"
)

// Scale sizes an experiment run. The defaults (via DefaultScale) regenerate
// publication-shaped results in seconds on a laptop; tests shrink them.
type Scale struct {
	// Records per run.
	Records int
	// Workers for distributed runs (sweeps override).
	Workers int
	// Seed for workload generation.
	Seed int64
	// Registry, when set, receives live metrics from every topology run an
	// experiment performs (ssjoinbench -json).
	Registry *obs.Registry
}

// DefaultScale is the CLI default.
func DefaultScale() Scale { return Scale{Records: 20000, Workers: 8, Seed: 42} }

// Experiment is a runnable paper artefact.
type Experiment struct {
	ID    string
	Title string
	Run   func(Scale) *Table
}

// All returns every experiment in presentation order.
func All() []Experiment {
	return []Experiment{
		{"T1", "Dataset statistics (paper Table 1)", T1},
		{"E1", "Throughput vs threshold per framework", E1},
		{"E2", "Scalability: throughput vs workers", E2},
		{"E3", "Communication cost vs threshold", E3},
		{"E4", "Replication factor and index size", E4},
		{"E5", "Partitioner load imbalance", E5},
		{"E6", "Throughput by partitioner", E6},
		{"E7", "Bundle join vs record-at-a-time", E7},
		{"E8", "Batch vs one-by-one verification", E8},
		{"E9", "Bundle grouping-threshold sweep", E9},
		{"E9b", "Bundle size-cap sweep", E9b},
		{"E10", "Processing latency per framework", E10},
		{"E11", "Window size sweep", E11},
		{"E12", "Similarity-function generality", E12},
		{"E13", "Adaptive repartitioning under drift (extension)", E13},
		{"E14", "In-process engine vs TCP worker fleet (extension)", E14},
		{"E15", "Streaming vs offline join (extension)", E15},
		{"E16", "Throughput vs simulated network cost (extension)", E16},
		{"E17", "Exact prefix join vs MinHash-LSH (extension)", E17},
		{"E18", "Dispatcher parallelism, one dispatcher per worker (extension)", E18},
		{"E19", "Token-ordering refresh under vocabulary drift (extension)", E19},
	}
}

// ByID resolves one experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown id %q", id)
}

// jaccard builds the default filter parameters.
func jaccard(tau float64) filter.Params {
	return filter.Params{Func: similarity.Jaccard, Threshold: tau}
}

// histogramOf builds a length histogram from the records themselves (the
// harness equivalent of the bootstrap sample).
func histogramOf(recs []*record.Record) *partition.Histogram {
	var h partition.Histogram
	for _, r := range recs {
		h.Add(r.Len())
	}
	return &h
}

// sessionFor plans dist for k workers over recs through the library's own
// planning step, the one RunDistributed and the CLI take; a length plan is
// fitted to all of recs. ssjoin.Similarity numbers the functions as
// similarity.Func does.
func sessionFor(dist ssjoin.Distribution, p filter.Params, recs []*record.Record, k int) remote.Session {
	sets := make([][]uint32, len(recs))
	for i, r := range recs {
		sets[i] = r.Tokens
	}
	s, err := ssjoin.DistributedConfig{
		Config:       ssjoin.Config{Threshold: p.Threshold, Function: ssjoin.Similarity(p.Func)},
		Workers:      k,
		Distribution: dist,
		SampleSize:   len(recs),
	}.Session(sets)
	if err != nil {
		panic("experiments: " + err.Error())
	}
	return s
}

// strategyFor is the routing strategy of sessionFor's plan, built from its
// Hello as a fleet worker builds it.
func strategyFor(dist ssjoin.Distribution, p filter.Params, recs []*record.Record, k int) dispatch.Strategy {
	_, s, err := sessionFor(dist, p, recs, k).Plan(k)
	if err != nil {
		panic("experiments: " + err.Error())
	}
	return s
}

var frameworks = []ssjoin.Distribution{ssjoin.LengthBased, ssjoin.PrefixBased, ssjoin.BroadcastBased}

// runTopology executes one distributed join and returns its result. The
// Scale threads the run-wide registry into the topology config without
// widening every experiment's parameter list.
func runTopology(sc Scale, recs []*record.Record, strat dispatch.Strategy, p filter.Params, k int, alg local.Algorithm, win window.Policy) *topology.Result {
	res, err := topology.Run(recs, topology.Config{
		Workers:   k,
		Strategy:  strat,
		Algorithm: alg,
		Params:    p,
		Window:    win,
		Registry:  sc.Registry,
	})
	if err != nil {
		panic(fmt.Sprintf("experiments: topology run failed: %v", err))
	}
	return res
}

// genProfile materializes records for a profile at scale.
func genProfile(p workload.Profile, n int) []*record.Record {
	return workload.NewGenerator(p).Generate(n)
}

// workerLoads returns each worker's realized load (local.Cost.RealizedLoad)
// for load analysis.
func workerLoads(res *topology.Result) []float64 {
	loads := make([]float64, len(res.WorkerCosts))
	for i, c := range res.WorkerCosts {
		loads[i] = float64(c.RealizedLoad())
	}
	return loads
}

// sortedCopy returns a sorted copy of xs (descending) for reporting.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Sort(sort.Reverse(sort.Float64Slice(out)))
	return out
}
