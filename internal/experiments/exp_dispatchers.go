package experiments

import (
	"fmt"

	"repro/internal/local"
	"repro/internal/topology"
	"repro/internal/workload"

	ssjoin "repro"
)

// E18 sweeps dispatcher parallelism: every dispatcher sees the whole stream
// and routes it to the workers it owns (worker w belongs to dispatcher
// w mod d), so each worker still has one ordered upstream and the results
// are exact at every d. The rows print the effective d, at most the worker
// count, and the sweep panics if a d > 1 row's results differ from d = 1.
func E18(sc Scale) *Table {
	t := &Table{
		ID:      "E18",
		Title:   fmt.Sprintf("Dispatcher parallelism, AOL-like, τ=0.8, k=%d, length-based", sc.Workers),
		Columns: []string{"dispatchers", "throughput rec/s", "results"},
		Notes:   "extension: each worker has exactly one dispatcher upstream (w mod d), so arrival order holds by construction and results are identical at every d (asserted); every dispatcher routes the whole stream and only the fan-out to destinations (queue pushes and batching) is split d ways, so heavier routing makes d > 1 relatively worse, not better",
	}
	recs := genProfile(workload.AOLLike(sc.Seed), sc.Records)
	p := jaccard(0.8)
	strat := strategyFor(ssjoin.LengthBased, p, recs, sc.Workers)
	var want uint64
	for _, d := range []int{1, 2, 4} {
		res, err := topology.Run(recs, topology.Config{
			Workers:     sc.Workers,
			Dispatchers: d,
			Strategy:    strat,
			Algorithm:   local.Bundled,
			Params:      p,
		})
		if err != nil {
			panic(fmt.Sprintf("experiments: E18: %v", err))
		}
		if d == 1 {
			want = res.Results
		} else if res.Results != want {
			panic(fmt.Sprintf("experiments: E18: %d dispatchers found %d results, one found %d", d, res.Results, want))
		}
		t.AddRow(min(d, sc.Workers), res.Throughput().PerSecond(), res.Results)
	}
	return t
}
