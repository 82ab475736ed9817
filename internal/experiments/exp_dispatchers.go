package experiments

import (
	"fmt"

	"repro/internal/local"
	"repro/internal/topology"
	"repro/internal/workload"
)

// E18 sweeps dispatcher parallelism: a single dispatcher preserves arrival
// order for free but eventually becomes the routing bottleneck; parallel
// dispatchers trade a per-worker reorder buffer (watermark, bounded slack)
// for routing bandwidth. A record later than the slack is dropped and
// counted in LateDrops; the count, and the results it loses, can be
// non-zero.
func E18(sc Scale) *Table {
	t := &Table{
		ID:      "E18",
		Title:   fmt.Sprintf("Dispatcher parallelism, AOL-like, τ=0.8, k=%d, length-based", sc.Workers),
		Columns: []string{"dispatchers", "throughput rec/s", "results", "late drops"},
		Notes:   "extension: reorder buffers restore arrival order within a bounded slack; records later than it are dropped and counted in LateDrops (the late drops column), which can be non-zero and then lose results; at this scale routing is not the bottleneck so extra dispatchers only pay the reorder cost — the feature matters when per-record routing work grows",
	}
	recs := genProfile(workload.AOLLike(sc.Seed), sc.Records)
	p := jaccard(0.8)
	strat := strategyFor("length", p, recs, sc.Workers)
	for _, d := range []int{1, 2, 4} {
		res, err := topology.Run(recs, topology.Config{
			Workers:     sc.Workers,
			Dispatchers: d,
			Strategy:    strat,
			Algorithm:   local.Bundled,
			Params:      p,
			BatchSize:   sc.Batch,
		})
		if err != nil {
			panic(fmt.Sprintf("experiments: E18: %v", err))
		}
		t.AddRow(d, res.Throughput().PerSecond(), res.Results, res.LateDrops)
	}
	return t
}
