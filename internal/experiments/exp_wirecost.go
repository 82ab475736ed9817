package experiments

import (
	"fmt"

	"repro/internal/local"
	"repro/internal/topology"
	"repro/internal/workload"
)

// E16 sweeps a simulated per-byte network cost to recover the cluster-scale
// throughput gap: on loopback channels communication is nearly free, so the
// length-based framework's smaller fan-out buys little wall-clock; as the
// per-tuple cost approaches real network+deserialization budgets, the gap
// widens toward the order of magnitude the paper reports on Storm.
func E16(sc Scale) *Table {
	t := &Table{
		ID:      "E16",
		Title:   fmt.Sprintf("Throughput vs simulated network cost, AOL-like, τ=0.8, k=%d", sc.Workers),
		Columns: []string{"ns/byte", "length", "prefix", "broadcast", "length/broadcast"},
		Notes:   "0 ns/B = loopback; 50–200 ns/B brackets real deserialization+NIC budgets; the gap widens with cost because broadcast receives k copies of every record",
	}
	recs := genProfile(workload.AOLLike(sc.Seed), sc.Records)
	p := jaccard(0.8)
	for _, nsPerB := range []int{0, 20, 50, 100, 200} {
		rates := map[string]float64{}
		for _, dist := range frameworks {
			name := dist.String()
			strat := strategyFor(dist, p, recs, sc.Workers)
			res, err := topology.Run(recs, topology.Config{
				Workers:       sc.Workers,
				Strategy:      strat,
				Algorithm:     local.Bundled,
				Params:        p,
				WireNsPerByte: nsPerB,
			})
			if err != nil {
				panic(fmt.Sprintf("experiments: E16: %v", err))
			}
			rates[name] = res.Throughput().PerSecond()
		}
		t.AddRow(nsPerB, rates["length"], rates["prefix"], rates["broadcast"],
			ratio(rates["length"], rates["broadcast"]))
	}
	return t
}
