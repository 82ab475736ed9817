package topology

import (
	"testing"

	"repro/internal/dispatch"
	"repro/internal/local"
	"repro/internal/obs"
)

// TestRunWithObservability runs a bundled self-join with a registry and
// checks the full surface: results are unchanged, worker latency histograms
// carry one observation per record, and bundle live counters agree with the
// harvested joiner costs.
func TestRunWithObservability(t *testing.T) {
	p := params(0.6)
	recs := withMatchLadder(genStream(800, 11))
	reg := obs.NewRegistry()
	cfg := Config{
		Workers:   4,
		Strategy:  dispatch.PrefixBased{Params: p},
		Algorithm: local.Bundled,
		Params:    p,
		Registry:  reg,
	}
	res, err := Run(recs, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Observability must not change the join: compare against a plain run.
	plain, err := Run(recs, Config{
		Workers: 4, Strategy: dispatch.PrefixBased{Params: p},
		Algorithm: local.Bundled, Params: p,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Results != plain.Results {
		t.Fatalf("results drifted under instrumentation: %d vs %d", res.Results, plain.Results)
	}

	byName := map[string]obs.MetricSnapshot{}
	for _, ms := range reg.Snapshot() {
		byName[ms.Name] = ms
	}
	lat := byName["worker_record_seconds"]
	var latCount uint64
	for _, s := range lat.Samples {
		latCount += s.Count
	}
	// PrefixBased multicasts, so each receiving worker observes the record;
	// the scrape must agree with the harvested aggregate.
	if latCount != res.Latency.Count() {
		t.Fatalf("latency observations %d != harvested %d", latCount, res.Latency.Count())
	}
	var bundleResults float64
	for _, s := range byName["bundle_results_total"].Samples {
		bundleResults += s.Value
	}
	var wantResults uint64
	for _, c := range res.WorkerCosts {
		wantResults += c.Results
	}
	if uint64(bundleResults) != wantResults {
		t.Fatalf("bundle live results %v != joiner costs %d", bundleResults, wantResults)
	}
	if _, ok := byName["stream_edge_tuples_total"]; !ok {
		t.Fatal("engine metrics missing from registry")
	}
}
