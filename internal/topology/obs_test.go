package topology

import (
	"testing"

	"repro/internal/dispatch"
	"repro/internal/local"
	"repro/internal/obs"
)

// TestRunWithObservability runs a bundled self-join with a registry and an
// aggressive tracer and checks the full surface: results are unchanged,
// worker latency histograms carry one observation per record, bundle live
// counters agree with the harvested joiner costs, and sampled traces chain
// emit → dispatch → queue → process with deliver spans for result pairs.
// The stream ends in the slab ladder, so the most recent traces belong to
// records with hundreds of matches: their lineages cross slab boundaries
// and ride slabs the sink has already recycled.
func TestRunWithObservability(t *testing.T) {
	p := params(0.6)
	recs := withSlabLadder(genStream(800, 11))
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(8, 64)
	cfg := Config{
		Workers:   4,
		Strategy:  dispatch.PrefixBased{Params: p},
		Algorithm: local.Bundled,
		Params:    p,
		Registry:  reg,
		Tracer:    tracer,
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

	if tracer.Sampled() != uint64(len(recs))/8 {
		t.Fatalf("sampled %d traces", tracer.Sampled())
	}
	stages := map[string]int{}
	deliverParentOK := true
	mostVerified := 0
	for _, ts := range tracer.Recent() {
		perTrace := map[string]int{}
		for i, sp := range ts.Spans {
			stages[sp.Stage]++
			perTrace[sp.Stage]++
			if sp.Parent < -1 || sp.Parent >= i {
				t.Fatalf("trace %d span %d: bad parent %d", ts.ID, i, sp.Parent)
			}
			if sp.Stage == "deliver" && sp.Parent >= 0 &&
				ts.Spans[sp.Parent].Stage != "verify" {
				deliverParentOK = false
			}
		}
		if ts.Spans[0].Stage != "emit" {
			t.Fatalf("trace %d does not start at emit: %+v", ts.ID, ts.Spans[0])
		}
		// Every verified pair is delivered exactly once: a lineage lost at a
		// slab boundary would leave a verify span without its deliver span, a
		// stale one left in a recycled slab would deliver twice.
		if perTrace["deliver"] != perTrace["verify"] {
			t.Fatalf("trace %d: %d verify spans, %d deliver spans", ts.ID, perTrace["verify"], perTrace["deliver"])
		}
		if perTrace["verify"] > mostVerified {
			mostVerified = perTrace["verify"]
		}
	}
	if mostVerified <= slabPairs {
		t.Fatalf("no sampled record had more than %d matches (most: %d): no lineage crossed a slab boundary", slabPairs, mostVerified)
	}
	for _, b := range res.Report.Bolts["worker"] {
		w := b.(*workerBolt)
		for len(w.free) > 0 {
			s := <-w.free
			for _, l := range s.lineages[:cap(s.lineages)] {
				if l.trace != nil {
					t.Fatalf("worker %d: a recycled slab still holds trace %d", w.task, l.trace.ID())
				}
			}
		}
	}
	for _, stage := range []string{"emit", "dispatch", "queue", "process"} {
		if stages[stage] == 0 {
			t.Fatalf("no %q spans recorded (got %v)", stage, stages)
		}
	}
	if !deliverParentOK {
		t.Fatal("deliver span not parented to a verify span")
	}
}

// TestParallelDispatchersSpanOnce: every dispatcher sees every record, but a
// sampled record carries one dispatch span, and it comes right after the
// emit span: prefix routing sends a record to workers of several
// dispatchers, and none of them may append a span before it.
func TestParallelDispatchersSpanOnce(t *testing.T) {
	p := params(0.6)
	tracer := obs.NewTracer(4, 64)
	if _, err := Run(genStream(400, 13), Config{
		Workers: 4, Dispatchers: 3, Strategy: dispatch.PrefixBased{Params: p},
		Algorithm: local.Prefix, Params: p, Tracer: tracer,
	}); err != nil {
		t.Fatal(err)
	}
	recent := tracer.Recent()
	if len(recent) == 0 {
		t.Fatal("no traces sampled")
	}
	for _, ts := range recent {
		n := 0
		for _, sp := range ts.Spans {
			if sp.Stage == "dispatch" {
				n++
			}
		}
		if n != 1 || len(ts.Spans) < 2 || ts.Spans[1].Stage != "dispatch" || ts.Spans[1].Parent != 0 {
			t.Fatalf("trace %d carries %d dispatch spans, not one right after emit: %+v", ts.ID, n, ts.Spans)
		}
	}
}
