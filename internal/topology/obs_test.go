package topology

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/dispatch"
	"repro/internal/local"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/workload"
)

// TestRunWithObservability runs a bundled self-join with a registry and
// checks the full surface: results are unchanged, and after the run every
// worker series reads exactly what the run harvested — the bundle and
// verify series each worker's Cost and BundleStats, worker_record_seconds
// its latency histogram.
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

	scraped := map[string]map[string]obs.Sample{}
	for _, f := range reg.Gather() {
		scraped[f.Desc.Name] = map[string]obs.Sample{}
		for _, s := range f.Samples {
			scraped[f.Desc.Name][s.Label] = s
		}
	}
	if _, ok := scraped["stream_edge_tuples_total"]; !ok {
		t.Fatal("engine metrics missing from registry")
	}
	checked := map[string]bool{}
	var latCount uint64
	for i, w := range res.workers {
		label := fmt.Sprintf("worker/%d", w.task)
		c := res.WorkerCosts[i]
		st, _ := w.t.BundleStats()
		hit := 0.0
		if st.Verified > 0 {
			hit = float64(st.Results) / float64(st.Verified)
		}
		for name, want := range map[string]float64{
			"bundle_records_total":           float64(c.Probes),
			"bundle_candidates_total":        float64(c.Candidates),
			"bundle_verified_total":          float64(c.Verified),
			"bundle_results_total":           float64(c.Results),
			"bundle_live_members":            float64(st.LiveMembers),
			"bundle_verify_hit_rate":         hit,
			"verify_kernel_linear_total":     float64(st.KernelLinear),
			"verify_kernel_gallop_total":     float64(st.KernelGallop),
			"verify_candidates_pruned_total": float64(st.Pruned()),
		} {
			checked[name] = true
			s, ok := scraped[name][label]
			if !ok {
				t.Errorf("%s{task=%q} not scraped", name, label)
			} else if s.Value != want {
				t.Errorf("%s{task=%q} = %v, harvested %v", name, label, s.Value, want)
			}
		}
		h := scraped["worker_record_seconds"][label].Hist
		if h == nil || *h != w.lat {
			t.Errorf("worker_record_seconds{task=%q} differs from the worker's latency histogram", label)
		} else {
			latCount += h.Count()
		}
	}
	// PrefixBased multicasts, so each receiving worker observes the record;
	// the scrape must agree with the harvested aggregate.
	if latCount != res.Latency.Count() {
		t.Fatalf("latency observations %d != harvested %d", latCount, res.Latency.Count())
	}
	for name := range scraped {
		if (strings.HasPrefix(name, "bundle_") || strings.HasPrefix(name, "verify_")) && !checked[name] {
			t.Errorf("%s is scraped but not compared with the harvested counters", name)
		}
	}
}

// TestLiveScrapeIsConsistent scrapes the registry in a loop while an
// AOL-like τ 0.8 join runs. Its short records take the twin path, which
// leaves Verified == Results after every probe, so a hit rate read from
// two instants can exceed 1. Every hit-rate sample must lie in [0, 1], and
// no counter or histogram count may go backwards between scrapes.
func TestLiveScrapeIsConsistent(t *testing.T) {
	p := params(0.8)
	n := 30000
	if testing.Short() {
		n = 10000
	}
	recs := workload.NewGenerator(workload.AOLLike(42)).Generate(n)
	reg := obs.NewRegistry()
	// firstSeen keeps each worker's smallest non-zero bundle_records_total.
	done, scraped := make(chan struct{}), make(chan map[string]float64)
	go func() {
		prev, firstSeen := map[string]float64{}, map[string]float64{}
		for {
			select {
			case <-done:
				scraped <- firstSeen
				return
			default:
			}
			for _, f := range reg.Gather() {
				for _, s := range f.Samples {
					v := s.Value
					if s.Hist != nil {
						v = float64(s.Hist.Count())
					}
					key := f.Desc.Name + "{" + s.Label + "}"
					if f.Desc.Name == "bundle_verify_hit_rate" && (v < 0 || v > 1) {
						t.Errorf("%s = %v, outside [0, 1]", key, v)
					}
					if f.Kind != obs.KindGauge && v < prev[key] {
						t.Errorf("%s went back from %v to %v", key, prev[key], v)
					}
					if _, ok := firstSeen[s.Label]; !ok && f.Desc.Name == "bundle_records_total" && v > 0 {
						firstSeen[s.Label] = v
					}
					prev[key] = v
				}
			}
		}
	}()
	res, err := Run(recs, Config{
		Workers:   2,
		Strategy:  dispatch.NewLengthBased(p, partition.Fit(p, recs[:partition.SampleSize], 2)),
		Algorithm: local.Bundled,
		Params:    p,
		Registry:  reg,
	})
	close(done)
	firstSeen := <-scraped
	if err != nil {
		t.Fatal(err)
	}
	var twins uint64
	midRun := false
	for _, w := range res.workers {
		st, _ := w.t.BundleStats()
		twins += st.TwinProbes
		if v, ok := firstSeen[fmt.Sprintf("worker/%d", w.task)]; ok && v < float64(w.t.Cost().Probes) {
			midRun = true
		}
	}
	if twins == 0 {
		t.Fatal("no probe took the twin path")
	}
	if !midRun {
		t.Fatal("no scrape landed while the run was going")
	}
}

// TestInstrumentedExecuteBatchAllocs: a worker with a registry attached
// steps a transport batch without allocating — the reader lock is a plain
// mutex and the latency histogram the worker's own.
func TestInstrumentedExecuteBatchAllocs(t *testing.T) {
	p := params(0.8)
	recs := workload.NewGenerator(workload.AOLLike(7)).Generate(2000)
	// Worker 1 of two owns only lengths no record has, so it probes every
	// record and stores none: the index, and the probe's scratch, stop growing.
	strat := dispatch.NewLengthBased(p, partition.Partition{Bounds: []int{1 << 20, 1 << 21}})
	w := &worker{task: 1, t: dispatch.NewTask(strat, 1, 2, local.Bundled, local.Options{Params: p}, false, false)}
	w.registerMetrics(obs.NewRegistry())
	for _, r := range recs[:1000] {
		w.t.Load(r, false)
	}
	batch := make([]*RecTuple, defaultBatchSize)
	for i := range batch {
		batch[i] = &RecTuple{Rec: recs[1000+i]}
	}
	stamp := time.Now()
	w.stepBatch(batch, stamp)
	if n := testing.AllocsPerRun(50, func() { w.stepBatch(batch, stamp) }); n != 0 {
		t.Fatalf("instrumented stepBatch allocates %v times per batch", n)
	}
	if w.t.Results() == 0 {
		t.Fatal("the batch matched nothing; the emit path went unexercised")
	}
}
