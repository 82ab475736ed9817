package topology

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/dispatch"
	"repro/internal/filter"
	"repro/internal/local"
	"repro/internal/partition"
	"repro/internal/record"
	"repro/internal/similarity"
	"repro/internal/tokens"
	"repro/internal/window"
	"repro/internal/workload"
)

func params(tau float64) filter.Params {
	return filter.Params{Func: similarity.Jaccard, Threshold: tau}
}

func genStream(n int, seed int64) []*record.Record {
	return workload.NewGenerator(workload.UniformSmall(seed)).Generate(n)
}

func histOf(recs []*record.Record) *partition.Histogram {
	var h partition.Histogram
	for _, r := range recs {
		h.Add(r.Len())
	}
	return &h
}

func strategies(p filter.Params, recs []*record.Record, k int) []dispatch.Strategy {
	h := histOf(recs)
	w := partition.CostModel{Params: p}.Weights(h)
	return []dispatch.Strategy{
		dispatch.NewLengthBased(p, partition.LoadAware(w, k)),
		dispatch.PrefixBased{Params: p},
		dispatch.BroadcastBased{},
	}
}

func bruteCount(recs []*record.Record, p filter.Params, win window.Policy) map[record.Pair]bool {
	if win == nil {
		win = window.Unbounded{}
	}
	out := make(map[record.Pair]bool)
	for i, r := range recs {
		for j := 0; j < i; j++ {
			s := recs[j]
			if !win.Live(s.ID, s.Time, r.ID, r.Time) {
				continue
			}
			if similarity.Of(p.Func, r.Tokens, s.Tokens) >= p.Threshold-1e-12 {
				out[record.NewPair(r.ID, s.ID, 0)] = true
			}
		}
	}
	return out
}

// withMatchLadder appends groups of identical records to recs, interleaved
// so that several workers produce results at once. Record i of a group
// matches the i records of the group before it, so the probes of the
// largest group return every count from 0 to 519. Groups differ in length,
// so a length-based plan can put them on different workers.
func withMatchLadder(recs []*record.Record) []*record.Record {
	groups := []struct{ size, length int }{{520, 3}, {258, 6}, {65, 10}, {2, 16}}
	out := append([]*record.Record(nil), recs...)
	for i := 0; i < groups[0].size; i++ {
		for g, grp := range groups {
			if i >= grp.size {
				continue
			}
			set := make([]tokens.Rank, grp.length)
			for j := range set {
				set[j] = tokens.Rank(1_000_000 + 100*g + j)
			}
			id := record.ID(len(out))
			if n := len(out); n > 0 {
				id = out[n-1].ID + 1
			}
			out = append(out, &record.Record{ID: id, Time: int64(id), Tokens: set})
		}
	}
	return out
}

// tagSides returns the sides of an n-record two-sided stream: every second
// record is a right record, so each ladder group is split evenly.
func tagSides(n int) []bool {
	right := make([]bool, n)
	for i := range right {
		right[i] = i%2 == 1
	}
	return right
}

// bruteCountBi is bruteCount for a two-sided stream: cross-side pairs only.
func bruteCountBi(recs []*record.Record, right []bool, p filter.Params) map[record.Pair]bool {
	out := make(map[record.Pair]bool)
	for i, r := range recs {
		for j, s := range recs[:i] {
			if right[i] != right[j] && similarity.Of(p.Func, r.Tokens, s.Tokens) >= p.Threshold-1e-12 {
				out[record.NewPair(r.ID, s.ID, 0)] = true
			}
		}
	}
	return out
}

// checkPairs fails unless got is exactly want as a multiset: no pair
// missing, none extra, none twice.
func checkPairs(t *testing.T, label string, got []record.Pair, want map[record.Pair]bool) {
	t.Helper()
	seen := make(map[record.Pair]bool, len(got))
	for _, pr := range got {
		key := record.Pair{First: pr.First, Second: pr.Second}
		if seen[key] {
			t.Fatalf("%s: duplicate pair %v", label, key)
		}
		if !want[key] {
			t.Fatalf("%s: unexpected pair %v", label, key)
		}
		seen[key] = true
	}
	if len(seen) != len(want) {
		t.Fatalf("%s: got %d pairs want %d", label, len(seen), len(want))
	}
}

// TestAllTopologiesMatchBruteForce is the system-level correctness gate:
// every (strategy × algorithm × worker-count) combination must produce
// exactly the brute-force pair set.
func TestAllTopologiesMatchBruteForce(t *testing.T) {
	p := params(0.6)
	recs := genStream(500, 99)
	want := bruteCount(recs, p, nil)
	for _, k := range []int{1, 4} {
		for _, strat := range strategies(p, recs, k) {
			for _, alg := range []local.Algorithm{local.Naive, local.Prefix, local.Bundled} {
				res, err := Run(recs, Config{
					Workers:      k,
					Strategy:     strat,
					Algorithm:    alg,
					Params:       p,
					CollectPairs: true,
				})
				if err != nil {
					t.Fatalf("%s/%s k=%d: %v", strat.Name(), alg, k, err)
				}
				checkPairs(t, fmt.Sprintf("%s/%s k=%d", strat.Name(), alg, k), res.Pairs, want)
			}
		}
	}
}

func TestWindowedTopologyMatchesBruteForce(t *testing.T) {
	p := params(0.7)
	recs := genStream(400, 3)
	win := window.Count{N: 50}
	want := bruteCount(recs, p, win)
	k := 3
	for _, strat := range strategies(p, recs, k) {
		res, err := Run(recs, Config{
			Workers:      k,
			Strategy:     strat,
			Algorithm:    local.Prefix,
			Params:       p,
			Window:       win,
			CollectPairs: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if int(res.Results) != len(want) {
			t.Fatalf("%s: got %d results want %d", strat.Name(), res.Results, len(want))
		}
	}
}

func TestCommunicationCostOrdering(t *testing.T) {
	// At a high threshold, length-based must ship fewer tuples than
	// broadcast (k copies each) and no more than prefix-based replication.
	p := params(0.8)
	recs := genStream(800, 17)
	k := 8
	counts := make(map[string]uint64)
	for _, strat := range strategies(p, recs, k) {
		res, err := Run(recs, Config{Workers: k, Strategy: strat, Algorithm: local.Prefix, Params: p})
		if err != nil {
			t.Fatal(err)
		}
		counts[strat.Name()] = res.CommTuples
	}
	if counts["length"] >= counts["broadcast"] {
		t.Fatalf("length %d should beat broadcast %d", counts["length"], counts["broadcast"])
	}
	if counts["broadcast"] != uint64(len(recs)*k) {
		t.Fatalf("broadcast tuples: got %d want %d", counts["broadcast"], len(recs)*k)
	}
}

func TestStoredCopiesNoReplicationForLength(t *testing.T) {
	p := params(0.7)
	recs := genStream(500, 21)
	k := 6
	strats := strategies(p, recs, k)
	get := func(s dispatch.Strategy) uint64 {
		res, err := Run(recs, Config{Workers: k, Strategy: s, Algorithm: local.Prefix, Params: p})
		if err != nil {
			t.Fatal(err)
		}
		return res.StoredCopies
	}
	if got := get(strats[0]); got != uint64(len(recs)) {
		t.Fatalf("length-based stored copies: %d want %d", got, len(recs))
	}
	if got := get(strats[1]); got <= uint64(len(recs)) {
		t.Fatalf("prefix-based should replicate, stored %d", got)
	}
	if got := get(strats[2]); got != uint64(len(recs)) {
		t.Fatalf("broadcast stored copies: %d want %d", got, len(recs))
	}
}

func TestResultMetricsPopulated(t *testing.T) {
	p := params(0.6)
	recs := genStream(300, 33)
	res, err := Run(recs, Config{
		Workers: 2, Strategy: strategies(p, recs, 2)[0],
		Algorithm: local.Bundled, Params: p,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Records != 300 {
		t.Fatalf("records: %d", res.Records)
	}
	if res.Elapsed <= 0 {
		t.Fatal("elapsed missing")
	}
	if res.Throughput().PerSecond() <= 0 {
		t.Fatal("throughput missing")
	}
	if len(res.WorkerCosts) != 2 {
		t.Fatalf("worker costs: %d", len(res.WorkerCosts))
	}
	if res.Latency.Count() == 0 {
		t.Fatal("latency not measured")
	}
	if res.CommTuples == 0 || res.CommBytes == 0 {
		t.Fatal("communication not measured")
	}
}

func TestConfigValidation(t *testing.T) {
	p := params(0.8)
	recs := genStream(10, 1)
	cases := []Config{
		{Workers: 0, Strategy: dispatch.BroadcastBased{}, Params: p},
		{Workers: 2, Strategy: nil, Params: p},
		{Workers: 2, Strategy: dispatch.BroadcastBased{}},
	}
	for i, cfg := range cases {
		if _, err := Run(recs, cfg); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestSingleWorkerDegeneratesToLocalJoin(t *testing.T) {
	p := params(0.75)
	recs := genStream(300, 8)
	res, err := Run(recs, Config{
		Workers:  1,
		Strategy: dispatch.BroadcastBased{},
		Params:   p, CollectPairs: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := bruteCount(recs, p, nil)
	if int(res.Results) != len(want) {
		t.Fatalf("k=1: got %d want %d", res.Results, len(want))
	}
}

// TestLiveMigrationInTopology runs the dispatch.Migrating strategy through
// the real engine across a drifting stream with a count window and checks
// the result set against brute force — live repartitioning end to end.
func TestLiveMigrationInTopology(t *testing.T) {
	const (
		n    = 800
		k    = 4
		winN = 200
	)
	p := params(0.7)
	phaseA := workload.NewGenerator(workload.AOLLike(41)).Generate(n / 2)
	phaseB := workload.NewGenerator(workload.EnronLike(41)).Generate(n / 2)
	recs := append([]*record.Record{}, phaseA...)
	for i, r := range phaseB {
		r.ID = record.ID(n/2 + i)
		r.Time = int64(r.ID)
		recs = append(recs, r)
	}
	var hA, hB partition.Histogram
	for _, r := range phaseA {
		hA.Add(r.Len())
	}
	for _, r := range phaseB {
		hB.Add(r.Len())
	}
	cm := partition.CostModel{Params: p}
	mig := dispatch.PlanMigration(p,
		partition.LoadAware(cm.Weights(&hA), k),
		partition.LoadAware(cm.Weights(&hB), k),
		record.ID(n/2), winN)

	win := window.Count{N: winN}
	res, err := Run(recs, Config{
		Workers:      k,
		Strategy:     mig,
		Algorithm:    local.Prefix,
		Params:       p,
		Window:       win,
		CollectPairs: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := bruteCount(recs, p, win)
	got := make(map[record.Pair]bool)
	for _, pr := range res.Pairs {
		key := record.Pair{First: pr.First, Second: pr.Second}
		if got[key] {
			t.Fatalf("duplicate pair %v", key)
		}
		got[key] = true
	}
	if len(got) != len(want) {
		t.Fatalf("got %d pairs want %d", len(got), len(want))
	}
	for pr := range want {
		if !got[pr] {
			t.Fatalf("missing %v", pr)
		}
	}
}

// TestWireCostSlowsBroadcastMore checks the E16 mechanism on counts, not on
// the clock: simulated network cost hits broadcast (k copies of every record)
// harder than length routing because broadcast moves more bytes, and every
// worker burns exactly WireNsPerByte for each byte routed to it. The two
// record rates are printed, not asserted — on a shared 2-vCPU box their ratio
// flaked 2 runs in 60.
func TestWireCostSlowsBroadcastMore(t *testing.T) {
	const k, cost = 4, 400
	p := params(0.8)
	recs := genStream(2000, 55)
	run := func(strat dispatch.Strategy) *Result {
		res, err := Run(recs, Config{
			Workers: k, Strategy: strat, Algorithm: local.Prefix,
			Params: p, WireNsPerByte: cost,
		})
		if err != nil {
			t.Fatal(err)
		}
		// What the strategy routes to each worker, recomputed from the stream.
		routed := make([]uint64, k)
		var buf []int
		for _, r := range recs {
			for _, task := range strat.Route(r, k, buf[:0]) {
				routed[task] += uint64((&RecTuple{Rec: r}).SizeBytes())
			}
		}
		var total uint64
		for task, b := range res.Report.Bolts["worker"] {
			if got, want := b.(*workerBolt).wireBurnt, time.Duration(cost*routed[task]); got != want {
				t.Errorf("%s: worker %d burnt %v for %d bytes, want %v", strat.Name(), task, got, routed[task], want)
			}
			total += routed[task]
		}
		if res.CommBytes != total {
			t.Errorf("%s: CommBytes %d, routed %d", strat.Name(), res.CommBytes, total)
		}
		return res
	}
	length, bcast := run(strategies(p, recs, k)[0]), run(dispatch.BroadcastBased{})
	t.Logf("length %.0f rec/s over %d bytes, broadcast %.0f rec/s over %d bytes",
		length.Throughput().PerSecond(), length.CommBytes, bcast.Throughput().PerSecond(), bcast.CommBytes)
	if 2*bcast.CommBytes < 3*length.CommBytes {
		t.Fatalf("wire cost should separate frameworks: broadcast moved %d bytes, length %d", bcast.CommBytes, length.CommBytes)
	}
}

// TestParallelDispatchersMatchBruteForce: with several dispatchers,
// windowed results must still be exact.
func TestParallelDispatchersMatchBruteForce(t *testing.T) {
	p := params(0.7)
	recs := genStream(3000, 71)
	win := window.Count{N: 400}
	want := bruteCount(recs, p, win)
	for _, d := range []int{2, 4} {
		res, err := Run(recs, Config{
			Workers:     3,
			Dispatchers: d,
			Strategy:    strategies(p, recs, 3)[0],
			Algorithm:   local.Prefix,
			Params:      p,
			Window:      win,
			QueueCap:    64, // small queues exercise the skew bound
		})
		if err != nil {
			t.Fatal(err)
		}
		if int(res.Results) != len(want) {
			t.Fatalf("d=%d: got %d results want %d", d, res.Results, len(want))
		}
	}
}

// TestSoakAllStrategiesAgreeAtScale pushes a larger windowed stream through
// every framework and checks result-count equality — the release soak.
func TestSoakAllStrategiesAgreeAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	p := params(0.8)
	recs := workload.NewGenerator(workload.AOLLike(2026)).Generate(60000)
	win := window.Count{N: 5000}
	k := 8
	var counts []uint64
	for _, strat := range strategies(p, recs, k) {
		res, err := Run(recs, Config{
			Workers: k, Strategy: strat, Algorithm: local.Bundled,
			Params: p, Window: win,
		})
		if err != nil {
			t.Fatal(err)
		}
		counts = append(counts, res.Results)
	}
	if counts[0] != counts[1] || counts[1] != counts[2] {
		t.Fatalf("strategies disagree at scale: %v", counts)
	}
	if counts[0] == 0 {
		t.Fatal("no results on a duplicate-heavy stream")
	}
}

// TestDistributedBiJoinMatchesLocal: the two-stream distributed join must
// match a local BiJoiner run exactly, for every strategy.
func TestDistributedBiJoinMatchesLocal(t *testing.T) {
	p := params(0.7)
	base := genStream(600, 123)
	right := make([]bool, len(base))
	for i := range right {
		right[i] = i%3 == 0 // uneven sides
	}
	// Local reference.
	bi := local.NewBi(local.Naive, local.Options{Params: p})
	want := make(map[record.Pair]bool)
	for i, r := range base {
		emit := func(m local.Match) {
			want[record.NewPair(r.ID, m.Rec.ID, 0)] = true
		}
		if right[i] {
			bi.StepRight(r, emit)
		} else {
			bi.StepLeft(r, emit)
		}
	}
	for _, k := range []int{1, 4} {
		for _, strat := range strategies(p, base, k) {
			res, err := RunBi(base, right, Config{
				Workers: k, Strategy: strat, Algorithm: local.Prefix,
				Params: p, CollectPairs: true,
			})
			if err != nil {
				t.Fatalf("%s k=%d: %v", strat.Name(), k, err)
			}
			checkPairs(t, fmt.Sprintf("%s k=%d", strat.Name(), k), res.Pairs, want)
		}
	}
	if len(want) == 0 {
		t.Fatal("degenerate test: no cross-side pairs")
	}
}

// TestBatchSizeParity checks the E7-style equality contract of the batched
// transport: every batch size (including 1 = unbatched and sizes larger
// than any queue) must produce exactly the brute-force pair multiset, and
// the transport must report batch counts consistent with the tuple counts.
// The stream ends in the match ladder, so the same runs cover probes of
// hundreds of results under one dispatcher and several (up to one per
// worker), one worker and several, self-join and two-stream.
func TestBatchSizeParity(t *testing.T) {
	p := params(0.6)
	recs := withMatchLadder(genStream(600, 17))
	want := bruteCount(recs, p, nil)
	sides := tagSides(len(recs))
	wantBi := bruteCountBi(recs, sides, p)
	if len(want) < 512 || len(wantBi) < 512 {
		t.Fatalf("degenerate test: %d and %d result pairs", len(want), len(wantBi))
	}
	type shape struct{ batch, workers, dispatchers int }
	shapes := []shape{{7, 4, 1}, {4096, 4, 1}}
	for _, bs := range []int{1, 64} {
		for _, k := range []int{1, 2, 4} {
			for _, d := range []int{1, 3} {
				shapes = append(shapes, shape{bs, k, d})
			}
		}
	}
	for _, sh := range shapes {
		strats := strategies(p, recs, sh.workers)
		if sh.dispatchers > 1 || sh.workers < 4 {
			strats = strats[:1] // the replicating baselines ride the Workers-4, one-dispatcher shapes
		}
		for _, strat := range strats {
			label := fmt.Sprintf("batch %d k=%d d=%d %s", sh.batch, sh.workers, sh.dispatchers, strat.Name())
			cfg := Config{
				Workers:      sh.workers,
				Dispatchers:  sh.dispatchers,
				Strategy:     strat,
				Algorithm:    local.Bundled,
				Params:       p,
				BatchSize:    sh.batch,
				CollectPairs: true,
			}
			res, err := Run(recs, cfg)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			checkPairs(t, label, res.Pairs, want)
			if res.Results != uint64(len(want)) {
				t.Fatalf("%s: Results %d for %d pairs", label, res.Results, len(want))
			}
			batches := res.Report.EdgeBatches("dispatcher", "worker")
			tuples := res.Report.EdgeTuples("dispatcher", "worker")
			if batches == 0 || batches > tuples {
				t.Fatalf("%s: implausible batch count %d for %d tuples", label, batches, tuples)
			}
		}
		label := fmt.Sprintf("bi batch %d k=%d d=%d", sh.batch, sh.workers, sh.dispatchers)
		res, err := RunBi(recs, sides, Config{
			Workers:      sh.workers,
			Dispatchers:  sh.dispatchers,
			Strategy:     strategies(p, recs, sh.workers)[0],
			Algorithm:    local.Bundled,
			Params:       p,
			BatchSize:    sh.batch,
			CollectPairs: true,
		})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		checkPairs(t, label, res.Pairs, wantBi)
	}
}

// TestRunPairsInWorkerOrder: Result.Pairs is each worker's results in task
// order, every share in the order its worker probed the records, so two
// runs of one configuration return the same slice. Prefix routing sends a
// ladder record to several workers and the verifier pools fan its probe
// out; neither may reorder a worker's share.
func TestRunPairsInWorkerOrder(t *testing.T) {
	p := params(0.6)
	recs := withMatchLadder(genStream(600, 23))
	cfg := Config{
		Workers: 4, Strategy: dispatch.PrefixBased{Params: p},
		Algorithm: local.Bundled, Params: p, Parallelism: 2, CollectPairs: true,
	}
	first, err := Run(recs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkPairs(t, "first run", first.Pairs, bruteCount(recs, p, nil))
	again, err := Run(recs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(again.Pairs) != len(first.Pairs) {
		t.Fatalf("second run returned %d pairs, first %d", len(again.Pairs), len(first.Pairs))
	}
	for i := range first.Pairs {
		if again.Pairs[i] != first.Pairs[i] {
			t.Fatalf("pair %d differs between runs: %v, then %v", i, first.Pairs[i], again.Pairs[i])
		}
	}
	share := first.Pairs
	for _, b := range first.Report.Bolts["worker"] {
		w := b.(*workerBolt)
		mine := share[:w.results]
		share = share[w.results:]
		for i := 1; i < len(mine); i++ {
			// The probe is the later record of a pair: its Second.
			if mine[i].Second < mine[i-1].Second {
				t.Fatalf("worker %d: pair %d probes %d after %d", w.task, i, mine[i].Second, mine[i-1].Second)
			}
		}
	}
}

// TestBatchedParallelDispatchersExact re-checks parallel dispatchers under
// batching and tiny queues, where a partial batch waits longest in one
// dispatcher: results must still be exact.
func TestBatchedParallelDispatchersExact(t *testing.T) {
	p := params(0.6)
	recs := genStream(800, 5)
	want := bruteCount(recs, p, nil)
	for _, bs := range []int{8, 64} {
		for _, d := range []int{2, 4} {
			res, err := Run(recs, Config{
				Workers:      4,
				Dispatchers:  d,
				Strategy:     strategies(p, recs, 4)[0],
				Algorithm:    local.Prefix,
				Params:       p,
				BatchSize:    bs,
				QueueCap:     2, // tiny queues force batch-boundary skew
				CollectPairs: true,
			})
			if err != nil {
				t.Fatalf("batch %d d=%d: %v", bs, d, err)
			}
			got := make(map[record.Pair]bool)
			for _, pr := range res.Pairs {
				got[record.Pair{First: pr.First, Second: pr.Second}] = true
			}
			if len(got) != len(want) {
				t.Fatalf("batch %d d=%d: got %d pairs want %d", bs, d, len(got), len(want))
			}
		}
	}
}

// TestCheckpointedSplitRunMatchesFullRun is the topology-level recovery
// gate: run the first half of a stream with Checkpoint set, feed the
// captured worker states into a Restore run over the second half, and the
// union of pairs must equal one uninterrupted run — for every strategy and
// algorithm, under a bounded window so eviction state is exercised too.
func TestCheckpointedSplitRunMatchesFullRun(t *testing.T) {
	p := params(0.6)
	recs := genStream(600, 17)
	const cut = 350
	win := window.Count{N: 150}
	for _, k := range []int{1, 3} {
		for _, strat := range strategies(p, recs, k) {
			for _, alg := range []local.Algorithm{local.Prefix, local.Bundled} {
				base := Config{
					Workers:      k,
					Strategy:     strat,
					Algorithm:    alg,
					Params:       p,
					Window:       win,
					CollectPairs: true,
				}
				full, err := Run(recs, base)
				if err != nil {
					t.Fatalf("%s/%s k=%d: full run: %v", strat.Name(), alg, k, err)
				}
				want := make(map[record.Pair]bool)
				for _, pr := range full.Pairs {
					want[record.Pair{First: pr.First, Second: pr.Second}] = true
				}

				first := base
				first.Checkpoint = true
				r1, err := Run(recs[:cut], first)
				if err != nil {
					t.Fatalf("%s/%s k=%d: first half: %v", strat.Name(), alg, k, err)
				}
				if len(r1.Checkpoints) != k {
					t.Fatalf("%s/%s k=%d: %d checkpoints for %d workers",
						strat.Name(), alg, k, len(r1.Checkpoints), k)
				}
				second := base
				second.Restore = r1.Checkpoints
				r2, err := Run(recs[cut:], second)
				if err != nil {
					t.Fatalf("%s/%s k=%d: second half: %v", strat.Name(), alg, k, err)
				}

				got := make(map[record.Pair]bool)
				for _, pr := range append(r1.Pairs, r2.Pairs...) {
					got[record.Pair{First: pr.First, Second: pr.Second}] = true
				}
				if len(got) != len(want) {
					t.Fatalf("%s/%s k=%d: split run got %d pairs, full run %d",
						strat.Name(), alg, k, len(got), len(want))
				}
				for pr := range want {
					if !got[pr] {
						t.Fatalf("%s/%s k=%d: split run missing %v", strat.Name(), alg, k, pr)
					}
				}
			}
		}
	}
}

// TestCheckpointRestoreValidation covers the config error paths.
func TestCheckpointRestoreValidation(t *testing.T) {
	p := params(0.6)
	recs := genStream(50, 3)
	base := Config{Workers: 2, Strategy: strategies(p, recs, 2)[0], Params: p}

	bad := base
	bad.Restore = [][]byte{[]byte("junk")} // wrong count AND bad payload
	if _, err := Run(recs, bad); err == nil {
		t.Fatal("restore count mismatch accepted")
	}
	bad.Restore = [][]byte{[]byte("junk"), []byte("junk")}
	if _, err := Run(recs, bad); err == nil {
		t.Fatal("corrupt checkpoint accepted")
	}

	biCfg := base
	biCfg.Checkpoint = true
	if _, err := RunBi(recs, tagSides(len(recs)), biCfg); err == nil {
		t.Fatal("bi checkpoint accepted")
	}
	if _, err := RunBi(recs, tagSides(len(recs)-1), base); err == nil {
		t.Fatal("bi run with a side missing accepted")
	}
}

// TestLoadAwarePlanTracksRealizedLoad is the cost model's contract with the
// index it plans for, on counts that repeat exactly: the load-aware plan
// fitted to the first 10 000 lengths of the Enron-like stream (the sample
// the benchmark and RunDistributed plan on) leaves the busier of two workers
// within a quarter of the mean, in the unit every imbalance report uses —
// verification and union merge steps plus postings walked. The pairwise cost
// model this one replaced cut the stream at 100 tokens and read 1.69 here
// (1.58 at the quarter scale -short runs, which the race detector wants).
// The AOL-like plan, whose cost is in its results and outside any
// lengths-only model, must stay where it was.
func TestLoadAwarePlanTracksRealizedLoad(t *testing.T) {
	p := params(0.7)
	plan := func(recs []*record.Record, k int) partition.Partition {
		return partition.LoadAware(partition.CostModel{Params: p}.Weights(histOf(recs[:10000])), k)
	}
	n, win := 60000, int64(20000) // enron_verify's stream and window
	if testing.Short() {
		n, win = 15000, 5000
	}
	recs := workload.NewGenerator(workload.EnronLike(42)).Generate(n)
	part := plan(recs, 2)
	res, err := Run(recs, Config{
		Workers: 2, Strategy: dispatch.NewLengthBased(p, part),
		Algorithm: local.Bundled, Params: p, Window: window.Count{N: win},
	})
	if err != nil {
		t.Fatal(err)
	}
	var sum, max float64
	for _, c := range res.WorkerCosts {
		load := float64(c.VerifySteps + c.Scanned)
		sum, max = sum+load, math.Max(max, load)
	}
	if imb := max / (sum / 2); imb > 1.25 {
		t.Errorf("plan %v: realized imbalance %.3f over %+v, want <= 1.25", part, imb, res.WorkerCosts)
	} else {
		t.Logf("plan %v: realized imbalance %.3f", part, imb)
	}
	for _, seed := range []int64{42, 7} {
		aol := workload.NewGenerator(workload.AOLLike(seed)).Generate(10000)
		if got := plan(aol, 2); got.Bounds[0] != 3 {
			t.Errorf("AOL-like(%d) plan %v, want worker 0 to own (0,3]", seed, got)
		}
	}
}

// TestWorkerEmitMatchAllocs: the worker's per-result callback allocates
// nothing — it arbitrates, counts, and appends the pair to a slice that
// grows only by amortised doubling, pre-grown here.
func TestWorkerEmitMatchAllocs(t *testing.T) {
	probe := &record.Record{ID: 9, Tokens: []tokens.Rank{1, 2, 3}}
	partner := &record.Record{ID: 4, Tokens: []tokens.Rank{1, 2, 3}}
	const runs = 1000
	w := &workerBolt{k: 1, strat: dispatch.BroadcastBased{}, collect: true, pairs: make([]record.Pair, 0, runs+1)}
	w.curRec = probe
	m := local.Match{Rec: partner, ID: partner.ID, Overlap: 3, Sim: 1}
	if n := testing.AllocsPerRun(runs, func() { w.emitMatch(m) }); n != 0 {
		t.Fatalf("emitMatch allocates %v times per result", n)
	}
	if w.results != runs+1 || len(w.pairs) != runs+1 {
		t.Fatalf("%d results, %d pairs kept after %d calls", w.results, len(w.pairs), runs+1)
	}
}
