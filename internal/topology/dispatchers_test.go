package topology

import (
	"fmt"
	"testing"

	"repro/internal/local"
	"repro/internal/record"
	"repro/internal/tokens"
	"repro/internal/workload"
)

// splitStrategy routes odd IDs and ID 10 to worker 0 and every other ID to
// worker 1, and stores each record where it routes it.
type splitStrategy struct{}

func splitWorker(id record.ID) int {
	if id%2 == 1 || id == 10 {
		return 0
	}
	return 1
}

func (splitStrategy) Name() string { return "split" }

func (splitStrategy) Route(r *record.Record, _ int, buf []int) []int {
	return append(buf, splitWorker(r.ID))
}

func (splitStrategy) Stores(r *record.Record, task, _ int) bool { return splitWorker(r.ID) == task }

func (splitStrategy) Emits(_, _ *record.Record, _, _ int) bool { return true }

// TestParallelDispatcherPartialBatchLosesNothing: the stream's one matching
// pair is (10, 11), and both records go to worker 0. Had the source dealt
// records to two dispatchers in turn, record 10 would sit in one
// dispatcher's partial batch for worker 0 — that dispatcher ships every
// other even ID to worker 1 — while the other dispatcher ships every odd ID
// to worker 0, record 11 first among them. Worker 0's one dispatcher sees
// the whole stream instead and ships 10 before 11.
func TestParallelDispatcherPartialBatchLosesNothing(t *testing.T) {
	checkNoLeaks(t)
	const n = 20000
	recs := make([]*record.Record, n)
	for i := range recs {
		base := 3 * i
		if i == 11 {
			base = 30 // record 11 equals record 10
		}
		recs[i] = &record.Record{ID: record.ID(i), Time: int64(i),
			Tokens: []tokens.Rank{tokens.Rank(base), tokens.Rank(base + 1), tokens.Rank(base + 2)}}
	}
	res, err := Run(recs, Config{
		Workers:      2,
		Dispatchers:  2,
		QueueCap:     2,
		Strategy:     splitStrategy{},
		Algorithm:    local.Prefix,
		Params:       params(0.8),
		CollectPairs: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkPairs(t, "split", res.Pairs, map[record.Pair]bool{record.NewPair(10, 11, 0): true})
}

// TestParallelDispatchersMatchOneDispatcherOverSeeds runs E18's shape —
// AOL-like records, k = 8, length strategy, Bundled — over 20 seeds: two
// and four dispatchers must emit exactly the pairs one dispatcher emits.
func TestParallelDispatchersMatchOneDispatcherOverSeeds(t *testing.T) {
	checkNoLeaks(t)
	p := params(0.8)
	for seed := int64(1); seed <= 20; seed++ {
		recs := workload.NewGenerator(workload.AOLLike(seed)).Generate(5000)
		cfg := Config{
			Workers:      8,
			Strategy:     strategies(p, recs, 8)[0],
			Algorithm:    local.Bundled,
			Params:       p,
			CollectPairs: true,
		}
		one, err := Run(recs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := make(map[record.Pair]bool, len(one.Pairs))
		for _, pr := range one.Pairs {
			want[record.Pair{First: pr.First, Second: pr.Second}] = true
		}
		if len(want) == 0 {
			t.Fatalf("seed %d: degenerate stream, no pairs", seed)
		}
		checkPairs(t, fmt.Sprintf("seed %d d=1", seed), one.Pairs, want)
		for _, d := range []int{2, 4} {
			cfg.Dispatchers = d
			res, err := Run(recs, cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkPairs(t, fmt.Sprintf("seed %d d=%d", seed, d), res.Pairs, want)
		}
	}
}
