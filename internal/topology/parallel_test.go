package topology

import (
	"fmt"
	"testing"

	"repro/internal/local"
	"repro/internal/record"
)

// TestParallelParityTopology is the engine-level parity matrix the CI
// bench-smoke job runs under -race: every (batch size × verifier-pool
// size) combination must produce exactly the sequential run's result-pair
// set, which itself must equal brute force. Pairs are compared as sets —
// worker outputs interleave nondeterministically at the collecting sink
// regardless of parallelism — while the per-worker byte-identical stream
// order is enforced by the bundle- and local-level parity tests.
func TestParallelParityTopology(t *testing.T) {
	p := params(0.6)
	recs := withSlabLadder(genStream(700, 29)) // probes of up to 519 matches: pooled verification feeding full slabs
	want := bruteCount(recs, p, nil)
	if len(want) == 0 {
		t.Fatal("degenerate workload: no brute-force pairs")
	}
	for _, batch := range []int{1, 64} {
		for _, par := range []int{1, 2, 4, 8} {
			res, err := Run(recs, Config{
				Workers:      3,
				Strategy:     strategies(p, recs, 3)[0],
				Algorithm:    local.Bundled,
				Params:       p,
				BatchSize:    batch,
				Parallelism:  par,
				CollectPairs: true,
			})
			if err != nil {
				t.Fatalf("batch=%d P=%d: %v", batch, par, err)
			}
			checkPairs(t, fmt.Sprintf("batch=%d P=%d", batch, par), res.Pairs, want)
		}
	}
}

// TestParallelParityBiJoin runs the two-stream join with verifier pools on
// both sides and checks the pair set against the sequential run — and that
// the run terminates cleanly, which also exercises the owned-joiner close
// path for BiJoiners.
func TestParallelParityBiJoin(t *testing.T) {
	p := params(0.7)
	base := genStream(500, 41)
	right := make([]bool, len(base))
	for i := range right {
		right[i] = i%3 == 0
	}
	run := func(par int) map[record.Pair]bool {
		res, err := RunBi(base, right, Config{
			Workers: 2, Strategy: strategies(p, base, 2)[0],
			Algorithm: local.Bundled, Params: p,
			Parallelism: par, CollectPairs: true,
		})
		if err != nil {
			t.Fatalf("P=%d: %v", par, err)
		}
		out := make(map[record.Pair]bool)
		for _, pr := range res.Pairs {
			out[record.Pair{First: pr.First, Second: pr.Second}] = true
		}
		return out
	}
	want := run(1)
	if len(want) == 0 {
		t.Fatal("degenerate: no cross-side pairs")
	}
	for _, par := range []int{2, 4} {
		got := run(par)
		if len(got) != len(want) {
			t.Fatalf("P=%d: got %d pairs want %d", par, len(got), len(want))
		}
		for pr := range want {
			if !got[pr] {
				t.Fatalf("P=%d: missing %v", par, pr)
			}
		}
	}
}

// TestParallelParityCheckpointRestore: a split run with checkpoint/restore
// under a verifier pool must equal the parallel full run — recovery and
// parallel verification compose.
func TestParallelParityCheckpointRestore(t *testing.T) {
	p := params(0.6)
	recs := genStream(500, 59)
	const cut = 300
	base := Config{
		Workers: 2, Strategy: strategies(p, recs, 2)[0],
		Algorithm: local.Bundled, Params: p,
		Parallelism: 4, CollectPairs: true,
	}
	full, err := Run(recs, base)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[record.Pair]bool)
	for _, pr := range full.Pairs {
		want[record.Pair{First: pr.First, Second: pr.Second}] = true
	}

	first := base
	first.Checkpoint = true
	r1, err := Run(recs[:cut], first)
	if err != nil {
		t.Fatal(err)
	}
	second := base
	second.Restore = r1.Checkpoints
	r2, err := Run(recs[cut:], second)
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[record.Pair]bool)
	for _, pr := range append(r1.Pairs, r2.Pairs...) {
		got[record.Pair{First: pr.First, Second: pr.Second}] = true
	}
	if len(got) != len(want) {
		t.Fatalf("split run got %d pairs, full parallel run %d", len(got), len(want))
	}
	for pr := range want {
		if !got[pr] {
			t.Fatalf("split run missing %v", pr)
		}
	}
}
