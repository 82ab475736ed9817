package dispatch

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/local"
	"repro/internal/partition"
	"repro/internal/record"
	"repro/internal/tokens"
	"repro/internal/window"
	"repro/internal/workload"
)

// naivePairs is the brute-force answer: one Naive joiner, or one Naive
// BiJoiner when right is non-nil, storing every record.
func naivePairs(recs []*record.Record, right []bool, opt local.Options) []record.Pair {
	var (
		pairs []record.Pair
		cur   *record.Record
	)
	emit := func(m local.Match) { pairs = append(pairs, record.NewPair(cur.ID, m.ID, m.Sim)) }
	j, bi := local.New(local.Naive, opt), local.NewBi(local.Naive, opt)
	for i, r := range recs {
		cur = r
		if right != nil {
			bi.StepSide(r, right[i], true, emit)
		} else {
			j.Step(r, true, emit)
		}
	}
	return pairs
}

// runTasks routes every record and steps each destination task's substream
// with the Stores flag: the engine's and the fleet's worker loop, without a
// transport. It returns every task's pairs, in task order, and the results
// the steps returned.
func runTasks(s Strategy, k int, a local.Algorithm, opt local.Options, recs []*record.Record, right []bool, collect bool) ([]record.Pair, uint64) {
	tasks := make([]*Task, k)
	for w := range tasks {
		tasks[w] = NewTask(s, w, k, a, opt, right != nil, collect)
	}
	var dst []int
	for i, r := range recs {
		dst = s.Route(r, k, dst[:0])
		for _, w := range dst {
			tasks[w].Step(r, right != nil && right[i], tasks[w].Stores(r))
		}
	}
	var (
		pairs []record.Pair
		n     uint64
	)
	for _, t := range tasks {
		pairs = append(pairs, t.TakePairs()...)
		n += t.Results()
	}
	return pairs, n
}

// TestTaskEmitsEachPairOnce is the per-task contract both runtimes step
// through: under length, prefix and broadcast routing, for a self-join and
// a two-stream run, at k ∈ {1, 2, 3, 5}, the union of the tasks' collected
// pairs is the naive joiner's, each pair exactly once, and counting tasks
// return the same totals as collecting ones.
func TestTaskEmitsEachPairOnce(t *testing.T) {
	p := params(0.6)
	streams := map[string][]*record.Record{
		"uniform": workload.NewGenerator(workload.UniformSmall(3)).Generate(400),
		"aol":     workload.NewGenerator(workload.AOLLike(3)).Generate(400),
	}
	for name, recs := range streams {
		right := make([]bool, len(recs))
		for i := range right {
			right[i] = i%3 == 1
		}
		opt := local.Options{Params: p, Window: window.Count{N: 150}}
		for _, bi := range []bool{false, true} {
			sides := right
			if !bi {
				sides = nil
			}
			want := naivePairs(recs, sides, opt)
			if len(want) == 0 {
				t.Fatalf("%s bi=%v: the stream has no pairs", name, bi)
			}
			for _, k := range []int{1, 2, 3, 5} {
				strats := []Strategy{
					NewLengthBased(p, partition.Fit(p, recs, k)),
					PrefixBased{Params: p},
					BroadcastBased{},
				}
				for _, s := range strats {
					for _, a := range []local.Algorithm{local.Prefix, local.Bundled} {
						label := fmt.Sprintf("%s bi=%v k=%d %s %v", name, bi, k, s.Name(), a)
						got, n := runTasks(s, k, a, opt, recs, sides, true)
						if n != uint64(len(got)) {
							t.Fatalf("%s: the steps returned %d results and collected %d pairs", label, n, len(got))
						}
						checkSamePairs(t, label, got, want)
						if _, counted := runTasks(s, k, a, opt, recs, sides, false); counted != n {
							t.Fatalf("%s: counting tasks returned %d results, collecting ones %d", label, counted, n)
						}
					}
				}
			}
		}
	}
}

// checkSamePairs fails unless got holds each pair of want exactly once,
// with its similarity, and nothing else.
func checkSamePairs(t *testing.T, label string, got, want []record.Pair) {
	t.Helper()
	type key struct{ a, b record.ID }
	sims := make(map[key]float64, len(want))
	for _, pr := range want {
		sims[key{pr.First, pr.Second}] = pr.Sim
	}
	seen := make(map[key]bool, len(got))
	for _, pr := range got {
		k := key{pr.First, pr.Second}
		sim, ok := sims[k]
		switch {
		case !ok:
			t.Fatalf("%s: pair %v is not a result", label, pr)
		case seen[k]:
			t.Fatalf("%s: pair %v emitted twice", label, pr)
		case math.Abs(sim-pr.Sim) > 1e-9:
			t.Fatalf("%s: pair %v, similarity %v", label, pr, sim)
		}
		seen[k] = true
	}
	if len(seen) != len(sims) {
		t.Fatalf("%s: %d of %d pairs emitted", label, len(seen), len(sims))
	}
}

// TestTaskEmitAllocs: the task's per-result callback allocates nothing —
// it arbitrates, counts, and appends the pair to a slice that grows only
// by amortised doubling, pre-grown here.
func TestTaskEmitAllocs(t *testing.T) {
	probe := &record.Record{ID: 9, Tokens: []tokens.Rank{1, 2, 3}}
	partner := &record.Record{ID: 4, Tokens: []tokens.Rank{1, 2, 3}}
	const runs = 1000
	task := NewTask(BroadcastBased{}, 0, 1, local.Naive, local.Options{Params: params(0.8)}, false, true)
	task.pairs = make([]record.Pair, 0, runs+1)
	task.cur = probe
	m := local.Match{Rec: partner, ID: partner.ID, Overlap: 3, Sim: 1}
	if n := testing.AllocsPerRun(runs, func() { task.emit(m) }); n != 0 {
		t.Fatalf("emit allocates %v times per result", n)
	}
	if task.n != runs+1 || len(task.pairs) != runs+1 {
		t.Fatalf("%d results, %d pairs kept after %d calls", task.n, len(task.pairs), runs+1)
	}
}
