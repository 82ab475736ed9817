package experiments

import (
	"fmt"
	"time"

	"repro/internal/dispatch"
	"repro/internal/filter"
	"repro/internal/local"
	"repro/internal/metrics"
	"repro/internal/partition"
	"repro/internal/similarity"
	"repro/internal/window"
	"repro/internal/workload"

	ssjoin "repro"
)

var thresholds = []float64{0.6, 0.7, 0.8, 0.9}

// T1 reports the statistics of every workload profile — the stand-in for
// the paper's dataset table.
func T1(sc Scale) *Table {
	t := &Table{
		ID:      "T1",
		Title:   "Workload profiles (synthetic stand-ins for the paper's corpora)",
		Columns: []string{"profile", "records", "vocab", "len-mean", "len-p50", "len-max", "dup-rate", "zipf-s"},
		Notes:   "lengths from a generated sample; dup-rate and zipf-s are generator parameters",
	}
	for _, p := range workload.Profiles(sc.Seed) {
		recs := genProfile(p, sc.Records)
		var sum, max int
		lens := make([]int, len(recs))
		for i, r := range recs {
			lens[i] = r.Len()
			sum += r.Len()
			if r.Len() > max {
				max = r.Len()
			}
		}
		p50 := quickMedian(lens)
		t.AddRow(p.Name, len(recs), p.Vocab,
			float64(sum)/float64(len(recs)), p50, max, p.DupRate, p.ZipfS)
	}
	return t
}

func quickMedian(xs []int) int {
	cp := append([]int(nil), xs...)
	// insertion-free selection is overkill; simple sort
	for i := 1; i < len(cp); i++ {
		for j := i; j > 0 && cp[j] < cp[j-1]; j-- {
			cp[j], cp[j-1] = cp[j-1], cp[j]
		}
	}
	if len(cp) == 0 {
		return 0
	}
	return cp[len(cp)/2]
}

// E1 regenerates the headline figure: throughput of each distribution
// framework as the similarity threshold varies.
func E1(sc Scale) *Table {
	t := &Table{
		ID:      "E1",
		Title:   fmt.Sprintf("Throughput (rec/s) vs τ, AOL-like, k=%d, bundle joiner", sc.Workers),
		Columns: []string{"tau", "length", "prefix", "broadcast", "length/broadcast", "length/prefix"},
		Notes:   "paper shape: length-based wins at every τ, up to ~10x over baselines; gap narrows as τ drops",
	}
	recs := genProfile(workload.AOLLike(sc.Seed), sc.Records)
	for _, tau := range thresholds {
		p := jaccard(tau)
		rates := map[string]float64{}
		for _, dist := range frameworks {
			name := dist.String()
			res := runTopology(sc, recs, strategyFor(dist, p, recs, sc.Workers), p, sc.Workers, local.Bundled, nil)
			rates[name] = res.Throughput().PerSecond()
		}
		t.AddRow(tau, rates["length"], rates["prefix"], rates["broadcast"],
			ratio(rates["length"], rates["broadcast"]), ratio(rates["length"], rates["prefix"]))
	}
	return t
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// E2 regenerates the scalability figure: throughput as workers increase.
func E2(sc Scale) *Table {
	t := &Table{
		ID:      "E2",
		Title:   "Throughput (rec/s) vs workers, AOL-like, τ=0.8",
		Columns: []string{"workers", "length", "prefix", "broadcast"},
		Notes:   "paper shape: length-based scales near-linearly; broadcast flattens (probe fan-out grows with k)",
	}
	recs := genProfile(workload.AOLLike(sc.Seed), sc.Records)
	p := jaccard(0.8)
	for _, k := range workerSweep(sc.Workers) {
		row := []interface{}{k}
		for _, dist := range frameworks {
			res := runTopology(sc, recs, strategyFor(dist, p, recs, k), p, k, local.Bundled, nil)
			row = append(row, res.Throughput().PerSecond())
		}
		t.AddRow(row...)
	}
	return t
}

func workerSweep(max int) []int {
	sweep := []int{1, 2, 4, 8, 16}
	var out []int
	for _, k := range sweep {
		if k <= max {
			out = append(out, k)
		}
	}
	if len(out) == 0 {
		out = []int{max}
	}
	return out
}

// E3 regenerates the communication-cost figure: dispatcher→worker tuples
// and bytes per record for each framework across thresholds.
func E3(sc Scale) *Table {
	t := &Table{
		ID:      "E3",
		Title:   fmt.Sprintf("Communication per record vs τ, AOL-like, k=%d", sc.Workers),
		Columns: []string{"tau", "length tup/rec", "prefix tup/rec", "bcast tup/rec", "length B/rec", "prefix B/rec", "bcast B/rec"},
		Notes:   "paper shape: length-based ships the fewest tuples; broadcast ships exactly k per record",
	}
	recs := genProfile(workload.AOLLike(sc.Seed), sc.Records)
	n := float64(len(recs))
	for _, tau := range thresholds {
		p := jaccard(tau)
		tup := map[string]float64{}
		byt := map[string]float64{}
		for _, dist := range frameworks {
			name := dist.String()
			res := runTopology(sc, recs, strategyFor(dist, p, recs, sc.Workers), p, sc.Workers, local.Prefix, nil)
			tup[name] = float64(res.CommTuples) / n
			byt[name] = float64(res.CommBytes) / n
		}
		t.AddRow(tau, tup["length"], tup["prefix"], tup["broadcast"],
			byt["length"], byt["prefix"], byt["broadcast"])
	}
	return t
}

// E4 regenerates the replication/index-size figure.
func E4(sc Scale) *Table {
	t := &Table{
		ID:      "E4",
		Title:   fmt.Sprintf("Index replication and footprint, τ=0.8, k=%d", sc.Workers),
		Columns: []string{"profile", "framework", "stored copies/rec", "postings"},
		Notes:   "paper shape: length-based stores each record exactly once; prefix-based replicates by prefix fan-out",
	}
	p := jaccard(0.8)
	for _, prof := range []workload.Profile{workload.AOLLike(sc.Seed), workload.TweetLike(sc.Seed)} {
		recs := genProfile(prof, sc.Records)
		for _, dist := range frameworks {
			name := dist.String()
			res := runTopology(sc, recs, strategyFor(dist, p, recs, sc.Workers), p, sc.Workers, local.Prefix, nil)
			var postings uint64
			for _, c := range res.WorkerCosts {
				postings += c.Postings
			}
			t.AddRow(prof.Name, name,
				float64(res.StoredCopies)/float64(len(recs)), postings)
		}
	}
	return t
}

// E10 regenerates the latency figure.
func E10(sc Scale) *Table {
	t := &Table{
		ID:      "E10",
		Title:   fmt.Sprintf("Per-record processing latency, AOL-like, τ=0.8, k=%d", sc.Workers),
		Columns: []string{"framework", "mean", "p50", "p99", "max"},
		Notes:   "paper shape: length-based has the lowest latency (no replicated work on the critical path)",
	}
	recs := genProfile(workload.AOLLike(sc.Seed), sc.Records)
	p := jaccard(0.8)
	for _, dist := range frameworks {
		name := dist.String()
		res := runTopology(sc, recs, strategyFor(dist, p, recs, sc.Workers), p, sc.Workers, local.Bundled, nil)
		l := &res.Latency
		t.AddRow(name,
			l.Mean().Round(time.Microsecond).String(),
			l.Quantile(0.5).Round(time.Microsecond).String(),
			l.Quantile(0.99).Round(time.Microsecond).String(),
			l.Max().Round(time.Microsecond).String())
	}
	return t
}

// E11 regenerates the window-size sweep.
func E11(sc Scale) *Table {
	t := &Table{
		ID:      "E11",
		Title:   fmt.Sprintf("Window size sweep, AOL-like, τ=0.8, k=%d, length-based", sc.Workers),
		Columns: []string{"window", "throughput rec/s", "results", "postings live"},
		Notes:   "larger windows keep more partners joinable: more results, larger index, lower throughput",
	}
	recs := genProfile(workload.AOLLike(sc.Seed), sc.Records)
	p := jaccard(0.8)
	wins := []window.Policy{
		window.Count{N: int64(sc.Records / 20)},
		window.Count{N: int64(sc.Records / 4)},
		window.Count{N: int64(sc.Records)},
		window.Unbounded{},
	}
	for _, win := range wins {
		strat := strategyFor(ssjoin.LengthBased, p, recs, sc.Workers)
		res := runTopology(sc, recs, strat, p, sc.Workers, local.Bundled, win)
		var postings uint64
		for _, c := range res.WorkerCosts {
			postings += c.Postings
		}
		t.AddRow(win.String(), res.Throughput().PerSecond(), res.Results, postings)
	}
	return t
}

// E5 regenerates the partitioner-imbalance figure: estimated and realized
// load imbalance for the three length partitioners.
func E5(sc Scale) *Table {
	t := &Table{
		ID:      "E5",
		Title:   fmt.Sprintf("Length-partitioner imbalance (max/mean load), τ=0.8, k=%d", sc.Workers),
		Columns: []string{"profile", "partitioner", "est. imbalance", "realized imbalance", "comm tup/rec"},
		Notes:   "paper shape: load-aware ≈ 1; even-length and even-frequency degrade on skewed lengths; narrow intervals pay in probe fan-out (comm tup/rec)",
	}
	p := jaccard(0.8)
	for _, prof := range []workload.Profile{workload.TweetLike(sc.Seed), workload.EnronLike(sc.Seed)} {
		recs := genProfile(prof, sc.Records)
		h := histogramOf(recs)
		weights := partition.CostModel{Params: p}.Weights(h)
		parts := map[string]partition.Partition{
			"even-length":    partition.EvenLength(h.MaxLen(), sc.Workers),
			"even-frequency": partition.EvenFrequency(h, sc.Workers),
			"load-aware":     partition.LoadAware(weights, sc.Workers),
		}
		for _, name := range []string{"even-length", "even-frequency", "load-aware"} {
			part := parts[name]
			est := partition.Imbalance(part, weights)
			strat := lengthWith(p, part)
			res := runTopology(sc, recs, strat, p, sc.Workers, local.Prefix, nil)
			loads := make([]float64, len(res.WorkerCosts))
			for i, c := range res.WorkerCosts {
				loads[i] = float64(c.VerifySteps)
			}
			realized := metrics.SummarizeLoads(loads).Imbalance
			t.AddRow(prof.Name, name, est, realized, float64(res.CommTuples)/float64(len(recs)))
		}
	}
	return t
}

// E6 regenerates the partitioner throughput figure.
func E6(sc Scale) *Table {
	t := &Table{
		ID:      "E6",
		Title:   fmt.Sprintf("Throughput by length partitioner, ENRON-like, τ=0.8, k=%d", sc.Workers),
		Columns: []string{"partitioner", "throughput rec/s", "imbalance", "comm tup/rec"},
		Notes:   "paper shape: load-aware highest throughput because the slowest worker bounds the pipeline; imbalance and comm tup/rec are counts, rec/s one short run",
	}
	recs := genProfile(workload.EnronLike(sc.Seed), sc.Records/2)
	p := jaccard(0.8)
	h := histogramOf(recs)
	weights := partition.CostModel{Params: p}.Weights(h)
	parts := []struct {
		name string
		part partition.Partition
	}{
		{"even-length", partition.EvenLength(h.MaxLen(), sc.Workers)},
		{"even-frequency", partition.EvenFrequency(h, sc.Workers)},
		{"load-aware", partition.LoadAware(weights, sc.Workers)},
	}
	for _, pp := range parts {
		res := runTopology(sc, recs, lengthWith(p, pp.part), p, sc.Workers, local.Bundled, nil)
		t.AddRow(pp.name, res.Throughput().PerSecond(),
			metrics.SummarizeLoads(workerLoads(res)).Imbalance, float64(res.CommTuples)/float64(len(recs)))
	}
	return t
}

// lengthWith builds a length-based strategy over an explicit partition.
func lengthWith(p filter.Params, part partition.Partition) dispatch.LengthBased {
	return dispatch.NewLengthBased(p, part)
}

// E12 regenerates the similarity-function generality figure: the framework
// must behave consistently for Jaccard, Cosine and Dice.
func E12(sc Scale) *Table {
	t := &Table{
		ID:      "E12",
		Title:   fmt.Sprintf("Similarity-function generality, AOL-like, τ=0.8, k=%d, length-based", sc.Workers),
		Columns: []string{"function", "results", "throughput rec/s", "comm tup/rec"},
		Notes:   "result counts differ by function (different semantics); throughput stays in the same band",
	}
	recs := genProfile(workload.AOLLike(sc.Seed), sc.Records)
	for _, f := range []similarity.Func{similarity.Jaccard, similarity.Cosine, similarity.Dice} {
		p := filter.Params{Func: f, Threshold: 0.8}
		strat := strategyFor(ssjoin.LengthBased, p, recs, sc.Workers)
		res := runTopology(sc, recs, strat, p, sc.Workers, local.Bundled, nil)
		t.AddRow(f.String(), res.Results, res.Throughput().PerSecond(),
			float64(res.CommTuples)/float64(len(recs)))
	}
	return t
}
