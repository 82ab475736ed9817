package experiments

import (
	"fmt"
	"time"

	"repro/internal/bundle"
	"repro/internal/local"
	"repro/internal/record"
	"repro/internal/workload"
)

// runLocal drives one local joiner over the stream and measures its work
// and wall time.
func runLocal(recs []*record.Record, j local.Joiner) (local.Cost, time.Duration, uint64) {
	var results uint64
	start := time.Now()
	for _, r := range recs {
		j.Step(r, true, func(local.Match) { results++ })
	}
	return j.Cost(), time.Since(start), results
}

// E7 regenerates the bundle-join figure: filtering and verification work of
// the bundle joiner against the record-at-a-time prefix joiner (and the
// naive reference) on a duplicate-heavy stream.
func E7(sc Scale) *Table {
	t := &Table{
		ID:      "E7",
		Title:   "Bundle join vs record-at-a-time, AOL-like (short, duplicate-heavy), τ=0.8",
		Columns: []string{"algorithm", "candidates", "verify-steps", "results", "throughput rec/s", "postings"},
		Notes:   "paper shape: bundling reduces filtering cost (fewer candidates+postings) and verification steps at equal results",
	}
	recs := genProfile(workload.AOLLike(sc.Seed), sc.Records)
	p := jaccard(0.8)
	for _, alg := range []local.Algorithm{local.Naive, local.Prefix, local.Bundled} {
		j := local.New(alg, local.Options{Params: p})
		cost, elapsed, results := runLocal(recs, j)
		t.AddRow(alg.String(), cost.Candidates, cost.VerifySteps, results,
			float64(len(recs))/elapsed.Seconds(), cost.Postings)
	}
	return t
}

// E8 regenerates the batch-verification ablation: identical bundles, with
// and without token-difference sharing, on Tweet-like records first — the
// stream whose records still verify in bundles — and AOL-like below it.
func E8(sc Scale) *Table {
	t := &Table{
		ID:      "E8",
		Title:   "Batch verification vs one-by-one, Tweet-like and AOL-like, τ=0.8, bundle joiner",
		Columns: []string{"verification", "verify-steps", "results", "throughput rec/s", "steps saved", "stream"},
		Notes:   "paper shape: sharing the core merge across a bundle's members cuts verification cost; results identical. On AOL-like nearly every record has at most 7 tokens and joins by set lookup in both modes, so few reach a merge",
	}
	p := jaccard(0.8)
	type outcome struct {
		steps, results uint64
		rate           float64
	}
	for _, prof := range []workload.Profile{workload.TweetLike(sc.Seed), workload.AOLLike(sc.Seed)} {
		recs := genProfile(prof, sc.Records)
		run := func(oneByOne bool) outcome {
			j := local.New(local.Bundled, local.Options{
				Params: p,
				Bundle: bundle.Config{OneByOneVerify: oneByOne},
			})
			cost, elapsed, results := runLocal(recs, j)
			return outcome{cost.VerifySteps, results, float64(len(recs)) / elapsed.Seconds()}
		}
		single := run(true)
		batch := run(false)
		saved := 0.0
		if single.steps > 0 {
			saved = 1 - float64(batch.steps)/float64(single.steps)
		}
		t.AddRow("one-by-one", single.steps, single.results, single.rate, "—", prof.Name)
		t.AddRow("batch (core+delta)", batch.steps, batch.results, batch.rate,
			fmt.Sprintf("%.1f%%", 100*saved), prof.Name)
	}
	return t
}

// E9 regenerates the grouping-threshold sweep: how aggressively records are
// bundled trades filtering savings against core maintenance.
func E9(sc Scale) *Table {
	t := &Table{
		ID:      "E9",
		Title:   "Bundle grouping threshold λ sweep, AOL-like, τ=0.8",
		Columns: []string{"lambda", "bundles", "appends", "max-bundle", "postings", "verify-steps", "throughput rec/s"},
		Notes:   "λ=τ groups most; λ>1 disables grouping (degenerates to record-at-a-time bundles of one)",
	}
	recs := genProfile(workload.AOLLike(sc.Seed), sc.Records)
	p := jaccard(0.8)
	for _, lambda := range []float64{0.8, 0.85, 0.9, 0.95, 1.01} {
		j := local.New(local.Bundled, local.Options{
			Params: p,
			Bundle: bundle.Config{GroupThreshold: lambda},
		})
		cost, elapsed, _ := runLocal(recs, j)
		bj := j.(interface{ BundleStats() bundle.Stats })
		st := bj.BundleStats()
		t.AddRow(lambda, st.Bundles, st.Appends, st.MaxBundleSize, cost.Postings,
			cost.VerifySteps, float64(len(recs))/elapsed.Seconds())
	}
	return t
}

// E9b sweeps the bundle-size cap at λ=τ — the second bundling knob the
// design calls out: small caps limit core maintenance but fragment
// duplicate clusters across bundles.
func E9b(sc Scale) *Table {
	t := &Table{
		ID:      "E9b",
		Title:   "Bundle MaxMembers sweep, AOL-like, τ=0.8, λ=τ",
		Columns: []string{"max-members", "bundles", "appends", "postings", "verify-steps", "throughput rec/s"},
		Notes:   "copies of a set of up to 7 tokens share twin entries of up to the cap, found by one lookup; longer copies past the cap fill a fresh bundle (ties go to the newest partner), so caps past 32 save little verification; 64 bounds worst-case core-maintenance cost",
	}
	recs := genProfile(workload.AOLLike(sc.Seed), sc.Records)
	p := jaccard(0.8)
	for _, maxM := range []int{2, 8, 32, 64, 256} {
		j := local.New(local.Bundled, local.Options{
			Params: p,
			Bundle: bundle.Config{MaxMembers: maxM},
		})
		cost, elapsed, _ := runLocal(recs, j)
		st := j.(interface{ BundleStats() bundle.Stats }).BundleStats()
		t.AddRow(maxM, st.Bundles, st.Appends, cost.Postings,
			cost.VerifySteps, float64(len(recs))/elapsed.Seconds())
	}
	return t
}
