package experiments

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"repro/internal/bundle"
	"repro/internal/local"
	"repro/internal/workload"
)

// E23 is the verification-organization sweep: the bundle joiner run in
// collect, tree, and auto verify modes over the E20/E21 workloads
// (long-record enron-like streams at two thresholds plus the
// duplicate-heavy tweet-like stream). Every mode emits byte-identical
// results by construction, so the sweep folds each run's match stream
// into an order-sensitive FNV hash and panics on any divergence — the
// perf comparison is wrapped around a hard parity assertion, like E21's
// kernel sweep. The "vs-collect" column is the verified-candidate
// reduction the filter-and-verification tree achieves by pruning whole
// subtrees (pruned/avoided columns) before any member is materialized;
// "sig-skipped" counts what the signature bound rejected before any merge —
// candidate bundles in collect probes, anchored members in tree probes.
func E23(sc Scale) *Table {
	t := &Table{
		ID:      "E23",
		Title:   "Candidate-free verification: collect vs tree vs auto (extension)",
		Columns: []string{"profile", "verify", "rec/s", "checks", "verified", "vs-collect", "sig-skipped", "pruned", "avoided", "results"},
		Notes:   "bundle joiner, single worker; match streams are hashed in emission order and must be identical across modes (the run panics otherwise); vs-collect is the reduction in verified candidates; sig-skipped counts bundles (collect probes) and anchored members (tree probes) rejected by the signature bound; pruned counts subtrees discarded by tree-node filters, avoided the candidate members inside them",
	}
	profiles := []struct {
		name string
		prof workload.Profile
		tau  float64
	}{
		{"enron-like t0.7", workload.EnronLike(sc.Seed), 0.7},
		{"enron-like t0.8", workload.EnronLike(sc.Seed), 0.8},
		{"tweet-like t0.7", workload.TweetLike(sc.Seed), 0.7},
	}
	modes := []bundle.VerifyMode{bundle.VerifyCollect, bundle.VerifyTree, bundle.VerifyAuto}
	for _, pr := range profiles {
		recs := genProfile(pr.prof, sc.Records)
		p := jaccard(pr.tau)
		var (
			wantHash     uint64
			baseVerified uint64
			haveBase     bool
		)
		for _, vm := range modes {
			cfg := bundle.Config{Kernel: sc.Kernel, VerifyMode: vm}
			j := local.New(local.Bundled, local.Options{Params: p, Bundle: cfg})
			h := fnv.New64a()
			var buf [8]byte
			var results uint64
			start := time.Now()
			for _, r := range recs {
				j.Step(r, true, func(m local.Match) {
					results++
					binary.LittleEndian.PutUint64(buf[:], uint64(m.Rec.ID))
					h.Write(buf[:])
					binary.LittleEndian.PutUint64(buf[:], uint64(m.Overlap))
					h.Write(buf[:])
					binary.LittleEndian.PutUint64(buf[:], math.Float64bits(m.Sim))
					h.Write(buf[:])
				})
				// Fold the probe boundary in, so per-record grouping of the
				// stream is part of the identity, not just the flat sequence.
				binary.LittleEndian.PutUint64(buf[:], uint64(r.ID))
				h.Write(buf[:])
			}
			elapsed := time.Since(start)
			st := j.(interface{ BundleStats() bundle.Stats }).BundleStats()
			sum := h.Sum64()
			if !haveBase {
				wantHash, baseVerified, haveBase = sum, st.Verified, true
			} else if sum != wantHash {
				panic(fmt.Sprintf("experiments: E23 verify mode %v on %s diverged from collect (stream hash %016x != %016x) — modes must emit byte-identical results",
					vm, pr.name, sum, wantHash))
			}
			vs := "—"
			if vm != bundle.VerifyCollect && baseVerified > 0 {
				vs = fmt.Sprintf("-%.1f%%", 100*(1-float64(st.Verified)/float64(baseVerified)))
			}
			t.AddRow(pr.name, vm.String(), float64(len(recs))/elapsed.Seconds(),
				st.MemberChecks, st.Verified, vs, st.BundleSigSkip+st.TreeSigSkip,
				st.TreeSubtreesPruned, st.TreeCandsAvoided, results)
		}
	}
	return t
}
