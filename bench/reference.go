package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"

	"repro/internal/local"
	"repro/internal/record"
)

// reference is the expected result-pair count of a stream: after the
// open-loop pass's prefix and after the whole stream.
type reference struct {
	Records       int    `json:"records"`
	Prefix        int    `json:"prefix"`
	PrefixResults uint64 `json:"prefix_results"`
	Results       uint64 `json:"results"`
}

// computeReference joins the stream on one node with the Prefix algorithm,
// which shares no index code with the Bundle algorithm under test.
func computeReference(in *inputs) reference {
	j := local.New(local.Prefix, local.Options{Params: in.params, Window: in.win})
	ref := reference{Records: in.sz.Records, Prefix: in.sz.Preload + in.sz.Paced}
	var results uint64
	count := func(local.Match) { results++ }
	for i, r := range in.recs {
		if i == ref.Prefix {
			ref.PrefixResults = results
		}
		j.Step(r, true, count)
	}
	if ref.Prefix == len(in.recs) {
		ref.PrefixResults = results
	}
	ref.Results = results
	return ref
}

// pinSeeds are the seeds whose references are checked in.
var pinSeeds = []int64{42, 7}

// pinCheckRecords is how many leading records -pin compares pair for pair
// against the brute-force joiner.
const pinCheckRecords = 5000

// pins maps workload → seed → reference.
type pins map[string]map[string]reference

func pinsPath(spec *benchSpec) string { return filepath.Join(spec.root, "bench", "pins.json") }

func loadPins(spec *benchSpec) pins {
	p := pins{}
	raw, err := os.ReadFile(pinsPath(spec))
	if err != nil {
		return p // unpinned: every run computes its reference
	}
	if err := json.Unmarshal(raw, &p); err != nil {
		return pins{}
	}
	return p
}

// lookup returns the pinned reference when it was made for exactly these
// sizes.
func (p pins) lookup(in *inputs, seed int64) (reference, bool) {
	ref, ok := p[in.job.name][strconv.FormatInt(seed, 10)]
	if !ok || ref.Records != in.sz.Records || ref.Prefix != in.sz.Preload+in.sz.Paced {
		return reference{}, false
	}
	return ref, true
}

// pairsOf joins recs on one node and returns the result pairs sorted, i.e.
// as a comparable multiset.
func pairsOf(alg local.Algorithm, in *inputs, recs []*record.Record) []record.Pair {
	j := local.New(alg, local.Options{Params: in.params, Window: in.win})
	var pairs []record.Pair
	for _, r := range recs {
		j.Step(r, true, func(m local.Match) {
			pairs = append(pairs, record.NewPair(r.ID, m.Rec.ID, 0))
		})
	}
	sort.Slice(pairs, func(a, b int) bool {
		if pairs[a].First != pairs[b].First {
			return pairs[a].First < pairs[b].First
		}
		return pairs[a].Second < pairs[b].Second
	})
	return pairs
}

// writePins recomputes every pin at full scale, first checking the Prefix
// reference itself against brute force on the head of each stream.
func writePins(spec *benchSpec) error {
	out := pins{}
	for i := range jobs {
		j := &jobs[i]
		out[j.name] = map[string]reference{}
		for _, seed := range pinSeeds {
			in, err := j.setUp(seed, 1)
			if err != nil {
				return err
			}
			in.close()
			head := in.recs
			if len(head) > pinCheckRecords {
				head = head[:pinCheckRecords]
			}
			got, want := pairsOf(local.Prefix, in, head), pairsOf(local.Naive, in, head)
			if len(got) != len(want) {
				return fmt.Errorf("%s seed %d: prefix found %d pairs on the first %d records, naive %d",
					j.name, seed, len(got), len(head), len(want))
			}
			for k := range got {
				if got[k] != want[k] {
					return fmt.Errorf("%s seed %d: pair %d differs: prefix %v, naive %v", j.name, seed, k, got[k], want[k])
				}
			}
			ref := computeReference(in)
			out[j.name][strconv.FormatInt(seed, 10)] = ref
			fmt.Printf("pinned %s seed %d: %d results (%d after %d records); first %d records agree with naive on %d pairs\n",
				j.name, seed, ref.Results, ref.PrefixResults, ref.Prefix, len(head), len(want))
		}
	}
	raw, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(pinsPath(spec), append(raw, '\n'), 0o644)
}
