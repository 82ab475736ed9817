package ssjoin

import (
	"fmt"

	"repro/internal/offline"
	"repro/internal/record"
)

// JoinBatch computes all pairs with similarity >= the threshold within a
// static dataset — the offline AllPairs/PPJoin-style baseline. Record IDs
// in the returned pairs are positions in sets. Windows do not apply to
// batch joins; setting one is an error. Algorithm and bundle options are
// ignored (the offline join has its own, tighter, indexing strategy).
func JoinBatch(sets [][]uint32, cfg Config) ([]Pair, error) {
	params, _, _, _, err := cfg.build()
	if err != nil {
		return nil, err
	}
	if cfg.WindowRecords != 0 || cfg.WindowTicks != 0 {
		return nil, fmt.Errorf("ssjoin: windows do not apply to JoinBatch")
	}
	recs := make([]*record.Record, len(sets))
	for i, set := range sets {
		recs[i] = &record.Record{ID: record.ID(i), Tokens: ownedSet(set)}
	}
	pairs, _ := offline.JoinAll(recs, params)
	out := make([]Pair, len(pairs))
	for i, p := range pairs {
		out[i] = Pair{A: uint64(p.A), B: uint64(p.B), Similarity: p.Sim}
	}
	return out, nil
}
