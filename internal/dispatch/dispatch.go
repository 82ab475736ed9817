// Package dispatch implements the record-distribution strategies that
// decide which workers receive each incoming record:
//
//   - LengthBased — the paper's framework. A worker owns a contiguous
//     record-length interval; an incoming record is multicast to every
//     worker whose interval intersects the record's compatible-length range
//     and is stored only at the single worker owning its own length. The
//     index is never replicated and the probe fan-out is small at high
//     thresholds.
//
//   - PrefixBased — the offline state of the art adapted to streams. A
//     record is replicated to the worker of every distinct hash of its
//     prefix tokens and stored at each; results are deduplicated by letting
//     only the owner of the pair's smallest common token emit.
//
//   - BroadcastBased — the naive baseline: every record probes every
//     worker and is stored at one chosen by hashing its ID.
//
// All strategies share the same worker protocol, which Task applies for
// both runtimes: every delivered record probes; Stores decides local
// indexing; Emits deduplicates results. This
// keeps completeness proofs local: a strategy is correct iff for every
// similar pair (r, s) with s stored somewhere r reaches s's worker, and
// exactly one worker emits.
package dispatch

import (
	"fmt"

	"repro/internal/filter"
	"repro/internal/partition"
	"repro/internal/record"
	"repro/internal/tokens"
)

// Strategy routes records to workers and arbitrates storage and result
// emission. Implementations must be stateless or read-only after
// construction: Route runs on the dispatcher, Stores and Emits run
// concurrently on every worker.
type Strategy interface {
	// Name identifies the strategy in reports.
	Name() string
	// Route appends the destination worker indices for r (deduplicated)
	// and returns the extended buffer. k is the worker count.
	Route(r *record.Record, k int, buf []int) []int
	// Stores reports whether worker task must index r.
	Stores(r *record.Record, task, k int) bool
	// Emits reports whether worker task owns the result pair (r, s) —
	// false suppresses duplicates on replicating strategies.
	Emits(r, s *record.Record, task, k int) bool
}

// ------------------------------------------------------------- length --

// LengthBased is the paper's length-based distribution framework.
type LengthBased struct {
	Params    filter.Params
	Partition partition.Partition
}

// NewLengthBased builds a length-based strategy over the given partition.
// The partition's worker count must match the topology's.
func NewLengthBased(p filter.Params, part partition.Partition) LengthBased {
	return LengthBased{Params: p, Partition: part}
}

// Name implements Strategy.
func (LengthBased) Name() string { return "length" }

// Route implements Strategy: the record visits every worker whose length
// interval intersects its compatible range.
func (s LengthBased) Route(r *record.Record, k int, buf []int) []int {
	lo, hi := s.Params.LengthBounds(r.Len())
	first, last := s.Partition.Overlapping(lo, hi)
	for w := first; w <= last && w < k; w++ {
		buf = append(buf, w)
	}
	return buf
}

// Stores implements Strategy: only the owner of the record's own length
// indexes it — no replication.
func (s LengthBased) Stores(r *record.Record, task, k int) bool {
	return s.Partition.WorkerOf(r.Len()) == task
}

// Emits implements Strategy: each stored record lives on one worker, so
// every pair is found exactly once.
func (LengthBased) Emits(r, s *record.Record, task, k int) bool { return true }

// ------------------------------------------------------------- prefix --

// PrefixBased replicates records along their prefix tokens, the way
// offline distributed prefix joins shard their token space.
type PrefixBased struct {
	Params filter.Params
}

// Name implements Strategy.
func (PrefixBased) Name() string { return "prefix" }

func tokenWorker(t tokens.Rank, k int) int {
	return int(tokens.SplitMix64(uint64(t)) % uint64(k))
}

// Route implements Strategy: one copy per distinct prefix-token worker.
func (s PrefixBased) Route(r *record.Record, k int, buf []int) []int {
	p := s.Params.PrefixLen(r.Len())
	start := len(buf)
	for i := 0; i < p; i++ {
		w := tokenWorker(r.Tokens[i], k)
		dup := false
		for _, seen := range buf[start:] {
			if seen == w {
				dup = true
				break
			}
		}
		if !dup {
			buf = append(buf, w)
		}
	}
	return buf
}

// Stores implements Strategy: every copy is indexed (this is the
// replication the length-based framework eliminates).
func (PrefixBased) Stores(r *record.Record, task, k int) bool { return true }

// Emits implements Strategy: only the worker owning the pair's smallest
// common token emits. For any similar pair that token is inside both
// prefixes, so the owning worker holds both records; every other worker
// suppresses the duplicate.
func (PrefixBased) Emits(r, s *record.Record, task, k int) bool {
	t, ok := firstCommon(r.Tokens, s.Tokens)
	if !ok {
		return false
	}
	return tokenWorker(t, k) == task
}

func firstCommon(a, b []tokens.Rank) (tokens.Rank, bool) {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			return a[i], true
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return 0, false
}

// ---------------------------------------------------------- broadcast --

// BroadcastBased sends every record to every worker and stores it at the
// worker hashed from its ID — the store-one-probe-all baseline.
type BroadcastBased struct{}

// Name implements Strategy.
func (BroadcastBased) Name() string { return "broadcast" }

// Route implements Strategy.
func (BroadcastBased) Route(r *record.Record, k int, buf []int) []int {
	for w := 0; w < k; w++ {
		buf = append(buf, w)
	}
	return buf
}

// Stores implements Strategy.
func (BroadcastBased) Stores(r *record.Record, task, k int) bool {
	return int(tokens.SplitMix64(uint64(r.ID))%uint64(k)) == task
}

// Emits implements Strategy: the stored partner exists on one worker only.
func (BroadcastBased) Emits(r, s *record.Record, task, k int) bool { return true }

// ParseStrategy builds the strategy named name ("length", "prefix" or
// "broadcast"); only "length" reads part. It is the one name→strategy
// switch: the engine, the remote coordinator and every worker build theirs
// through it.
func ParseStrategy(name string, p filter.Params, part partition.Partition) (Strategy, error) {
	switch name {
	case "length":
		return NewLengthBased(p, part), nil
	case "prefix":
		return PrefixBased{Params: p}, nil
	case "broadcast":
		return BroadcastBased{}, nil
	default:
		return nil, fmt.Errorf("dispatch: unknown strategy %q", name)
	}
}
