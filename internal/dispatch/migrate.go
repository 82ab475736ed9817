package dispatch

import (
	"repro/internal/filter"
	"repro/internal/partition"
	"repro/internal/record"
)

// Migrating routes across a live length-repartition without losing results:
// records stored before the switch live where the old partition put them,
// so until the sliding window has fully turned over, probes must visit the
// union of old-partition and new-partition destinations. Once every
// pre-switch record has expired (TransitionLen records after SwitchSeq for
// a count window of that size), the old routes are dropped.
//
// Storage switches immediately: records arriving at or after SwitchSeq are
// stored at their new home. Each record still has exactly one home at any
// time, so result pairs are still emitted exactly once and Emits stays
// trivially true.
type Migrating struct {
	Old, New LengthBased
	// SwitchSeq is the first record ID stored under the new partition.
	SwitchSeq record.ID
	// TransitionLen is how many records after SwitchSeq the old routes
	// remain live — at least the count-window size (use the stream length
	// for unbounded windows; the transition then never ends, which is the
	// correct price of never evicting).
	TransitionLen int64
}

// NewMigrating builds a migrating strategy between two partitions sharing
// the same parameters.
func NewMigrating(old, new LengthBased, switchSeq record.ID, transitionLen int64) Migrating {
	return Migrating{Old: old, New: new, SwitchSeq: switchSeq, TransitionLen: transitionLen}
}

// Name implements Strategy.
func (Migrating) Name() string { return "length-migrating" }

// inTransition reports whether pre-switch records may still be live when
// record seq arrives.
func (m Migrating) inTransition(seq record.ID) bool {
	return int64(seq)-int64(m.SwitchSeq) <= m.TransitionLen
}

// Route implements Strategy.
func (m Migrating) Route(r *record.Record, k int, buf []int) []int {
	if r.ID < m.SwitchSeq {
		return m.Old.Route(r, k, buf)
	}
	buf = m.New.Route(r, k, buf)
	if m.inTransition(r.ID) {
		start := len(buf)
		tmp := m.Old.Route(r, k, nil)
		for _, w := range tmp {
			dup := false
			for _, seen := range buf[:start] {
				if seen == w {
					dup = true
					break
				}
			}
			if !dup {
				buf = append(buf, w)
			}
		}
	}
	return buf
}

// Stores implements Strategy: home is the partition active at arrival.
func (m Migrating) Stores(r *record.Record, task, k int) bool {
	if r.ID < m.SwitchSeq {
		return m.Old.Stores(r, task, k)
	}
	return m.New.Stores(r, task, k)
}

// Emits implements Strategy: every record has exactly one home, so pairs
// are unique without arbitration.
func (Migrating) Emits(r, s *record.Record, task, k int) bool { return true }

// PlanMigration builds a Migrating strategy from a refit: it keeps the old
// partition for already-stored records and adopts the new one from
// switchSeq on. windowN must be the count-window size (or the residual
// stream length when unbounded).
func PlanMigration(params filter.Params, old, new partition.Partition, switchSeq record.ID, windowN int64) Migrating {
	return NewMigrating(
		LengthBased{Params: params, Partition: old},
		LengthBased{Params: params, Partition: new},
		switchSeq, windowN,
	)
}
