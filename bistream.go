package ssjoin

import (
	"io"

	"repro/internal/checkpoint"
	"repro/internal/local"
	"repro/internal/record"
)

// BiStream joins two record streams R and S online: each AddLeft reports
// matches among stored right-side records and vice versa; same-side pairs
// are never reported. The canonical use is data integration — two sources
// feeding one matcher. IDs are assigned from one shared counter, so
// windows span both sides (WindowRecords counts arrivals on either side).
// The order of matches within one call is unspecified; sort by ID if you
// need one.
type BiStream struct {
	cfg     Config
	bi      *local.BiJoiner
	nextID  record.ID
	tick    int64
	scratch []Match
}

// NewBiStream validates cfg and returns an empty two-stream joiner.
func NewBiStream(cfg Config) (*BiStream, error) {
	params, win, alg, bcfg, err := cfg.build()
	if err != nil {
		return nil, err
	}
	return &BiStream{
		cfg: cfg,
		bi:  local.NewBi(alg, local.Options{Params: params, Window: win, Bundle: bcfg}),
	}, nil
}

func (b *BiStream) add(tokenSet []uint32, left bool) (uint64, []Match) {
	return b.addRecord(&record.Record{ID: b.nextID, Time: b.tick, Tokens: ownedSet(tokenSet)}, left)
}

// addRecord joins r, which already carries the next ID and tick and a
// sorted, deduplicated token set it owns, against the other side.
func (b *BiStream) addRecord(r *record.Record, left bool) (uint64, []Match) {
	b.nextID++
	b.tick++
	b.scratch = b.scratch[:0]
	emit := func(m local.Match) {
		b.scratch = append(b.scratch, Match{
			ID:         uint64(m.ID),
			Overlap:    m.Overlap,
			Similarity: m.Sim,
		})
	}
	if left {
		b.bi.StepLeft(r, emit)
	} else {
		b.bi.StepRight(r, emit)
	}
	return uint64(r.ID), b.scratch
}

// AddLeft ingests the next R-record and returns its ID plus matches among
// in-window S-records. The match slice is reused by the next Add call.
func (b *BiStream) AddLeft(tokenSet []uint32) (id uint64, matches []Match) {
	return b.add(tokenSet, true)
}

// AddRight ingests the next S-record and returns its matches among
// in-window R-records.
func (b *BiStream) AddRight(tokenSet []uint32) (id uint64, matches []Match) {
	return b.add(tokenSet, false)
}

// SizeLeft and SizeRight report the stored record counts per side.
func (b *BiStream) SizeLeft() int { return b.bi.SizeLeft() }

// SizeRight reports the stored S-side record count.
func (b *BiStream) SizeRight() int { return b.bi.SizeRight() }

// WriteSnapshot persists both sides' window state and the stream cursor;
// restore with RestoreBiStream using the same Config.
func (b *BiStream) WriteSnapshot(w io.Writer) error {
	return checkpoint.WriteBi(w, checkpoint.Cursor{
		NextID:   uint64(b.nextID),
		NextTime: b.tick,
	}, b.bi)
}

// RestoreBiStream reconstructs a BiStream from a snapshot produced by
// BiStream.WriteSnapshot.
func RestoreBiStream(r io.Reader, cfg Config) (*BiStream, error) {
	b, err := NewBiStream(cfg)
	if err != nil {
		return nil, err
	}
	cur, _, err := checkpoint.ReadBi(r, b.bi)
	if err != nil {
		return nil, err
	}
	b.nextID = record.ID(cur.NextID)
	b.tick = cur.NextTime
	return b, nil
}
