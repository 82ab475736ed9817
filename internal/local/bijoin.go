package local

import "repro/internal/record"

// BiJoiner joins two streams R and S: each incoming R-record is matched
// against the stored S-records and vice versa; same-side pairs are never
// reported. This is the data-integration shape (two sources feeding one
// matcher) built from two single-stream joiners: a record probes the
// opposite side's store and loads into its own side without probing.
type BiJoiner struct {
	left, right Joiner
	// tick is the empty record evictOwn steps the storing side with.
	tick record.Record
}

// NewBi builds a two-stream joiner; both sides share the algorithm and
// options.
func NewBi(a Algorithm, opt Options) *BiJoiner {
	return &BiJoiner{left: New(a, opt), right: New(a, opt)}
}

// StepLeft processes the next R-record: emits its matches among stored
// S-records, then stores it on the R side.
func (b *BiJoiner) StepLeft(r *record.Record, emit func(Match)) {
	b.StepSide(r, false, true, emit)
}

// StepRight processes the next S-record symmetrically.
func (b *BiJoiner) StepRight(r *record.Record, emit func(Match)) {
	b.StepSide(r, true, true, emit)
}

// StepSide is the distributed-worker entry point: probe the opposite side
// always, store on the record's own side only when store is true (the
// length-based framework stores each record at one worker only). Like
// Joiner.Step it returns the match count, and a nil emit only counts.
func (b *BiJoiner) StepSide(r *record.Record, right, store bool, emit func(Match)) int {
	own, opposite := b.sides(right)
	n := opposite.Step(r, false, emit) // probe + evict the opposite side
	if store {
		own.Load(r)
	}
	b.evictOwn(own, r)
	return n
}

// StepHits is StepRight (right) or StepLeft collecting through
// Joiner.StepHits: it appends r's matches to hits and returns the slice.
func (b *BiJoiner) StepHits(r *record.Record, right bool, hits []Hit) []Hit {
	own, opposite := b.sides(right)
	hits = opposite.StepHits(r, false, hits)
	own.Load(r)
	b.evictOwn(own, r)
	return hits
}

// sides returns r's own side and the opposite one, r being on the right
// side when right is set.
func (b *BiJoiner) sides(right bool) (own, opposite Joiner) {
	if right {
		return b.right, b.left
	}
	return b.left, b.right
}

// evictOwn advances the window of the side that just stored a record;
// Step already evicts the probed side, but the storing side would
// otherwise only age when probed by the opposite stream.
func (b *BiJoiner) evictOwn(j Joiner, r *record.Record) {
	// Step with an impossible record would be wasteful; all three joiners
	// expose eviction through Step's probe path, so the cheapest correct
	// trigger is a probe with an empty record, which generates no
	// candidates. The record is b's own, so the step allocates nothing.
	b.tick.ID, b.tick.Time = r.ID, r.Time
	j.Step(&b.tick, false, nil)
}

// SizeLeft and SizeRight report per-side stored counts.
func (b *BiJoiner) SizeLeft() int { return b.left.Size() }

// SizeRight reports the S-side stored count.
func (b *BiJoiner) SizeRight() int { return b.right.Size() }

// Cost returns both sides' work counters summed.
func (b *BiJoiner) Cost() Cost { return b.left.Cost().Add(b.right.Cost()) }

// LoadSide stores r on one side without probing — the restore path.
func (b *BiJoiner) LoadSide(r *record.Record, right bool) {
	if right {
		b.right.Load(r)
	} else {
		b.left.Load(r)
	}
}

// DumpSides visits every live stored record with its side, left side first
// (each side in arrival order); returning false stops the walk.
func (b *BiJoiner) DumpSides(visit func(r *record.Record, right bool) bool) {
	stopped := false
	b.left.Dump(func(r *record.Record) bool {
		if !visit(r, false) {
			stopped = true
			return false
		}
		return true
	})
	if stopped {
		return
	}
	b.right.Dump(func(r *record.Record) bool { return visit(r, true) })
}
