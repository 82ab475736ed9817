// Package index implements the streaming prefix inverted index used by
// every local joiner: records are indexed under their prefix tokens, probes
// generate candidates with the length and position filters, and window
// eviction reclaims postings lazily so the hot path never scans dead
// records twice.
package index

import (
	"repro/internal/filter"
	"repro/internal/record"
	"repro/internal/tokens"
	"repro/internal/window"
)

// entry is one posting: a stored record and the position of the posting's
// token inside that record.
type entry struct {
	rec *record.Record
	pos int32
}

// Candidate is a probe result that survived the length and position
// filters. Overlap counts the matches accumulated during candidate
// generation; ResumeA/ResumeB are the merge positions verification should
// resume from (see similarity.VerifyOverlapFrom).
type Candidate struct {
	Rec              *record.Record
	Overlap          int
	ResumeA, ResumeB int
}

// Stats counts the work an index performed; the experiment harness reads
// them to report filtering cost.
type Stats struct {
	Inserted   uint64 // records indexed
	Evicted    uint64 // records expired from the window
	Postings   uint64 // live posting entries right now
	Scanned    uint64 // posting entries visited during probes
	Candidates uint64 // candidates produced (post length+position filter)
	LenPruned  uint64 // postings skipped by the length filter
	PosPruned  uint64 // candidates killed by the position filter
}

// Inverted is a single-writer streaming prefix index. It is not safe for
// concurrent use; in the distributed engine each worker bolt owns one.
type Inverted struct {
	params filter.Params
	win    window.Policy
	// noPositionFilter disables the position filter (ablation only).
	noPositionFilter bool

	posts map[tokens.Rank][]entry
	fifo  []*record.Record // arrival order, for eviction
	head  int              // first live fifo slot
	dead  map[record.ID]struct{}
	// remaining counts the postings still referencing a record so the dead
	// set can be pruned once lazy compaction drops the last one.
	remaining map[record.ID]int32

	stats Stats

	// probe-local scratch, reused across calls: cands holds each distinct
	// candidate's state in first-seen order, cand its index there.
	cand  map[record.ID]int32
	cands []candState
}

type candState struct {
	rec     *record.Record
	overlap int
	pi, pj  int
	pruned  bool
}

// New returns an empty index joining at the given parameters over the given
// window policy.
func New(p filter.Params, w window.Policy) *Inverted {
	return &Inverted{
		params:    p,
		win:       w,
		posts:     make(map[tokens.Rank][]entry),
		dead:      make(map[record.ID]struct{}),
		remaining: make(map[record.ID]int32),
		cand:      make(map[record.ID]int32),
	}
}

// Params returns the filter parameters the index was built with.
func (ix *Inverted) Params() filter.Params { return ix.params }

// DisablePositionFilter turns the position filter off; candidates then
// survive on the length filter alone. Exists for the DESIGN.md ablation —
// never disable it in production.
func (ix *Inverted) DisablePositionFilter() { ix.noPositionFilter = true }

// Stats returns a snapshot of the work counters.
func (ix *Inverted) Stats() Stats { return ix.stats }

// Size returns the number of live records currently indexed.
func (ix *Inverted) Size() int { return len(ix.fifo) - ix.head }

// Insert indexes r under its prefix tokens and registers it for eviction.
// The record must have tokens in ascending global-rank order.
func (ix *Inverted) Insert(r *record.Record) {
	p := ix.params.PrefixLen(r.Len())
	for i := 0; i < p; i++ {
		tok := r.Tokens[i]
		ix.posts[tok] = append(ix.posts[tok], entry{rec: r, pos: int32(i)})
	}
	ix.stats.Postings += uint64(p)
	ix.remaining[r.ID] = int32(p)
	ix.fifo = append(ix.fifo, r)
	ix.stats.Inserted++
}

// dropPosting bookkeeps the removal of one dead posting for id.
func (ix *Inverted) dropPosting(id record.ID) {
	ix.stats.Postings--
	if n := ix.remaining[id] - 1; n > 0 {
		ix.remaining[id] = n
	} else {
		delete(ix.remaining, id)
		delete(ix.dead, id)
	}
}

// Evict expires every stored record outside the window as observed by a
// current record with sequence nowSeq and event time nowTime. Postings are
// reclaimed lazily during probes; Evict only flips liveness and trims the
// FIFO.
func (ix *Inverted) Evict(nowSeq record.ID, nowTime int64) {
	for ix.head < len(ix.fifo) {
		r := ix.fifo[ix.head]
		if ix.win.Live(r.ID, r.Time, nowSeq, nowTime) {
			break
		}
		ix.dead[r.ID] = struct{}{}
		ix.fifo[ix.head] = nil
		ix.head++
		ix.stats.Evicted++
	}
	// Compact the FIFO once the dead prefix dominates.
	if ix.head > 64 && ix.head*2 > len(ix.fifo) {
		ix.fifo = append(ix.fifo[:0], ix.fifo[ix.head:]...)
		ix.head = 0
	}
	// Lazy probe-time compaction only reclaims postings that get scanned;
	// sweep everything once dead records dominate live ones.
	if live := ix.Size(); len(ix.dead) > 1024 && len(ix.dead) > 2*live {
		ix.sweep()
	}
}

// sweep removes every dead posting from every list in one pass.
func (ix *Inverted) sweep() {
	for tok, list := range ix.posts {
		w := 0
		for _, e := range list {
			if ix.alive(e.rec) {
				list[w] = e
				w++
			} else {
				ix.stats.Postings--
			}
		}
		if w == 0 {
			delete(ix.posts, tok)
		} else {
			ix.posts[tok] = list[:w]
		}
	}
	ix.dead = make(map[record.ID]struct{})
	ix.remaining = make(map[record.ID]int32)
	for i := ix.head; i < len(ix.fifo); i++ {
		r := ix.fifo[i]
		ix.remaining[r.ID] = int32(ix.params.PrefixLen(r.Len()))
	}
}

func (ix *Inverted) alive(r *record.Record) bool {
	_, d := ix.dead[r.ID]
	return !d
}

// Probe generates the candidates of r among live indexed records, applying
// the length filter per posting and the position filter per candidate. It
// does not verify; callers decide between one-by-one and batch
// verification. The callback receives each surviving candidate exactly
// once. Probe also compacts dead postings it encounters.
func (ix *Inverted) Probe(r *record.Record, emit func(Candidate)) {
	p := ix.params.PrefixLen(r.Len())
	la := r.Len()
	for i := 0; i < p; i++ {
		tok := r.Tokens[i]
		list, ok := ix.posts[tok]
		if !ok {
			continue
		}
		w := 0
		for _, e := range list {
			if !ix.alive(e.rec) {
				ix.dropPosting(e.rec.ID) // compact dead posting in place
				continue
			}
			list[w] = e
			w++
			ix.stats.Scanned++
			y := e.rec
			if y.ID == r.ID {
				continue
			}
			lb := y.Len()
			if !ix.params.LengthCompatible(la, lb) {
				ix.stats.LenPruned++
				continue
			}
			c, seen := ix.cand[y.ID]
			if !seen {
				ix.cand[y.ID] = int32(len(ix.cands))
				ix.cands = append(ix.cands, candState{rec: y})
				st := &ix.cands[len(ix.cands)-1]
				if !ix.noPositionFilter && !ix.params.PositionOK(la, lb, i, int(e.pos), 1) {
					st.pruned = true
					ix.stats.PosPruned++
					continue
				}
				st.overlap = 1
				st.pi, st.pj = i+1, int(e.pos)+1
				continue
			}
			st := &ix.cands[c]
			if st.pruned {
				continue
			}
			st.overlap++
			st.pi, st.pj = i+1, int(e.pos)+1
			if !ix.noPositionFilter && !ix.params.PositionOK(la, lb, i, int(e.pos), st.overlap) {
				st.pruned = true
				ix.stats.PosPruned++
			}
		}
		if w == 0 {
			delete(ix.posts, tok)
		} else {
			ix.posts[tok] = list[:w]
		}
	}
	for i := range ix.cands {
		st := &ix.cands[i]
		delete(ix.cand, st.rec.ID) // one delete per entry: clear would sweep the map's capacity
		if !st.pruned {
			ix.stats.Candidates++
			emit(Candidate{Rec: st.rec, Overlap: st.overlap, ResumeA: st.pi, ResumeB: st.pj})
		}
	}
	clear(ix.cands) // drop the record pointers
	ix.cands = ix.cands[:0]
}

// PostingsLen reports the current live+dead length of the posting list for
// tok; tests use it to observe lazy compaction.
func (ix *Inverted) PostingsLen(tok tokens.Rank) int { return len(ix.posts[tok]) }

// Dump visits every live stored record in arrival order; returning false
// stops the walk.
func (ix *Inverted) Dump(visit func(*record.Record) bool) {
	for i := ix.head; i < len(ix.fifo); i++ {
		if !visit(ix.fifo[i]) {
			return
		}
	}
}
