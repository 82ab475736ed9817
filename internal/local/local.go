// Package local provides the per-worker streaming join algorithms behind a
// single Joiner interface: a brute-force Naive joiner (testing baseline and
// cost-model anchor), a Prefix joiner (inverted prefix index with length,
// position and optional suffix filters — the record-at-a-time
// state of the art), and a Bundle joiner (the paper's bundle-based
// algorithm with batch verification).
//
// The distributed layer hosts exactly one Joiner per worker; the length-
// based framework drives it with store=true at the record's home worker and
// store=false elsewhere.
package local

import (
	"fmt"

	"repro/internal/bundle"
	"repro/internal/filter"
	"repro/internal/index"
	"repro/internal/record"
	"repro/internal/similarity"
	"repro/internal/window"
)

// Match is a verified join result emitted by a Joiner: the bundle index's
// own match type, so the Bundled joiner hands the caller's emit straight to
// the probe. ID is always Rec.ID; a consumer that only pairs IDs reads it
// and leaves the partner record alone.
type Match = bundle.Match

// Hit is a match as the single-node streams return it: the partner's ID,
// overlap and similarity, no record.
type Hit = bundle.Hit

// Cost summarizes the work a joiner performed, in comparable units across
// algorithms. The load-aware partitioner and the experiment harness consume
// it.
type Cost struct {
	Probes       uint64 // Step calls
	Stored       uint64 // records stored
	Scanned      uint64 // postings / stored records visited
	Candidates   uint64 // pairs surviving candidate-time filters
	Verified     uint64 // pairs fully verified
	Results      uint64 // matches found
	VerifySteps  uint64 // merge iterations spent in verification
	Postings     uint64 // live posting entries (index footprint)
	SuffixPruned uint64 // candidates killed by the suffix filter
}

// Add returns the field-wise sum of c and o.
func (c Cost) Add(o Cost) Cost {
	return Cost{
		Probes: c.Probes + o.Probes, Stored: c.Stored + o.Stored,
		Scanned: c.Scanned + o.Scanned, Candidates: c.Candidates + o.Candidates,
		Verified: c.Verified + o.Verified, Results: c.Results + o.Results,
		VerifySteps: c.VerifySteps + o.VerifySteps, Postings: c.Postings + o.Postings,
		SuffixPruned: c.SuffixPruned + o.SuffixPruned,
	}
}

// RealizedLoad is the unit every realized-imbalance report divides: merge
// steps spent verifying (union bounds included) plus postings or stored
// records walked. It is a count, so it repeats exactly per input, and only
// a proxy for time: a containment-regime lookup costs time but adds
// nothing to it.
func (c Cost) RealizedLoad() uint64 { return c.VerifySteps + c.Scanned }

// Joiner is a single-threaded streaming set-similarity self-join operator.
type Joiner interface {
	// Step advances the stream to r: expire out-of-window state, find every
	// stored match of r, and store r when store is true. It hands each match
	// to emit and returns how many it found. A nil emit only counts them:
	// no Match is built, and the Bundled joiner counts a twin entry's
	// copies by its length.
	Step(r *record.Record, store bool, emit func(Match)) int
	// StepHits is Step appending each match to hits as a Hit; it returns
	// the grown slice. The Bundled joiner writes each hit once, from the
	// probe's own loops.
	StepHits(r *record.Record, store bool, hits []Hit) []Hit
	// Size reports the number of records currently stored.
	Size() int
	// Cost reports accumulated work counters.
	Cost() Cost
	// Name identifies the algorithm in reports.
	Name() string
	// Dump visits every live stored record in arrival order; returning
	// false stops the walk. Checkpointing uses it.
	Dump(visit func(*record.Record) bool)
	// Load stores r without emitting matches — the restore path. Records
	// must be loaded in their original arrival order.
	Load(r *record.Record)
	// Evict drops the stored records that are out of the window at the
	// stream position (id, time), as Step does before it probes; it probes
	// nothing and counts no probe.
	Evict(id record.ID, time int64)
}

// Algorithm selects a Joiner implementation.
type Algorithm int

const (
	// Naive scans every stored record and verifies length-compatible ones.
	Naive Algorithm = iota
	// Prefix is the record-at-a-time prefix-filter joiner.
	Prefix
	// Bundled is the bundle-based joiner with batch verification.
	Bundled
)

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	switch a {
	case Naive:
		return "naive"
	case Prefix:
		return "prefix"
	case Bundled:
		return "bundle"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// ParseAlgorithm converts a name produced by String back to an Algorithm.
func ParseAlgorithm(name string) (Algorithm, error) {
	switch name {
	case "naive":
		return Naive, nil
	case "prefix":
		return Prefix, nil
	case "bundle":
		return Bundled, nil
	default:
		return 0, fmt.Errorf("local: unknown algorithm %q", name)
	}
}

// Options configures a Joiner.
type Options struct {
	Params filter.Params
	Window window.Policy
	// Bundle tunes the Bundled algorithm; ignored otherwise.
	Bundle bundle.Config
	// SuffixFilter enables the recursive suffix filter as a deep prune
	// between candidate generation and verification (Prefix algorithm
	// only). SuffixDepth bounds the recursion (default 2 when enabled).
	SuffixFilter bool
	SuffixDepth  int
}

// New constructs the requested joiner.
func New(a Algorithm, opt Options) Joiner {
	if opt.Window == nil {
		opt.Window = window.Unbounded{}
	}
	switch a {
	case Naive:
		return newNaive(opt)
	case Prefix:
		return newPrefix(opt)
	case Bundled:
		return newBundled(opt)
	default:
		panic(fmt.Sprintf("local: unknown algorithm %d", int(a)))
	}
}

// ---------------------------------------------------------------- naive --

type naiveJoiner struct {
	params filter.Params
	win    window.Policy
	store  []*record.Record
	head   int
	cost   Cost
}

func newNaive(opt Options) *naiveJoiner {
	return &naiveJoiner{params: opt.Params, win: opt.Window}
}

func (n *naiveJoiner) Name() string { return "naive" }
func (n *naiveJoiner) Size() int    { return len(n.store) - n.head }
func (n *naiveJoiner) Cost() Cost   { return n.cost }

// StepHits implements Joiner.
func (n *naiveJoiner) StepHits(r *record.Record, store bool, hits []Hit) []Hit {
	return stepHits(n, r, store, hits)
}

// stepHits is StepHits for the joiners that collect through Step's emit.
func stepHits(j Joiner, r *record.Record, store bool, hits []Hit) []Hit {
	j.Step(r, store, func(m Match) {
		hits = append(hits, Hit{ID: uint64(m.ID), Overlap: m.Overlap, Similarity: m.Sim})
	})
	return hits
}

// Dump implements Joiner.
func (n *naiveJoiner) Dump(visit func(*record.Record) bool) {
	for _, r := range n.store[n.head:] {
		if !visit(r) {
			return
		}
	}
}

// Load implements Joiner.
func (n *naiveJoiner) Load(r *record.Record) {
	n.store = append(n.store, r)
	n.cost.Stored++
}

// Evict implements Joiner.
func (n *naiveJoiner) Evict(id record.ID, time int64) {
	for n.head < len(n.store) {
		s := n.store[n.head]
		if n.win.Live(s.ID, s.Time, id, time) {
			break
		}
		n.store[n.head] = nil
		n.head++
	}
	if n.head > 64 && n.head*2 > len(n.store) {
		n.store = append(n.store[:0], n.store[n.head:]...)
		n.head = 0
	}
}

func (n *naiveJoiner) Step(r *record.Record, store bool, emit func(Match)) int {
	n.cost.Probes++
	found := n.cost.Results
	n.Evict(r.ID, r.Time)
	for _, s := range n.store[n.head:] {
		n.cost.Scanned++
		if s.ID == r.ID || !n.params.LengthCompatible(r.Len(), s.Len()) {
			continue
		}
		n.cost.Candidates++
		req := n.params.RequiredOverlap(r.Len(), s.Len())
		o, steps := similarity.IntersectSizeLinear(r.Tokens, s.Tokens)
		n.cost.VerifySteps += uint64(steps)
		n.cost.Verified++
		if o >= req {
			n.cost.Results++
			if emit != nil {
				emit(Match{Rec: s, ID: s.ID, Overlap: o,
					Sim: similarity.FromOverlap(n.params.Func, o, r.Len(), s.Len())})
			}
		}
	}
	if store {
		n.store = append(n.store, r)
		n.cost.Stored++
	}
	return int(n.cost.Results - found)
}

// --------------------------------------------------------------- prefix --

type prefixJoiner struct {
	params      filter.Params
	ix          *index.Inverted
	cost        Cost
	suffixDepth int // 0 disables the suffix filter
}

func newPrefix(opt Options) *prefixJoiner {
	depth := 0
	if opt.SuffixFilter {
		depth = opt.SuffixDepth
		if depth <= 0 {
			depth = 2
		}
	}
	return &prefixJoiner{
		params:      opt.Params,
		ix:          index.New(opt.Params, opt.Window),
		suffixDepth: depth,
	}
}

func (p *prefixJoiner) Name() string { return "prefix" }
func (p *prefixJoiner) Size() int    { return p.ix.Size() }

// StepHits implements Joiner.
func (p *prefixJoiner) StepHits(r *record.Record, store bool, hits []Hit) []Hit {
	return stepHits(p, r, store, hits)
}

// Dump implements Joiner.
func (p *prefixJoiner) Dump(visit func(*record.Record) bool) { p.ix.Dump(visit) }

// Load implements Joiner.
func (p *prefixJoiner) Load(r *record.Record) { p.ix.Insert(r) }

// Evict implements Joiner.
func (p *prefixJoiner) Evict(id record.ID, time int64) { p.ix.Evict(id, time) }

func (p *prefixJoiner) Cost() Cost {
	st := p.ix.Stats()
	c := p.cost
	c.Scanned = st.Scanned
	c.Candidates = st.Candidates
	c.Stored = st.Inserted
	c.Postings = st.Postings
	return c
}

func (p *prefixJoiner) Step(r *record.Record, store bool, emit func(Match)) int {
	p.cost.Probes++
	found := p.cost.Results
	p.ix.Evict(r.ID, r.Time)
	la := r.Len()
	p.ix.Probe(r, func(c index.Candidate) {
		req := p.params.RequiredOverlap(la, c.Rec.Len())
		if p.suffixDepth > 0 &&
			!p.params.SuffixOK(r.Tokens, c.Rec.Tokens, c.ResumeA, c.ResumeB, c.Overlap, p.suffixDepth) {
			p.cost.SuffixPruned++
			return
		}
		o, steps, ok := similarity.VerifyOverlapLinear(r.Tokens, c.Rec.Tokens, c.ResumeA, c.ResumeB, c.Overlap, req)
		p.cost.VerifySteps += uint64(steps)
		p.cost.Verified++
		if ok {
			p.cost.Results++
			if emit != nil {
				emit(Match{Rec: c.Rec, ID: c.Rec.ID, Overlap: o,
					Sim: similarity.FromOverlap(p.params.Func, o, la, c.Rec.Len())})
			}
		}
	})
	if store {
		p.ix.Insert(r)
	}
	return int(p.cost.Results - found)
}

// --------------------------------------------------------------- bundle --

type bundledJoiner struct {
	params filter.Params
	bx     *bundle.Index
	probes uint64
	stored uint64
}

func newBundled(opt Options) *bundledJoiner {
	return &bundledJoiner{params: opt.Params, bx: bundle.New(opt.Params, opt.Window, opt.Bundle)}
}

func (b *bundledJoiner) Name() string { return "bundle" }
func (b *bundledJoiner) Size() int    { return int(b.bx.Stats().LiveMembers) }

// BundleStats exposes the underlying bundle index counters for ablation
// experiments; it is only present on the Bundled joiner.
func (b *bundledJoiner) BundleStats() bundle.Stats { return b.bx.Stats() }

// Dump implements Joiner.
func (b *bundledJoiner) Dump(visit func(*record.Record) bool) { b.bx.Dump(visit) }

// Evict implements Joiner.
func (b *bundledJoiner) Evict(id record.ID, time int64) { b.bx.Evict(id, time) }

// Load implements Joiner: a silent probe rebuilds the bundle grouping the
// record had (or better) without emitting matches.
func (b *bundledJoiner) Load(r *record.Record) {
	best, _ := b.bx.Probe(r, nil)
	b.bx.Insert(r, best)
	b.stored++
}

func (b *bundledJoiner) Cost() Cost {
	st := b.bx.Stats()
	return Cost{
		Probes:      b.probes,
		Stored:      b.stored,
		Scanned:     st.Scanned,
		Candidates:  st.MemberChecks,
		Verified:    st.Verified,
		Results:     st.Results,
		VerifySteps: st.VerifySteps + st.UnionSteps,
		Postings:    st.Postings,
	}
}

func (b *bundledJoiner) Step(r *record.Record, store bool, emit func(Match)) int {
	b.probes++
	b.bx.Evict(r.ID, r.Time)
	found := b.bx.Results()
	best, _ := b.bx.Probe(r, emit)
	if store {
		b.bx.Insert(r, best)
		b.stored++
	}
	return int(b.bx.Results() - found)
}

// StepHits implements Joiner: the probe appends each hit as it verifies it.
func (b *bundledJoiner) StepHits(r *record.Record, store bool, hits []Hit) []Hit {
	b.probes++
	b.bx.Evict(r.ID, r.Time)
	best, _ := b.bx.ProbeHits(r, &hits)
	if store {
		b.bx.Insert(r, best)
		b.stored++
	}
	return hits
}
