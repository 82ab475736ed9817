package bundle

import (
	"math"
	"math/bits"
	"slices"

	"repro/internal/filter"
	"repro/internal/record"
	"repro/internal/similarity"
	"repro/internal/tokens"
	"repro/internal/window"
)

// Config tunes bundle construction and verification.
type Config struct {
	// GroupThreshold λ is the minimum similarity between an incoming record
	// and its best join partner for the record to join that partner's
	// bundle; below it the record starts a singleton bundle. λ >= the join
	// threshold τ; λ == τ (the default when zero) groups most aggressively.
	GroupThreshold float64
	// MaxMembers caps bundle size so core maintenance stays cheap.
	// Default 64.
	MaxMembers int
	// MinCoreFrac rejects a membership that would shrink the core below
	// this fraction of the incoming record's length, protecting the
	// shared-verification benefit. Default 0.5.
	MinCoreFrac float64
	// OneByOneVerify disables batch verification: each surviving member is
	// verified by a full merge of the probe against the member's complete
	// token set. Used by the E8 ablation.
	OneByOneVerify bool
}

func (c Config) withDefaults(tau float64) Config {
	if c.GroupThreshold == 0 {
		c.GroupThreshold = tau
	}
	if c.MaxMembers == 0 {
		c.MaxMembers = 64
	}
	if c.MinCoreFrac == 0 {
		c.MinCoreFrac = 0.5
	}
	return c
}

// Match is a verified join result.
type Match struct {
	Rec *record.Record
	// ID is Rec.ID, copied from the Member the verifier already holds so a
	// consumer that only pairs IDs never loads the partner record.
	ID      record.ID
	Overlap int
	Sim     float64
}

// Stats counts the work the bundle index performed.
type Stats struct {
	Records        uint64 // records processed
	Bundles        uint64 // bundles created
	Appends        uint64 // records appended to an existing bundle
	Postings       uint64 // entries currently in the posting table (live and dead bundles)
	Scanned        uint64 // bundle postings visited
	BundleCands    uint64 // distinct candidate bundles per probe, summed
	BundleLenSkip  uint64 // bundles skipped entirely by the length range
	BundleSigSkip  uint64 // bundles skipped entirely by the signature bound
	BundleUBSkip   uint64 // bundles skipped entirely by the union bound
	MemberChecks   uint64 // member upper-bound evaluations
	MemberUBSkip   uint64 // members skipped by the min(unionO, |y|) bound
	Verified       uint64 // members fully verified
	Results        uint64 // matches emitted
	VerifySteps    uint64 // merge iterations spent verifying (core+delta or full)
	CoreSteps      uint64 // portion of VerifySteps spent on shared cores
	Evicted        uint64 // members evicted
	LiveBundles    uint64 // bundles with at least one member (gauge)
	LiveMembers    uint64
	MaxBundleSize  uint64
	UnionOverlaps  uint64 // union-overlap computations (bundle-level filter)
	UnionSteps     uint64 // merge iterations spent on union bounds
	CoreOverlaps   uint64 // distinct core-overlap computations
	SingletonFast  uint64 // singleton bundles verified directly
	RebuildSweeps  uint64 // whole-index dead-posting sweeps (see Index.sweep)
	DeadPostSkips  uint64 // dead bundle postings dropped, by a probe's compaction or a sweep
	GroupRejectLen uint64 // memberships rejected by MaxMembers/MinCoreFrac

	KernelLinear    uint64 // verification merges run by the linear kernel
	KernelGallop    uint64 // verification merges run by the galloping kernel
	KernelBitset    uint64 // never written: the kernel is gone, bench/layers.go still reads the field
	BundleQuickSkip uint64 // bundles skipped by the pre-merge size bound
	MemberDeltaSkip uint64 // members skipped by the core+|delta| bound
	TwinProbes      uint64 // probes that ran the containment regime's lookups (see containment)
	TwinMatches     uint64 // identities and containments found by lookup, counted in MemberChecks, Verified and Results too
}

// Pruned sums the candidates the signature and kernel-tier upper bounds
// discarded before any verification merge ran.
func (s Stats) Pruned() uint64 {
	return s.BundleSigSkip + s.BundleQuickSkip + s.MemberDeltaSkip
}

// fifoEntry is a live record's member and bundle, nil in the sets. It stays
// 16 bytes: the fifo is copied down on every drain.
type fifoEntry struct {
	b *Bundle
	m *Member
}

// Index is the bundle-based streaming joiner. Like index.Inverted it is
// single-writer: each worker bolt owns one.
type Index struct {
	params filter.Params
	win    window.Policy
	cfg    Config

	// posts holds one posting per (token, bundle posted under it), naming
	// the bundle by slot id (see alloc).
	posts postTable
	fifo  []fifoEntry
	head  int
	// deadPosts counts the postings in posts that reference dead bundles:
	// up on a bundle's death, down as probes and sweeps drop them. It is
	// the sweep trigger.
	deadPosts uint64

	stats Stats

	// probe scratch
	cands []*Bundle
	// touch sums what collectCandidates' touch pass loads, so the compiler
	// keeps the loads.
	touch uint32
	// probeSeq is the probe counter stamped into hot.seen for per-probe
	// candidate dedup (replaces a per-probe map); collectCandidates restarts
	// it at 1 when it wraps.
	probeSeq uint32
	// The per-probe invariants, set once per probe by bindProbe before the
	// verify phase reads them: the compatible partner length range and the
	// probe's signature at every width (valid when probeHasSig: the probe
	// has at least sigMinLen tokens).
	probeLo, probeHi int
	probeSig         probeSig
	probeHasSig      bool
	// trial is insert-path scratch for the candidate core intersection
	// (single-writer like the rest of the index, so a plain reused slice
	// beats pooling here; pooled buffers cover the shared helpers in
	// Bundle.add).
	trial []tokens.Rank
	// al slab-allocates members, bundles and deltas on the insert path.
	al alloc
	// Records of 1..cMax tokens live in sets, never a bundle (containment).
	cMax        int
	keys, looks [maxKeyed + 2][]uint16
	sets        setTable
}

// sweepFloor is the dead-posting count below which no sweep runs, so a
// near-empty index does not sweep on every other eviction.
const sweepFloor = 64

// New returns an empty bundle index.
func New(p filter.Params, w window.Policy, cfg Config) *Index {
	bx := &Index{
		params: p,
		win:    w,
		cfg:    cfg.withDefaults(p.Threshold),
	}
	bx.posts.rebuild(postMinBits)
	bx.sets.rehash(16, 0)
	if bx.cfg.GroupThreshold <= 1 {
		bx.cMax, bx.keys, bx.looks = containment(p)
	}
	return bx
}

// maxKeyed caps a length's subset keys, and lookups; a uint16 skip mask fits.
const maxKeyed = 16

// containment returns cMax, the largest L ≤ 4 096 such that every length l
// in 1..L pairs with every length m, either way, only at overlap min(l, m)
// and no length has over maxKeyed subset keys or lookups, and by length
// their skip masks. docs/ALGORITHMS.md § Containment regime has the proof.
func containment(p filter.Params) (cMax int, keys, looks [maxKeyed + 2][]uint16) {
	need := func(a, b int) int { // past min(a, b) when b is outside a's band
		if lo, hi := p.LengthBounds(a); b < lo || b > hi {
			return math.MaxInt
		}
		return p.RequiredOverlap(a, b)
	}
	for l := 1; l <= 1<<12; l++ {
		a, b := p.LengthBounds(l)
		if b >= math.MaxInt32 {
			break // unbounded: the band never closes
		}
		// Bands are monotone, so l's partners either way are [a, b].
		for _, hi := p.LengthBounds(a - 1); a > 1 && hi >= l; _, hi = p.LengthBounds(a - 1) {
			a--
		}
		for lo, _ := p.LengthBounds(b + 1); lo <= l; lo, _ = p.LengthBounds(b + 1) {
			b++
		}
		nk, nl := keys, looks // l's masks, kept only if every length stays in budget
		for m := a; m <= b; m++ {
			if min(need(l, m), need(m, l)) < min(l, m) {
				return cMax, keys, looks
			}
			key, look := m > l && need(l, m) <= l, m > l && need(m, l) <= l
			if (key || look) && m > maxKeyed {
				return cMax, keys, looks
			}
			for skip := uint32(1)<<max(m-l, 0) - 1; (key || look) && skip < 1<<m; skip = nextComb(skip) {
				if key {
					nk[m] = append(nk[m], uint16(skip))
				}
				if look {
					nl[m] = append(nl[m], uint16(skip))
				}
				if len(nk[m]) > maxKeyed || len(nl[m]) > maxKeyed {
					return cMax, keys, looks
				}
			}
		}
		cMax, keys, looks = l, nk, nl
	}
	return cMax, keys, looks
}

// nextComb is the next larger integer with as many set bits as x (Gosper).
func nextComb(x uint32) uint32 {
	c := x & -x
	r := x + c
	return (((r ^ x) >> 2) / c) | r
}

// inSets reports whether a record of l tokens lives in sets, not a bundle.
func (bx *Index) inSets(l int) bool { return 0 < l && l <= bx.cMax }

// Params returns the join parameters.
func (bx *Index) Params() filter.Params { return bx.params }

// Config returns the effective configuration after defaulting.
func (bx *Index) Config() Config { return bx.cfg }

// Results is Stats().Results, read without copying Stats.
func (bx *Index) Results() uint64 { return bx.stats.Results }

// Stats snapshots the work counters.
func (bx *Index) Stats() Stats {
	s := bx.stats
	s.Postings = uint64(bx.posts.n)
	s.LiveMembers = uint64(len(bx.fifo) - bx.head)
	return s
}

// Process runs one full streaming step for r: evict expired members, probe
// and verify against live bundles, emit every match, then insert r into the
// bundle of its most similar match (or a fresh singleton). This is the
// algorithm the paper's abstract describes: join results guide index
// construction.
func (bx *Index) Process(r *record.Record, emit func(Match)) {
	bx.Evict(r.ID, r.Time)
	best, _ := bx.Probe(r, emit)
	bx.Insert(r, best)
	bx.stats.Records++
}

// Evict expires members outside the window relative to (nowSeq, nowTime).
// An evicted member leaves its bundle and the fifo at once and
// is recycled; a bundle that loses its last member dies (see retire). Any
// Insertion obtained before the call is invalid after it.
func (bx *Index) Evict(nowSeq record.ID, nowTime int64) {
	for bx.head < len(bx.fifo) {
		fe := bx.fifo[bx.head]
		rec := fe.m.Rec
		if bx.win.Live(rec.ID, rec.Time, nowSeq, nowTime) {
			break
		}
		if fe.b == nil {
			if bx.sets.remove(fe.m) {
				bx.stats.LiveBundles--
			}
		} else {
			fe.b.remove(&bx.al, fe.m)
			bx.al.mirror(fe.b)
			if len(fe.b.Members) == 0 {
				bx.retire(fe.b)
			}
		}
		bx.al.freeMember(fe.m)
		bx.fifo[bx.head] = fifoEntry{}
		bx.head++
		bx.stats.Evicted++
	}
	if bx.head > 64 && bx.head*2 > len(bx.fifo) {
		bx.fifo = append(bx.fifo[:0], bx.fifo[bx.head:]...)
		bx.head = 0
	}
	if k := bx.sets.keys; len(k) > 2*sweepFloor && k[len(k)/2].seq < bx.stats.Evicted {
		bx.sets.rehash(len(bx.sets.heads), bx.stats.Evicted)
	}
	if bx.deadPosts > sweepFloor && bx.deadPosts*2 > uint64(bx.posts.n) {
		bx.sweep()
		bx.posts.fit()
	}
}

// retire takes a bundle that just lost its last member out of the live
// set. Its postings stay in the table — finding them would cost a bucket
// walk per posted token — and are counted as dead; the bundle is recycled when
// the last of them is dropped, which is immediately when it has none: a
// zero-token record (TextStream.Add keeps texts that tokenize to the empty
// set) has an empty prefix, so its singleton bundle posts nothing.
func (bx *Index) retire(b *Bundle) {
	bx.stats.LiveBundles--
	if len(b.posted) == 0 {
		bx.al.freeBundle(b)
		return
	}
	bx.deadPosts += uint64(len(b.posted))
}

// dropDead accounts for one posting of dead bundle b leaving the table
// (the caller's compaction removes the entry) and recycles b once none is left.
//
// Called from collectCandidates' compaction; the free-list push is an
// amortised self-append.
func (bx *Index) dropDead(b *Bundle) {
	bx.stats.DeadPostSkips++
	bx.deadPosts--
	b.posted = b.posted[:len(b.posted)-1]
	if len(b.posted) == 0 {
		bx.al.freeBundle(b)
	}
}

// sweep drops every dead posting in one pass over the table and so
// recycles every dead bundle. Evict calls it when dead postings outnumber
// live ones (beyond sweepFloor): the pass costs O(all postings) and removes
// more than half of them, so sweeping is amortised O(1) per posting ever
// inserted, and between sweeps dead postings never exceed live postings +
// sweepFloor — the index's memory follows the window, not the stream. (A
// probe's walk drops the dead postings it meets; the sweep bounds the ones
// no probe walks.) It compacts in place: a steady window sweeps every few
// hundred records, and a table re-made each time would be its largest
// allocation; Evict lets an emptied table shrink afterwards (postTable.fit).
//
// O(postings), allocates nothing.
func (bx *Index) sweep() {
	bx.stats.RebuildSweeps++
	for k := range bx.posts.buckets {
		b := &bx.posts.buckets[k]
		ov, n, w := bx.posts.overflow(b), b.n, uint32(0)
		for i := uint32(0); i < n; i++ {
			p := b.at(ov, i)
			if bx.al.hotAt(p.slot).hi == 0 {
				bx.dropDead(bx.al.at(p.slot))
				continue
			}
			if w != i {
				b.set(ov, w, p)
			}
			w++
		}
		bx.posts.truncate(b, ov, w)
	}
}

// Probe finds all live records similar to r, emits each as it is verified —
// lookups in chain order, then candidate bundles in the order
// collectCandidates finds them walking r's prefix, members in bundle order:
// a function of index state, sorted by nothing — and returns the best bundle
// match together with its similarity (ok=false if none: a lookup's match is
// never the hint). Verification is exact; emitted overlaps are true
// intersection sizes. A nil emit only counts: the hint and every counter are
// the same.
func (bx *Index) Probe(r *record.Record, emit func(Match)) (best Insertion, ok bool) {
	l := r.Len()
	if looks := bx.looks[min(l, maxKeyed+1)]; bx.inSets(l) || len(looks) > 0 {
		// r's subsets among exact sets, then its own set among every key —
		// its copies and the longer records keyed under it: each partner
		// is stored under exactly one set looked up, so emitted once.
		bx.stats.TwinProbes++
		h := setHash(r.Tokens)
		for _, skip := range looks {
			bx.lookup(r, subHash(h, r.Tokens, skip), skip, emit)
		}
		if bx.inSets(l) {
			bx.lookup(r, h, 0, emit)
			return Insertion{}, false
		}
	}
	if emit == nil {
		emit = discard // probeBundle counts every match it emits
	}
	for _, b := range bx.collectCandidates(r) {
		if m, found := bx.probeBundle(r, b, emit); found && (!ok || betterIns(m, best)) {
			best, ok = m, true
		}
	}
	return best, ok
}

// lookup emits the live records stored under r's tokens less the positions
// in skip, a set of k tokens whose hash is h: every copy of that exact set
// at overlap k, and — for r's own set, skip 0 — every longer record keyed
// under it, at overlap |r|. A nil emit counts a twin entry by its length.
func (bx *Index) lookup(r *record.Record, h uint64, skip uint16, emit func(Match)) {
	t, ev, n := &bx.sets, bx.stats.Evicted, uint64(0)
	f, l, k := bx.params.Func, r.Len(), r.Len()-bits.OnesCount16(skip)
	for i := t.heads[h>>t.shift][0]; i != 0; i = t.at(i).next {
		if s := t.at(i); s.hash == h && equalSkip(r.Tokens, skip, s.toks) {
			if emit != nil {
				sim := similarity.FromOverlap(f, k, l, k)
				for _, c := range s.ms {
					emit(Match{Rec: c.rec, ID: c.id, Overlap: k, Sim: sim})
				}
			}
			n += uint64(len(s.ms))
		}
	}
	for i := t.heads[h>>t.shift][1]; skip == 0 && i != 0; i = t.keys[i-1].next {
		if e := &t.keys[i-1]; e.hash == h && e.seq >= ev {
			if m := bx.fifo[bx.head+int(e.seq-ev)].m; equalSkip(m.Rec.Tokens, e.skip, r.Tokens) {
				if emit != nil {
					emit(Match{Rec: m.Rec, ID: m.id, Overlap: l, Sim: similarity.FromOverlap(f, l, l, int(m.ln))})
				}
				n++
			}
		}
	}
	st := &bx.stats
	st.TwinMatches, st.MemberChecks, st.Verified, st.Results = st.TwinMatches+n, st.MemberChecks+n, st.Verified+n, st.Results+n
}

// discard is a nil emit on the bundle path: probeBundle never tests emit.
func discard(Match) {}

// bindProbe fixes the per-probe invariants every filter of this probe
// reads: the compatible partner length range and — for a probe long enough
// for the gate to pay — the signature. collectCandidates calls it once per
// probe.
//
// Once per probe.
func (bx *Index) bindProbe(r *record.Record) {
	bx.probeLo, bx.probeHi = bx.params.LengthBounds(r.Len())
	bx.probeHasSig = r.Len() >= sigMinLen
	if bx.probeHasSig {
		bx.probeSig.set(r.Tokens)
	}
}

// resetStamps clears every slot's dedup stamp and restarts the probe counter
// at 1: without it, a bundle last visited exactly 2^32 probes ago would look
// already seen.
func (bx *Index) resetStamps() {
	for i := range bx.al.hots {
		bx.al.hots[i].seen = 0
	}
	bx.probeSeq = 1
}

// collectCandidates walks the postings of r's prefix tokens in prefix order
// — global rank order, so rarest first — compacts dead postings in place,
// and returns the distinct candidate bundles that pass the bundle-level
// length and signature filters, in that discovery order. A touch pass first
// loads every prefix token's bucket header, and the first overflow posting
// of a bucket that has overflowed, back to back, so the walk finds its lines
// on their way in. The order changes no counter and no result: each
// candidate is examined once per probe, every filter is per bundle, and the
// insertion hint is a pure function of the match set (betterIns). The walk
// reads, per posting of the token, only the slot's hot entry: dead mark,
// dedup stamp (seen vs probeSeq, an epoch instead of a per-probe map), the
// length band against the bounds hoisted by bindProbe, then the signature
// bound against the smallest overlap any member would need; the Bundle is
// addressed only for a candidate or a dead posting. A saturated band errs
// towards keeping: lenLo is clamped so a saturated hi never skips, and a
// saturated lo only lowers the requirement. Every posting-table mutation of
// a probe happens here; the verify phase that follows only reads the index.
// The returned slice is scratch owned by the index, valid until the next
// call.
//
// Runs once per probe.
func (bx *Index) collectCandidates(r *record.Record) []*Bundle {
	cands := bx.cands[:0]
	bx.probeSeq++
	if bx.probeSeq == 0 {
		bx.resetStamps()
	}
	seq := bx.probeSeq
	bx.bindProbe(r)
	la := r.Len()
	lo, hi := bx.probeLo, bx.probeHi
	lenLo := min(lo, hotLenMax)
	prefix, t := r.Tokens[:bx.params.PrefixLen(la)], &bx.posts
	// The touch pass: each bucket's header, and an overflowed bucket's first
	// listed posting, loaded back to back; the loads are independent, so
	// their misses overlap, and the sum is kept so none is dropped.
	touch := bx.touch
	for _, tok := range prefix {
		b := t.bucket(tok)
		touch += b.n
		if b.n > bucketInline {
			touch += t.over[b.ovf-1][0].slot
		}
	}
	bx.touch = touch
	for _, tok := range prefix {
		b := t.bucket(tok)
		ov, n, w := t.overflow(b), b.n, uint32(0)
		for i := uint32(0); i < n; i++ {
			p := b.at(ov, i)
			var h *hot
			if p.tok == tok {
				if h = bx.al.hotAt(p.slot); h.hi == 0 {
					bx.dropDead(bx.al.at(p.slot)) // compact dead bundle posting
					continue
				}
			}
			if w != i {
				b.set(ov, w, p)
			}
			w++
			if h == nil {
				continue // a neighbour sharing the line
			}
			bx.stats.Scanned++
			if h.seen == seq {
				continue
			}
			h.seen = seq
			bx.stats.BundleCands++
			bmin := int(h.lo & hotLoMax)
			if int(h.hi&^hotLive) < lenLo || bmin > hi {
				bx.stats.BundleLenSkip++
				continue
			}
			// The signature's bound on the overlap with any member, at the
			// bundle's width (see sig; the base width, one block, in line); a
			// bound of la excludes nothing: it skips the requirement arithmetic.
			if bx.probeHasSig && h.lo&hotSig != 0 {
				miss := 0
				if h.lo&hotWide == 0 {
					miss = bx.probeSig[len(bx.probeSig)-1].missing(&bx.al.sigs[p.slot>>bundleShift][p.slot&(bundleChunk-1)])
				} else {
					bs := bx.al.sigAt(p.slot, true)
					miss = bx.probeSig.at(len(bs)).missing(bs)
				}
				if ub := la - miss; ub < la && ub < bx.minRequired(la, bmin, lo) {
					bx.stats.BundleSigSkip++
					continue
				}
			}
			cands = append(cands, bx.al.at(p.slot))
		}
		t.truncate(b, ov, w)
	}
	bx.cands = cands
	return cands
}

// Insertion names the bundle an incoming record should join. At is the
// record ID of the best match backing the hint: the rule — maximum
// similarity, ties to the newest (largest) partner ID — makes the pick a
// pure function of the match set, whatever order the matches were found in.
// Ties go to the newest partner because the newest copy of a set sits in
// the bundle that most recently took one: once a bundle of exact
// duplicates holds MaxMembers, the next copy founds a new bundle and every
// later copy joins it, where ties to the oldest partner would keep picking
// the full bundle and found one singleton per copy.
type Insertion struct {
	Bundle *Bundle
	Sim    float64
	At     record.ID
}

// betterIns reports whether insertion hint a beats b under that rule.
// Similarities are computed from identical (overlap, length)
// inputs on every path, so ties compare bitwise-equal floats.
func betterIns(a, b Insertion) bool {
	return a.Sim > b.Sim || (a.Sim == b.Sim && a.At > b.At)
}

// probeBundle filters and verifies r against one candidate bundle that
// passed collectCandidates' length and signature filters, emitting matches
// and returning the best-match insertion hint. It writes only work
// counters: any index mutation belongs in collectCandidates or the
// insert/evict path.
//
// Runs once per candidate bundle per probe; matches are emitted as value
// structs through the emit callback.
func (bx *Index) probeBundle(r *record.Record, b *Bundle, emit func(Match)) (Insertion, bool) {
	la := r.Len()
	lo, hi := bx.probeLo, bx.probeHi
	bmin, bmax := b.MinLen(), b.MaxLen()
	reqMin := bx.minRequired(la, bmin, lo)

	// Singleton fast path: a single early-terminating merge both filters
	// and verifies. The member's length is the bundle's whole range, which
	// already passed the length check, so its own requirement is reqMin.
	// Union ⊇ the member's tokens, so at equal size it is the member's token
	// set (add and rebuildUnion alias the very slice): the merge reads it
	// off the Bundle's first line, and the Member behind Members[0] is
	// loaded only for a match.
	if len(b.Members) == 1 {
		toks := b.Union
		if len(toks) != bmin {
			toks = b.Members[0].Rec.Tokens
		}
		bx.stats.MemberChecks++
		o, steps, ok := bx.overlapKernelBounded(r.Tokens, toks, reqMin)
		bx.stats.SingletonFast++
		bx.stats.VerifySteps += uint64(steps)
		bx.stats.Verified++
		if !ok {
			return Insertion{}, false
		}
		m := b.Members[0]
		sim := similarity.FromOverlap(bx.params.Func, o, la, bmin)
		bx.stats.Results++
		emit(Match{Rec: m.Rec, ID: m.id, Overlap: o, Sim: sim})
		return Insertion{Bundle: b, Sim: sim, At: m.id}, true
	}

	// Quick size bound before any merge: overlap(r, y) <= min(la, ly,
	// |Union|) for every member y, and ly <= min(bmax, hi) over the
	// members that survive the length check, while required(y) >= reqMin.
	// When even the best case falls short, the whole bundle is pruned for
	// the cost of three comparisons.
	quickUB := la
	if h := min(bmax, hi); h < quickUB {
		quickUB = h
	}
	if lu := len(b.Union); lu < quickUB {
		quickUB = lu
	}
	if quickUB < reqMin {
		bx.stats.BundleQuickSkip++
		return Insertion{}, false
	}

	// Bundle-level union upper bound: overlap(r, y) <= overlap(r, Union)
	// for every member y. One early-terminating merge prunes the whole
	// bundle; on success the overlap is exact and reused per member.
	unionO, usteps, uok := bx.overlapKernelBounded(r.Tokens, b.Union, reqMin)
	bx.stats.UnionOverlaps++
	bx.stats.UnionSteps += uint64(usteps)
	if !uok {
		bx.stats.BundleUBSkip++
		return Insertion{}, false
	}

	var (
		coreO     int
		coreSteps int
		haveCore  bool
		best      Insertion
		found     bool
		// req is the overlap a member of reqLen tokens needs: float
		// arithmetic a run of equal-length members pays once.
		reqLen, req = -1, 0
		// sim is the similarity at (simLen, simO), paid once per run of
		// members with equal length and overlap.
		simLen, simO = -1, -1
		sim          float64
	)
	for _, m := range b.Members {
		lb := int(m.ln)
		if lb < lo || lb > hi {
			continue
		}
		bx.stats.MemberChecks++
		if lb != reqLen {
			reqLen, req = lb, bx.params.RequiredOverlap(la, lb)
		}
		ub := unionO
		if lb < ub {
			ub = lb
		}
		if ub < req {
			bx.stats.MemberUBSkip++
			continue
		}
		var o int
		if bx.cfg.OneByOneVerify {
			var steps int
			o, steps = bx.overlapKernel(r.Tokens, m.Rec.Tokens)
			bx.stats.VerifySteps += uint64(steps)
		} else {
			if !haveCore {
				coreO, coreSteps = bx.overlapKernel(r.Tokens, b.Core)
				haveCore = true
				bx.stats.CoreOverlaps++
				bx.stats.CoreSteps += uint64(coreSteps)
				bx.stats.VerifySteps += uint64(coreSteps)
			}
			// Delta bound: overlap(r, y) = coreO + overlap(r, Delta), and
			// overlap(r, Delta) <= min(|Delta|, la - coreO) because Delta
			// is disjoint from Core while r holds only la tokens, coreO of
			// them already matched in Core. Members whose delta cannot
			// close the gap skip the delta merge entirely.
			dUB := len(m.Delta)
			if rest := la - coreO; rest < dUB {
				dUB = rest
			}
			if coreO+dUB < req {
				bx.stats.MemberDeltaSkip++
				continue
			}
			// Bounded delta merge: when it passes dO is exact and o is the
			// true overlap; when it fails dO is below req-coreO, so o < req
			// drops the member without the exact size.
			dO, dSteps, _ := bx.overlapKernelBounded(r.Tokens, m.Delta, req-coreO)
			bx.stats.VerifySteps += uint64(dSteps)
			o = coreO + dO
		}
		bx.stats.Verified++
		if o < req {
			continue
		}
		if lb != simLen || o != simO {
			simLen, simO, sim = lb, o, similarity.FromOverlap(bx.params.Func, o, la, lb)
		}
		bx.stats.Results++
		emit(Match{Rec: m.Rec, ID: m.id, Overlap: o, Sim: sim})
		if !found || betterIns(Insertion{Sim: sim, At: m.id}, best) {
			best, found = Insertion{Bundle: b, Sim: sim, At: m.id}, true
		}
	}
	return best, found
}

// Dump visits every live member record in arrival order; returning false
// stops the walk.
func (bx *Index) Dump(visit func(*record.Record) bool) {
	for i := bx.head; i < len(bx.fifo); i++ {
		if !visit(bx.fifo[i].m.Rec) {
			return
		}
	}
}

// minRequired returns the smallest overlap a probe of la tokens needs with
// any member of a bundle whose shortest member has bmin tokens, lo being the
// shortest compatible partner length. For all supported functions the
// required overlap is nondecreasing in partner length, so the minimum is at
// the smallest compatible length.
//
// Arithmetic only.
func (bx *Index) minRequired(la, bmin, lo int) int {
	l := bmin
	if lo > l {
		l = lo
	}
	return bx.params.RequiredOverlap(la, l)
}

// Insert places r into best's bundle when grouping conditions hold,
// otherwise into a fresh singleton bundle, or among its copies in sets, and
// under its length's subset keys. best must come from a Probe with no Evict
// in between: eviction recycles bundles.
func (bx *Index) Insert(r *record.Record, best Insertion) {
	fe, n, h := fifoEntry{}, 0, uint64(0)
	keys := bx.keys[min(r.Len(), maxKeyed+1)]
	if len(keys) > 0 || bx.inSets(r.Len()) {
		h = setHash(r.Tokens)
	}
	if bx.inSets(r.Len()) {
		fe.m = bx.al.member()
		fe.m.Rec, fe.m.id, fe.m.ln = r, r.ID, int32(r.Len())
		n = bx.sets.add(fe.m, h, bx.cfg.MaxMembers)
	} else {
		fe.b = bx.group(r, best)
		n = len(fe.b.Members)
		fe.m = fe.b.Members[n-1]
	}
	for _, skip := range keys { // r is the seq-th record inserted
		bx.sets.addKey(bx.stats.Evicted+uint64(len(bx.fifo)-bx.head), subHash(h, r.Tokens, skip), skip)
	}
	if n == 1 {
		bx.stats.Bundles++
		bx.stats.LiveBundles++
	} else {
		bx.stats.Appends++
	}
	bx.stats.MaxBundleSize = max(bx.stats.MaxBundleSize, uint64(n))
	bx.fifo = push(bx.fifo, fe)
}

// push appends v to s, doubling a full s: past 256 elements append grows
// by 1.25×, so a growing table allocates about five times its final size.
func push[T any](s []T, v T) []T {
	if len(s) == cap(s) {
		s = append(make([]T, 0, max(16, 2*cap(s))), s...)
	}
	return append(s, v)
}

// group adds r to best's bundle or a fresh one and posts the bundle's new
// prefix tokens.
func (bx *Index) group(r *record.Record, best Insertion) *Bundle {
	p := bx.params.PrefixLen(r.Len())
	if p > r.Len() {
		p = r.Len()
	}
	var (
		target  *Bundle
		newCore []tokens.Rank
	)
	if best.Bundle != nil && best.Sim >= bx.cfg.GroupThreshold-1e-12 {
		b := best.Bundle
		if len(b.Members) < bx.cfg.MaxMembers {
			// Trial intersection in reused scratch: add() consumes it when
			// the membership is accepted, so the merge runs exactly once
			// and the rejected case allocates nothing.
			bx.trial = similarity.IntersectInto(bx.trial[:0], b.Core, r.Tokens)
			if float64(len(bx.trial)) >= bx.cfg.MinCoreFrac*float64(r.Len()) {
				target = b
				newCore = bx.trial
			} else {
				bx.stats.GroupRejectLen++
			}
		} else {
			bx.stats.GroupRejectLen++
		}
	}
	if target == nil {
		target = bx.al.bundle()
	}
	for _, tok := range target.add(&bx.al, r, p, newCore) {
		bx.posts.add(posting{tok, target.slot})
	}
	bx.al.mirror(target)
	return target
}

// setTable stores the containment regime: twin entries, carved from fixed
// chunks on first use (a free list keeps their queues), and key entries,
// each kind chained per bucket by 1 + index (0: none). Keys are appended in
// arrival order, and the seq-th record's are live while seq ≥ the records
// evicted, so the dead keys are a prefix.
type setTable struct {
	heads    [][2]int32 // per bucket, the chains of twin and of key entries
	shift    uint8
	nsets    int // twin entries linked
	chunks   []*[setChunk]twinSet
	carved   int32 // twin entries carved: 1..carved are in chunks
	keys     []keyEntry
	freeSets int32
}

const setChunk = 256 // twin entries per chunk: 16 KiB

// twinSet is up to MaxMembers live copies of one token set, oldest first:
// the fifo evicts in arrival order, so always one entry's ms[0]. toks is
// the newest copy's tokens, which leave the entry last. A lookup that hits
// reads one 64-byte entry, toks and, to emit, ms: never a Member.
type twinSet struct {
	hash uint64
	toks []tokens.Rank
	next int32
	ms   []twinCopy
}

// twinCopy is one queued copy, paired as a Match pairs it.
type twinCopy struct {
	rec *record.Record
	id  record.ID
}

// keyEntry keys the seq-th record inserted under its subset less the
// positions in skip, hashed hash: 24 bytes, no pointer.
type keyEntry struct {
	hash uint64
	seq  uint64
	next int32
	skip uint16
}

// mix is one token's share of a set hash.
func mix(t tokens.Rank) uint64 {
	x := (uint64(t) + 1) * 0x9E3779B97F4A7C15
	x = (x ^ x>>29) * 0xBF58476D1CE4E5B9
	return x ^ x>>32
}

// setHash is the additive hash of a token set, so a subset's is the set's
// less the dropped tokens' shares (subHash). Buckets take its top bits.
func setHash(ts []tokens.Rank) (h uint64) {
	for _, t := range ts {
		h += mix(t)
	}
	return h
}

// subHash is the hash of ts less the positions in skip, h being setHash(ts).
func subHash(h uint64, ts []tokens.Rank, skip uint16) uint64 {
	for ; skip != 0; skip &= skip - 1 {
		h -= mix(ts[bits.TrailingZeros16(skip)])
	}
	return h
}

// equalSkip reports whether a less the positions in skip is b.
func equalSkip(a []tokens.Rank, skip uint16, b []tokens.Rank) bool {
	if len(a)-bits.OnesCount16(skip) != len(b) {
		return false
	}
	for i, t := range a {
		if skip>>i&1 == 0 {
			if t != b[0] {
				return false
			}
			b = b[1:]
		}
	}
	return true
}

// hook links entry i of a kind (0 twin, 1 key), whose link is next, at
// the head of hash h's chain of that kind, then doubles the buckets when
// entries outnumber them — never within rehash, which has room for all.
func (t *setTable) hook(kind int, i int32, next *int32, h uint64) {
	head := &t.heads[h>>t.shift][kind]
	if *next, *head = *head, i; t.nsets+len(t.keys) > len(t.heads) {
		t.rehash(2*len(t.heads), 0)
	}
}

// at resolves twin entry i (from 1).
func (t *setTable) at(i int32) *twinSet {
	u := uint32(i - 1)
	return &t.chunks[u/setChunk][u%setChunk]
}

// add queues m, whose set hashes to h, on an entry of its set with room
// under max copies, founding one if there is none, and returns that
// entry's live count.
func (t *setTable) add(m *Member, h uint64, max int) int {
	i := t.heads[h>>t.shift][0]
	for ; i != 0; i = t.at(i).next {
		if s := t.at(i); s.hash == h && len(s.ms) < max && slices.Equal(s.toks, m.Rec.Tokens) {
			break
		}
	}
	founds := i == 0
	if founds && t.freeSets != 0 {
		i, t.freeSets = t.freeSets, t.at(t.freeSets).next
	} else if founds {
		if t.carved%setChunk == 0 {
			t.chunks = append(t.chunks, new([setChunk]twinSet))
		}
		t.carved++
		i = t.carved
	}
	s := t.at(i)
	s.hash, s.toks, s.ms, m.set = h, m.Rec.Tokens, append(s.ms, twinCopy{m.Rec, m.id}), i
	if founds {
		t.nsets++
		t.hook(0, i, &s.next, h)
	}
	return len(s.ms)
}

// remove dequeues m, the oldest live copy of the entry it names, and
// reports whether that emptied the entry, unlinking and freeing it.
func (t *setTable) remove(m *Member) bool {
	s := t.at(m.set)
	n := copy(s.ms, s.ms[1:])
	s.ms[n] = twinCopy{}
	if s.ms = s.ms[:n]; n > 0 {
		return false
	}
	p := &t.heads[s.hash>>t.shift][0]
	for *p != m.set {
		p = &t.at(*p).next
	}
	*p, s.next, s.toks, t.freeSets = s.next, t.freeSets, nil, m.set
	t.nsets--
	return true
}

// addKey stores the record numbered seq under its subset key skip, whose
// hash is h.
func (t *setTable) addKey(seq, h uint64, skip uint16) {
	t.keys = push(t.keys, keyEntry{hash: h, seq: seq, skip: skip})
	t.hook(1, int32(len(t.keys)), &t.keys[len(t.keys)-1].next, h)
}

// rehash relinks every entry into n buckets, a power of two, dropping keys
// numbered below evicted: Evict calls it once they are half the keys, so
// (like the posting sweep) it is amortised O(1) per key.
func (t *setTable) rehash(n int, evicted uint64) {
	if len(t.heads) != n {
		t.heads, t.shift = make([][2]int32, n), uint8(64-bits.TrailingZeros(uint(n)))
	} else {
		clear(t.heads)
	}
	for i := int32(1); i <= t.carved; i++ {
		if s := t.at(i); len(s.ms) > 0 {
			t.hook(0, i, &s.next, s.hash)
		}
	}
	live := t.keys[:0]
	for _, e := range t.keys {
		if e.seq >= evicted {
			live = append(live, e)
			t.hook(1, int32(len(live)), &live[len(live)-1].next, e.hash)
		}
	}
	t.keys = live
}
