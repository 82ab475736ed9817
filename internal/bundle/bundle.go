// Package bundle implements the bundle-based streaming join: the join
// results of each incoming record guide index construction by grouping
// similar records into bundles on the fly. A bundle factors its members
// into a shared core (tokens common to all members) and small per-member
// deltas, so that
//
//   - filtering cost is shared: one posting per (bundle, token) instead of
//     one per (record, token), one union-overlap upper bound prunes all
//     members at once, and
//   - verification cost is shared: overlap(probe, member) =
//     overlap(probe, core) + overlap(probe, delta), so the core term is
//     computed once per bundle and each member costs only its token
//     difference.
//
// Both identities are exact because core and delta are disjoint and their
// union is the member's token set.
package bundle

import (
	"math/bits"

	"repro/internal/tokens"

	"repro/internal/record"
	"repro/internal/similarity"
)

// Member is one record inside a bundle together with its token difference
// from the bundle core. A Member exists only while its record is in the
// window: eviction returns it to the index's free list (see arena.go).
type Member struct {
	Rec   *record.Record
	Delta []tokens.Rank // Rec.Tokens \ Core, ascending
	// id and ln copy Rec.ID and Rec.Len() (records are immutable), so the
	// verify loop filters, bounds and pairs a member without loading Rec.
	id record.ID
	ln int32
	// set is the twin entry (see setTable) a record of the containment
	// regime is queued on, so eviction goes straight to it; 0 in a bundle.
	set int32
}

// Bundle groups records that joined with one another. Invariants:
// Core ⊆ member.Rec.Tokens for every member; member.Delta = member tokens
// minus Core; Union ⊇ member tokens for every member (Union may be a strict
// superset after evictions, which is safe because it is only used as an
// upper bound). Members holds exactly the live members — eviction removes
// a member at once — so an empty Members marks a dead bundle.
type Bundle struct {
	// The posting walk does not read a Bundle: what it needs per posting is
	// mirrored in the slot's 8-byte hot entry (see hot), and only a candidate
	// that survives the bundle filters, or a dead posting being dropped,
	// loads these two lines. What probeBundle reads before its first merge —
	// and, for a singleton, all it reads — sits on the first.
	Members []*Member
	Union   []tokens.Rank

	// slot is the bundle's address in the allocator's chunk directory (see
	// alloc), assigned when the bundle is carved and kept for good.
	slot uint32

	// minLen and maxLen are the exact member length extremes (0 when
	// empty), kept current by add and remove so probeBundle's bounds never
	// walk Members; the hot entry's band is a saturating copy of them.
	minLen, maxLen int32
	// peak tracks the max member count since the last shrink rebuild.
	peak int32
	// unionOwned reports whether Union's backing array belongs to this
	// bundle. A singleton aliases its record's immutable token slice, so
	// in-place union growth must first copy into owned storage.
	unionOwned bool
	// hasSig reports that the allocator's signature cell for slot is
	// current: set when the first member has at least sigMinLen tokens,
	// cleared by death; wideSig, that it is a pooled one (alloc.wslab).
	hasSig, wideSig bool

	// posted tracks the tokens this bundle has postings under so member
	// additions do not duplicate postings. Prefixes are short, so a small
	// slice with linear dedup beats a map (profiled: the map was the top
	// allocation site). Once the bundle is dead only the length matters:
	// it counts the postings still referencing the bundle, and the bundle
	// is recycled when the last one is dropped (see Index.dropDead).
	posted []tokens.Rank

	Core []tokens.Rank
}

// sig is a token-hash signature of a token set, len(sig) 256-bit blocks wide:
// the bit a token hashes to (see add) is set for every token of the set. Kept
// per bundle (over the tokens of every member since the last rebuild — a
// superset after evictions, like Union) in the allocator's side tables, and
// built per probe. It yields a one-sided bound: a bit set in sig(r) and clear
// in sig(b) has at least one token of r hashing to it, which is in no member of
// b; distinct bits witness distinct tokens, so for every member y of b
//
//	|r ∩ y| <= |r ∩ Union(b)| <= |r| - popcount(sig(r) &^ sig(b)).
//
// A bundle is skipped only when that bound is below the smallest overlap
// any of its members would need, so the gate drops nothing verification
// would have kept. A bitmap saturates once the set outgrows it, so a bundle's
// width follows its founding member's length (sigWidth), for life; the widths
// nest — a token's bit at one width is its bit at the next less the top index
// bit — so a probe hashes once and folds (probeSig). DESIGN.md § "Signature
// gate" has the measurements behind the widths, the hash and sigMinLen.
type sig []sigBlock

// sigBlock is 256 bits of a signature, the whole of a base-width one.
type sigBlock [sigWords]uint64

const (
	// sigWords × 64 bits is a block, the base width; sigMaxBlocks the widest.
	sigWords     = 4
	sigMaxBlocks = 4
	// sigMinLen is the first-member length from which a bundle carries a
	// signature, and the probe length from which one is built: below it
	// the verification the gate could save is a merge of a dozen steps,
	// cheaper than hashing, and 32 B per bundle is real money on 3-token records.
	// From sigLen512 and sigLen1024 it is 512 and 1 024 bits: over 4/3 bits a token.
	sigMinLen  = 16
	sigLen512  = 192
	sigLen1024 = 384
	// sigHashMul spreads dense ranks over the bits (Fibonacci hashing: the
	// top bits of the 32-bit product).
	sigHashMul = 0x9E3779B1
)

// sigWidth returns the blocks in the signature of a bundle founded at n tokens.
func sigWidth(n int) int {
	if n < sigLen512 {
		return 1
	} else if n < sigLen1024 {
		return 2
	}
	return sigMaxBlocks
}

// set makes s the signature of exactly ts: add sets the bit of every token,
// at a 10-bit index — the product's top byte below its next two bits —
// masked to s's width.
//
// Once per probe, inserted member and rebuild.
func (s sig) set(ts []tokens.Rank) {
	clear(s)
	s.add(ts)
}

func (s sig) add(ts []tokens.Rank) {
	mask := uint32(len(s))<<8 - 1
	for _, t := range ts {
		h := t * sigHashMul
		h = (h>>24 | h>>22<<8) & mask
		s[h>>8][h>>6&3] |= 1 << (h & 63)
	}
}

// missing counts the bits of s that b, no wider than s, lacks; each witnesses
// a distinct token of s's set outside b's.
//
// Once per check of a wide signature.
func (s sig) missing(b sig) (n int) {
	s = s[:len(b)]
	for k := range b {
		n += s[k].missing(&b[k])
	}
	return n
}

// missing is sig.missing on one block.
//
// Once per signature check.
func (p *sigBlock) missing(q *sigBlock) int {
	return bits.OnesCount64(p[0]&^q[0]) + bits.OnesCount64(p[1]&^q[1]) +
		bits.OnesCount64(p[2]&^q[2]) + bits.OnesCount64(p[3]&^q[3])
}

// probeSig is a probe's signature at every width, widest first, each the OR
// of the halves of the one before.
type probeSig [2*sigMaxBlocks - 1]sigBlock

// set makes p the signature of exactly ts at every width.
//
// Once per probe.
func (p *probeSig) set(ts []tokens.Rank) {
	sig(p[:sigMaxBlocks]).set(ts)
	for src, n := 0, sigMaxBlocks/2; n >= 1; src, n = src+2*n, n/2 {
		for i, dst := 0, src+2*n; i < n; i++ {
			for w := range p[dst+i] {
				p[dst+i][w] = p[src+i][w] | p[src+n+i][w]
			}
		}
	}
}

// at returns p at the width of n blocks.
//
// Once per check of a wide signature.
func (p *probeSig) at(n int) sig {
	off := 2 * (sigMaxBlocks - n)
	return p[off : off+n]
}

func (b *Bundle) hasPosted(tok tokens.Rank) bool {
	for _, p := range b.posted {
		if p == tok {
			return true
		}
	}
	return false
}

// Live reports the number of unevicted members.
func (b *Bundle) Live() int { return len(b.Members) }

// MinLen and MaxLen return the live member length extremes; both return 0
// when the bundle is empty.
func (b *Bundle) MinLen() int { return int(b.minLen) }

// MaxLen returns the largest live member length.
func (b *Bundle) MaxLen() int { return int(b.maxLen) }

// unionAdd grows Union by t's tokens in place when the bundle owns the
// backing array and it has room; otherwise it reallocates with headroom
// (so per-insert union growth is amortized allocation-free). The in-place
// path shifts the old union to the tail of the buffer and forward-merges
// into the front: the write cursor can never pass the shifted read cursor
// because the merge emits at most one element per element consumed.
func (b *Bundle) unionAdd(t []tokens.Rank) {
	need := len(b.Union) + len(t)
	if !b.unionOwned || cap(b.Union) < need {
		buf := make([]tokens.Rank, 0, need*2)
		b.Union = similarity.UnionInto(buf, b.Union, t)
		b.unionOwned = true
		return
	}
	u := b.Union
	buf := u[:need]
	shifted := buf[need-len(u):]
	copy(shifted, u)
	b.Union = similarity.UnionInto(buf[:0], shifted, t)
}

// add appends r as a member: the core shrinks to core ∩ r, existing deltas
// absorb the evicted core tokens, and the union grows by r's tokens.
// newCore must equal core ∩ r.Tokens when the bundle is non-empty — the
// caller already computed it for the grouping check, so add reuses it
// instead of re-merging; it may alias caller scratch (add copies before
// keeping it) and is ignored for the first member. Members and deltas come
// out of al's free list and slabs. add returns the tokens of r's first
// prefixLen tokens (at most r.Len(), the caller clamps) that were not yet
// posted for this bundle so the caller can extend the posting table; the
// result aliases b.posted and is valid until the next add.
func (b *Bundle) add(al *alloc, r *record.Record, prefixLen int, newCore []tokens.Rank) (newPostings []tokens.Rank) {
	m := al.member()
	m.Rec, m.id, m.ln = r, r.ID, int32(r.Len())
	ln := m.ln
	if len(b.Members) == 0 {
		// Records are immutable, so a singleton bundle can alias the
		// record's token slice; every later mutation path copies before
		// writing (unionAdd checks unionOwned, core shrink reallocates).
		b.Core = r.Tokens
		b.Union = r.Tokens
		b.unionOwned = false
		b.minLen, b.maxLen = ln, ln
		if ln >= sigMinLen {
			s := al.sigCell(b.slot, sigWidth(r.Len()))
			s.set(r.Tokens)
			b.hasSig, b.wideSig = true, len(s) > 1
		}
	} else {
		if len(newCore) != len(b.Core) {
			released := similarity.GetRanks()
			*released = similarity.SubtractInto(*released, b.Core, newCore)
			for _, o := range b.Members {
				buf := al.grab(len(o.Delta) + len(*released))
				o.Delta = similarity.UnionInto(buf, o.Delta, *released)
				al.commit(len(o.Delta))
			}
			b.Core = append(make([]tokens.Rank, 0, len(newCore)), newCore...)
			similarity.PutRanks(released)
		}
		b.unionAdd(r.Tokens)
		if b.hasSig {
			// Whatever r's length: the signature must cover every member.
			al.sigAt(b.slot, b.wideSig).add(r.Tokens)
		}
		buf := al.grab(r.Len())
		m.Delta = similarity.SubtractInto(buf, r.Tokens, b.Core)
		al.commit(len(m.Delta))
		if ln < b.minLen {
			b.minLen = ln
		}
		if ln > b.maxLen {
			b.maxLen = ln
		}
	}
	b.Members = append(b.Members, m)
	if n := int32(len(b.Members)); n > b.peak {
		b.peak = n
	}
	n0 := len(b.posted)
	if n0 == 0 { // a record's tokens are distinct: nothing to dedup against
		b.posted = append(b.posted, r.Tokens[:prefixLen]...)
		return b.posted
	}
	for _, tok := range r.Tokens[:prefixLen] {
		if !b.hasPosted(tok) {
			b.posted = append(b.posted, tok)
		}
	}
	return b.posted[n0:]
}

// remove drops the evicted member m, recomputes the length extremes over
// the survivors and, when the bundle has shrunk to half its peak, rebuilds
// Union — and the signature with it — from them. Removing the last member
// leaves the bundle dead: it lets go of Core, Union and a wide signature
// cell at once and keeps, besides its slot and reusable capacity, only
// posted, whose length counts the postings that still reference it.
func (b *Bundle) remove(al *alloc, m *Member) {
	w := 0
	b.minLen, b.maxLen = 0, 0
	for _, o := range b.Members {
		if o == m {
			continue
		}
		b.Members[w] = o
		w++
		ln := o.ln
		if b.minLen == 0 || ln < b.minLen {
			b.minLen = ln
		}
		if ln > b.maxLen {
			b.maxLen = ln
		}
	}
	clear(b.Members[w:])
	b.Members = b.Members[:w]
	if w == 0 {
		if b.wideSig {
			al.freeWide(b.slot)
		}
		*b = Bundle{Members: b.Members, posted: b.posted, slot: b.slot}
		return
	}
	if int32(w)*2 <= b.peak {
		b.rebuildUnion(al)
		b.peak = int32(w)
	}
}

// rebuildUnion recomputes Union as exactly the union of the live members'
// tokens, and the signature as exactly its bits. A lone survivor aliases
// its record like a fresh singleton; otherwise the fold ping-pongs between
// two pooled buffers and the result is copied once into storage of its
// exact size.
func (b *Bundle) rebuildUnion(al *alloc) {
	if len(b.Members) == 1 {
		b.Union, b.unionOwned = b.Members[0].Rec.Tokens, false
	} else {
		acc, next := similarity.GetRanks(), similarity.GetRanks()
		*acc = append(*acc, b.Members[0].Rec.Tokens...)
		for _, o := range b.Members[1:] {
			*next = similarity.UnionInto((*next)[:0], *acc, o.Rec.Tokens)
			acc, next = next, acc
		}
		b.Union = append(make([]tokens.Rank, 0, len(*acc)), *acc...)
		b.unionOwned = true
		similarity.PutRanks(acc)
		similarity.PutRanks(next)
	}
	if b.hasSig {
		al.sigAt(b.slot, b.wideSig).set(b.Union)
	}
}
