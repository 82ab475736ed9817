package bundle

import "repro/internal/tokens"

// alloc is the index's allocator for the insert path. Members, bundles
// and delta slices are small and allocated once per record, which made
// them the top allocation sites in the end-to-end profile; carving them
// out of chunked slabs turns one heap allocation per object into one per
// chunk. Slab objects are never handed back to the runtime: an evicted
// member and a dead bundle whose last posting is gone go onto a free list
// that the next insert pops before any new chunk is carved, so the slabs
// stop growing once they cover the window's peak (plus, for bundles, the
// dead ones the posting lists still reference — see Index.sweep for that
// bound) and a steady-state insert allocates neither. Delta slices are
// carved from rank chunks that the collector reclaims once every delta in
// a chunk has been dropped. Owned by the single-writer index goroutine.
//
// Every bundle has a slot id — chunk index × bundleChunk + offset in the
// chunk — fixed when it is carved and kept across death and recycling.
// Postings hold slot ids instead of pointers (half the bytes, nothing for the
// collector to scan, no write barrier on compaction), and the per-bundle side
// tables — the hot entries and the signatures — are addressed by it.
type alloc struct {
	members []Member
	bundles []Bundle // uncarved tail of the newest bundle chunk
	freeM   []*Member
	freeB   []*Bundle
	chunk   []tokens.Rank
	used    int

	// bchunks is the bundle chunk directory, indexed by slot >> bundleShift;
	// hots (see hot), sigs and wide run parallel to it. sigs holds the
	// base-width signatures of a chunk's bundles and wide, for a bundle with a
	// wider one (Bundle.wideSig), the reference of its cell in wslab; each is
	// nil until a bundle of the chunk needs it (see Bundle.add), so an index
	// of short records pays neither the 32 B nor the 4 B per bundle.
	bchunks []*[bundleChunk]Bundle
	hots    []*[bundleChunk]hot
	sigs    []*[bundleChunk]sigBlock
	wide    []*[bundleChunk]uint32

	// wslab is the slab of wide cells — sigMaxBlocks blocks each, of which a
	// 512-bit signature uses half — wideLeft of them uncarved in the newest
	// chunk; a reference is (cell + 1) << 1 | 1 for 1 024 bits. freeW holds the
	// cells (+ 1) of dead bundles: the pool covers the window's peak, no more.
	wslab    []*[sigMaxBlocks << wideShift]sigBlock
	wideLeft int
	freeW    []uint32

	// memberChunks counts the member slab chunks carved so far (len(bchunks)
	// is the same for bundles): the allocator's whole footprint in objects,
	// which the window-bound test asserts on.
	memberChunks int
}

const (
	memberChunk = 256
	bundleShift = 7
	bundleChunk = 1 << bundleShift
	rankChunk   = 8192
	wideShift   = 5 // log2 cells per wslab chunk: 4 KiB
)

// hot is the 8 bytes of a bundle the posting walk reads per posting, so the
// 98 % of postings the stamp, the length band or the signature reject never
// load the 128-byte Bundle; mirror keeps it current.
type hot struct {
	// seen is the probe sequence number of the last collectCandidates call
	// that visited the bundle: the per-probe dedup stamp (see resetStamps).
	seen uint32
	// lo and hi copy Bundle.minLen and maxLen, saturating at hotLoMax and
	// hotLenMax — exact below the cap, at it only ever too small. lo carries
	// hotSig and hotWide (Bundle.hasSig, wideSig), hi hotLive: hi == 0 is dead.
	lo, hi uint16
}

const (
	hotLenMax = 1<<15 - 1
	hotLoMax  = 1<<14 - 1
	hotSig    = 1 << 15 // in hot.lo
	hotWide   = 1 << 14 // in hot.lo
	hotLive   = 1 << 15 // in hot.hi
)

// member hands out a zeroed *Member, recycled when possible.
func (al *alloc) member() *Member {
	if n := len(al.freeM); n > 0 {
		m := al.freeM[n-1]
		al.freeM = al.freeM[:n-1]
		return m
	}
	if len(al.members) == 0 {
		al.members = make([]Member, memberChunk)
		al.memberChunks++
	}
	m := &al.members[0]
	al.members = al.members[1:]
	return m
}

// freeMember recycles an evicted member nothing references any more.
func (al *alloc) freeMember(m *Member) {
	*m = Member{}
	al.freeM = append(al.freeM, m)
}

// bundle hands out a zeroed *Bundle (apart from retained Members/posted
// capacity), recycled when possible.
func (al *alloc) bundle() *Bundle {
	if n := len(al.freeB); n > 0 {
		b := al.freeB[n-1]
		al.freeB = al.freeB[:n-1]
		return b
	}
	if len(al.bundles) == 0 {
		c := new([bundleChunk]Bundle)
		al.bchunks = append(al.bchunks, c)
		al.hots = append(al.hots, new([bundleChunk]hot))
		al.sigs = append(al.sigs, nil)
		al.wide = append(al.wide, nil)
		al.bundles = c[:]
	}
	b := &al.bundles[0]
	b.slot = uint32(len(al.bchunks)*bundleChunk - len(al.bundles))
	al.bundles = al.bundles[1:]
	return b
}

// at resolves a slot id to its bundle.
//
// Once per candidate and per dead posting dropped.
func (al *alloc) at(slot uint32) *Bundle {
	return &al.bchunks[slot>>bundleShift][slot&(bundleChunk-1)]
}

// hotAt resolves a slot id to its hot entry.
//
// Once per posting scanned.
func (al *alloc) hotAt(slot uint32) *hot {
	return &al.hots[slot>>bundleShift][slot&(bundleChunk-1)]
}

// mirror brings b's hot entry up to date after Bundle.add or remove; death
// zeroes it, stamp included.
func (al *alloc) mirror(b *Bundle) {
	h := al.hotAt(b.slot)
	if len(b.Members) == 0 {
		*h = hot{}
		return
	}
	h.lo, h.hi = uint16(min(b.minLen, hotLoMax)), hotLive|uint16(min(b.maxLen, hotLenMax))
	if b.hasSig {
		h.lo |= hotSig
	}
	if b.wideSig {
		h.lo |= hotWide
	}
}

// sigAt returns the signature of a bundle that has one (hasSig), at its own
// width (wide: its wideSig); the verify phase only ever reads it.
//
// Once per check of a wide signature.
func (al *alloc) sigAt(slot uint32, wide bool) sig {
	c, i := slot>>bundleShift, slot&(bundleChunk-1)
	if !wide {
		return al.sigs[c][i : i+1]
	}
	ref := al.wide[c][i]
	cell := int(ref>>1 - 1)
	off := cell & (1<<wideShift - 1) * sigMaxBlocks
	return al.wslab[cell>>wideShift][off : off+2<<(ref&1)]
}

// sigCell is sigAt for the insert path, which gives a bundle its signature,
// n blocks wide: it allocates the chunk's side table on first use and, for
// n > 1, takes a free wide cell or carves one; the caller clears it.
func (al *alloc) sigCell(slot uint32, n int) sig {
	c, i := slot>>bundleShift, slot&(bundleChunk-1)
	if n == 1 {
		if al.sigs[c] == nil {
			al.sigs[c] = new([bundleChunk]sigBlock)
		}
		return al.sigAt(slot, false)
	}
	if al.wide[c] == nil {
		al.wide[c] = new([bundleChunk]uint32)
	}
	var cell uint32
	if f := len(al.freeW); f > 0 { // the steady state: allocates nothing
		cell, al.freeW = al.freeW[f-1], al.freeW[:f-1]
	} else {
		if al.wideLeft == 0 {
			al.wslab = append(al.wslab, new([sigMaxBlocks << wideShift]sigBlock))
			al.wideLeft = 1 << wideShift
		}
		cell = uint32(len(al.wslab)<<wideShift - al.wideLeft + 1)
		al.wideLeft--
	}
	al.wide[c][i] = cell<<1 | uint32(n/sigMaxBlocks)
	return al.sigAt(slot, true)
}

// freeWide takes back the wide cell of a bundle that just died.
//
// The free-list push is an amortised self-append.
func (al *alloc) freeWide(slot uint32) {
	ref := &al.wide[slot>>bundleShift][slot&(bundleChunk-1)]
	al.freeW = append(al.freeW, *ref>>1)
	*ref = 0
}

// freeBundle recycles a dead bundle (Bundle.remove already reset it) that
// no posting references any more.
func (al *alloc) freeBundle(b *Bundle) {
	al.freeB = append(al.freeB, b)
}

// grab reserves room for up to n ranks and returns an empty slice with
// exactly that capacity (three-index, so an append past the reservation
// can never clobber a neighbour — it falls back to a fresh allocation
// instead). Callers append at most n elements and then commit the length
// they actually used; the unused remainder of the reservation is
// reclaimed for the next grab.
func (al *alloc) grab(n int) []tokens.Rank {
	if cap(al.chunk)-al.used < n {
		c := rankChunk
		if n > c {
			c = n
		}
		al.chunk = make([]tokens.Rank, c)
		al.used = 0
	}
	return al.chunk[al.used : al.used : al.used+n]
}

// commit advances the chunk cursor past the n ranks the caller kept.
func (al *alloc) commit(n int) { al.used += n }
