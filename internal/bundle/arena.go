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
type alloc struct {
	members []Member
	bundles []Bundle
	freeM   []*Member
	freeB   []*Bundle
	chunk   []tokens.Rank
	used    int

	// memberChunks and bundleChunks count the slab chunks carved so far:
	// the allocator's whole footprint in objects, which the window-bound
	// test asserts on.
	memberChunks, bundleChunks int
}

const (
	memberChunk = 256
	bundleChunk = 128
	rankChunk   = 8192
)

// member hands out a zeroed *Member (apart from a retained, invalidated
// pack cache), recycled when possible.
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
	m.cold.invalidate()
	*m = Member{cold: m.cold}
	al.freeM = append(al.freeM, m)
}

// bundle hands out a zeroed *Bundle (apart from retained Members/posted
// capacity and an invalidated pack cache), recycled when possible.
func (al *alloc) bundle() *Bundle {
	if n := len(al.freeB); n > 0 {
		b := al.freeB[n-1]
		al.freeB = al.freeB[:n-1]
		return b
	}
	if len(al.bundles) == 0 {
		al.bundles = make([]Bundle, bundleChunk)
		al.bundleChunks++
	}
	b := &al.bundles[0]
	al.bundles = al.bundles[1:]
	return b
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
