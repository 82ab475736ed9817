package bundle

import "repro/internal/tokens"

// posting is one (token, bundle slot) entry of the posting table.
type posting struct {
	tok  tokens.Rank
	slot uint32
}

const (
	// bucketInline postings fit a bucket's cache line beside its header.
	bucketInline = 7
	// postMinBits sizes the smallest table: 16 buckets, 1 KiB.
	postMinBits = 4
)

// pbucket is one cache line of the posting table: every posting whose token
// hashes here, whatever the token, in insertion order — the first
// bucketInline of them inline, the rest in the overflow list over[ovf-1],
// which a bucket that has overflowed once keeps, capacity included.
type pbucket struct {
	n   uint32 // postings in the bucket
	ovf uint32 // 1 + the overflow list's index in postTable.over; 0 = none
	inl [bucketInline]posting
}

// postTable is the posting directory: a power-of-two array of buckets
// addressed by a Fibonacci hash of the token. It holds no pointer, a token
// costs one line whether it is present or not, and any uint32 is a valid
// token — the memory is O(postings), never O(largest token). Postings of one
// token keep their insertion order through compaction and rebuilds.
type postTable struct {
	buckets []pbucket
	shift   uint32 // 32 − log2(len(buckets))
	n       int    // postings held
	over    [][]posting
}

func (t *postTable) bucket(tok tokens.Rank) *pbucket {
	return &t.buckets[tok*sigHashMul>>t.shift]
}

// overflow returns b's overflow list, nil while the inline slots hold b.
func (t *postTable) overflow(b *pbucket) []posting {
	if b.n > bucketInline {
		return t.over[b.ovf-1]
	}
	return nil
}

// at returns b's i-th posting, ov being b's overflow list.
func (b *pbucket) at(ov []posting, i uint32) posting {
	if i < bucketInline {
		return b.inl[i]
	}
	return ov[i-bucketInline]
}

// set stores p as b's i-th posting.
func (b *pbucket) set(ov []posting, i uint32, p posting) {
	if i < bucketInline {
		b.inl[i] = p
	} else {
		ov[i-bucketInline] = p
	}
}

// truncate ends an in-place compaction of b that kept w postings — probes
// and sweeps drop dead postings by copying the survivors down in order.
func (t *postTable) truncate(b *pbucket, ov []posting, w uint32) {
	if w == b.n {
		return
	}
	t.n -= int(b.n - w)
	b.n = w
	if ov != nil {
		t.over[b.ovf-1] = ov[:max(w, bucketInline)-bucketInline]
	}
}

// count returns the number of postings under tok, dead ones included.
//
// The count pass of collectCandidates: the loads of successive tokens are
// independent, so their misses overlap.
func (t *postTable) count(tok tokens.Rank) (c int) {
	b := t.bucket(tok)
	ov := t.overflow(b)
	for i := uint32(0); i < b.n; i++ {
		if b.at(ov, i).tok == tok {
			c++
		}
	}
	return c
}

// add appends a posting, doubling the table first at a mean of 4 a bucket.
func (t *postTable) add(p posting) {
	if t.n >= 4*len(t.buckets) {
		t.rebuild(32 - t.shift + 1)
	}
	b := t.bucket(p.tok)
	if b.n < bucketInline {
		b.inl[b.n] = p
	} else {
		if b.ovf == 0 {
			t.over = append(t.over, nil)
			b.ovf = uint32(len(t.over))
		}
		t.over[b.ovf-1] = append(t.over[b.ovf-1], p)
	}
	b.n++
	t.n++
}

// rebuild moves every posting, dead ones included, into a fresh table of
// 1<<bits buckets. All postings of a token share a bucket before and after,
// so visiting the old buckets in order keeps each token's sequence.
func (t *postTable) rebuild(bits uint32) {
	nt := postTable{buckets: make([]pbucket, 1<<bits), shift: 32 - bits}
	for k := range t.buckets {
		b := &t.buckets[k]
		ov := t.overflow(b)
		for i := uint32(0); i < b.n; i++ {
			nt.add(b.at(ov, i))
		}
	}
	*t = nt
}

// fit shrinks a table a sweep left below one posting per two buckets, to at
// most two per bucket; the sweep itself never allocates.
func (t *postTable) fit() {
	bits := uint32(postMinBits)
	for t.n > 2<<bits {
		bits++
	}
	if 2*t.n < len(t.buckets) && bits < 32-t.shift {
		t.rebuild(bits)
	}
}
