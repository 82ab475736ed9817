package similarity

import (
	"sync"

	"repro/internal/tokens"
)

// rankScratch recycles rank-slice scratch buffers across goroutines.
// Joiners use them for candidate and verification intermediates (trial
// intersections, released-token sets) whose lifetime is one probe or
// insert, keeping the join hot loop allocation-flat. sync.Pool is
// internally synchronized; the slices themselves are owned exclusively by
// the borrower between Get and Put.
var rankScratch = sync.Pool{New: func() interface{} {
	b := make([]tokens.Rank, 0, 64)
	return &b
}}

// GetRanks borrows an empty rank buffer from the pool. Return it with
// PutRanks when the intermediate result is no longer referenced.
func GetRanks() *[]tokens.Rank {
	b := rankScratch.Get().(*[]tokens.Rank)
	*b = (*b)[:0]
	return b
}

// PutRanks returns a buffer borrowed with GetRanks. The caller must not
// retain any alias to the slice afterwards.
func PutRanks(b *[]tokens.Rank) { rankScratch.Put(b) }

// IntersectInto appends a∩b (both ascending) to dst and returns it —
// the allocation-free counterpart of building a fresh intersection slice.
// dst may be a pooled scratch buffer, or may alias a's backing array from
// index 0 (dst = a[:0], the in-place idiom): the write cursor never passes
// the read cursor, so a is consumed before it is overwritten. dst must not
// otherwise overlap a, and must never alias b.
func IntersectInto(dst, a, b []tokens.Rank) []tokens.Rank {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			dst = append(dst, a[i])
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return dst
}

// SubtractInto appends a\b (both ascending) to dst and returns it. dst may
// be a pooled scratch buffer, or may alias a's backing array from index 0
// (dst = a[:0], same argument as IntersectInto). dst must not otherwise
// overlap a, and must never alias b.
func SubtractInto(dst, a, b []tokens.Rank) []tokens.Rank {
	i, j := 0, 0
	for i < len(a) {
		for j < len(b) && b[j] < a[i] {
			j++
		}
		if j < len(b) && b[j] == a[i] {
			i++
			j++
			continue
		}
		dst = append(dst, a[i])
		i++
	}
	return dst
}

// UnionInto merges a ∪ b (both ascending) onto dst, appending after dst's
// existing elements, and returns the extended slice. When dst has spare
// capacity the merge is allocation-free; dst may share its backing array
// with a as long as a sits at or beyond the write region (the in-place
// idiom the bundle's union growth uses: copy a to the tail of the buffer,
// merge into its front), because every element of a is read in the same
// iteration that can first overwrite it. dst must never alias b.
func UnionInto(dst, a, b []tokens.Rank) []tokens.Rank {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			dst = append(dst, a[i])
			i++
			j++
		case a[i] < b[j]:
			dst = append(dst, a[i])
			i++
		default:
			dst = append(dst, b[j])
			j++
		}
	}
	dst = append(dst, a[i:]...)
	return append(dst, b[j:]...)
}
