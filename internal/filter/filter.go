// Package filter bundles the candidate-pruning predicates of prefix-based
// set-similarity joins into one place with a uniform vocabulary: length
// filter, prefix filter, position filter, and the suffix filter used as an
// optional deep prune before verification. Every predicate is conservative:
// it never discards a true result pair.
package filter

import (
	"fmt"
	"math"

	"repro/internal/similarity"
	"repro/internal/tokens"
)

// Params fixes the similarity function and threshold a join runs with and
// precomputes nothing; all methods are cheap arithmetic over the
// similarity package's bounds.
type Params struct {
	Func      similarity.Func
	Threshold float64
}

// Validate refuses a threshold no join runs with: it must be positive and
// finite, and at most 1 unless Func is Overlap, whose threshold counts
// shared tokens.
func (p Params) Validate() error {
	if !(p.Threshold > 0) || math.IsInf(p.Threshold, 0) || p.Threshold > 1 && p.Func != similarity.Overlap {
		return fmt.Errorf("%v threshold %v out of range", p.Func, p.Threshold)
	}
	return nil
}

// LengthBounds returns the inclusive [lo, hi] partner-size range compatible
// with a record of size l.
func (p Params) LengthBounds(l int) (lo, hi int) {
	lo = similarity.MinSize(p.Func, p.Threshold, l)
	if lo < 1 {
		lo = 1
	}
	return lo, similarity.MaxSize(p.Func, p.Threshold, l)
}

// PrefixLen returns the symmetric prefix length for size l (see
// similarity.PrefixLen).
func (p Params) PrefixLen(l int) int {
	return similarity.PrefixLen(p.Func, p.Threshold, l)
}

// RequiredOverlap returns the overlap two records of sizes la, lb must
// reach.
func (p Params) RequiredOverlap(la, lb int) int {
	return similarity.RequiredOverlap(p.Func, p.Threshold, la, lb)
}

// LengthCompatible reports whether sizes la and lb can possibly reach the
// threshold.
func (p Params) LengthCompatible(la, lb int) bool {
	lo, hi := p.LengthBounds(la)
	return lb >= lo && lb <= hi
}

// PositionOK is the position filter: when records a (size la) and b
// (size lb) are first seen to collide at token positions ia and ib (0-based)
// with acc matching tokens accumulated so far (including the colliding one),
// the pair can still reach the required overlap only if the shorter
// remaining suffix plus acc suffices.
func (p Params) PositionOK(la, lb, ia, ib, acc int) bool {
	restA := la - ia - 1
	restB := lb - ib - 1
	rest := restA
	if restB < rest {
		rest = restB
	}
	return acc+rest >= p.RequiredOverlap(la, lb)
}

// SuffixBound returns an upper bound on the overlap between the suffixes
// a[ia:] and b[ib:] using the Hamming-style recursive partition bound of the
// suffix filter, exploring at most maxDepth partition levels. Conservative:
// the true suffix overlap never exceeds the returned bound.
func SuffixBound(a, b []tokens.Rank, maxDepth int) int {
	return suffixBound(a, b, maxDepth)
}

func suffixBound(a, b []tokens.Rank, depth int) int {
	la, lb := len(a), len(b)
	min := la
	if lb < min {
		min = lb
	}
	if depth <= 0 || min == 0 {
		return min
	}
	// Partition b around a's median token; overlap cannot cross the pivot.
	mid := la / 2
	pivot := a[mid]
	lo, hi := 0, lb
	for lo < hi {
		m := (lo + hi) / 2
		if b[m] < pivot {
			lo = m + 1
		} else {
			hi = m
		}
	}
	pb := lo // first index in b with b[pb] >= pivot
	match := 0
	rb := pb
	if pb < lb && b[pb] == pivot {
		match = 1
		rb = pb + 1
	}
	left := suffixBound(a[:mid], b[:pb], depth-1)
	right := suffixBound(a[mid+1:], b[rb:], depth-1)
	return left + match + right
}

// SuffixOK applies the suffix filter to candidate pair (a, b) that already
// accumulated acc overlapping tokens within prefixes ending at positions ia
// and ib (exclusive). It returns false only when the pair provably cannot
// reach the required overlap.
func (p Params) SuffixOK(a, b []tokens.Rank, ia, ib, acc, maxDepth int) bool {
	bound := acc + SuffixBound(a[ia:], b[ib:], maxDepth)
	return bound >= p.RequiredOverlap(len(a), len(b))
}
