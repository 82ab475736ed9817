// Verification kernels: two set-intersection routines and the rule that
// picks between them. The linear merge in similarity.go is the reference;
// this file adds a galloping (exponential-search) merge for skewed length
// ratios, where the short side drives binary probes into the long side,
// and Gallops, which chooses per merge from the two lengths alone. Both
// kernels compute the exact intersection size, so the join's emitted
// matches do not depend on the choice — only the work profile does. The
// bounded variants share VerifyOverlap's contract: ok reports whether the
// requirement was met, and the returned overlap is exact when ok and a
// meaningless lower bound when !ok. DESIGN.md § "Why there is no bitset
// kernel" has the trial that retired the third, word-packed kernel.
package similarity

import "repro/internal/tokens"

// gallopMinRatio is the len(long)/len(short) ratio from which the
// galloping merge runs. It costs O(short · log(long/short)); below the
// ratio the linear merge's branch-predictable scan wins.
const gallopMinRatio = 8

// Gallops reports whether a merge of an la-element set against an
// lb-element set runs the galloping kernel (the linear merge otherwise).
// An empty side always gallops: the merge is over before it starts.
//
// Runs once per verification merge.
func Gallops(la, lb int) bool {
	short, long := la, lb
	if short > long {
		short, long = long, short
	}
	return long >= short*gallopMinRatio
}

// gallopTo returns the smallest index i >= from with b[i] >= x, probing
// exponentially from `from` and binary-searching the final window. probes
// counts comparisons, the galloping merge's unit of work.
//
// Runs once per short-side element.
func gallopTo(b []tokens.Rank, from int, x tokens.Rank) (idx, probes int) {
	n := len(b)
	if from >= n || b[from] >= x {
		return from, 1
	}
	// Exponential probe: window (from+step/2, from+step] with b[lo] < x.
	step := 1
	lo := from
	for lo+step < n && b[lo+step] < x {
		lo += step
		step <<= 1
		probes++
	}
	hi := lo + step
	if hi > n {
		hi = n
	}
	// Binary search in (lo, hi): b[lo] < x <= b[hi] (virtual +inf at n).
	for lo+1 < hi {
		mid := int(uint(lo+hi) >> 1)
		probes++
		if b[mid] < x {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi, probes + 1
}

// IntersectSizeGallop computes |a∩b| by galloping the shorter side
// through the longer. Both slices must be ascending.
//
// Verification inner loop.
func IntersectSizeGallop(a, b []tokens.Rank) (o, probes int) {
	if len(a) > len(b) {
		a, b = b, a
	}
	j := 0
	for i := 0; i < len(a) && j < len(b); i++ {
		idx, p := gallopTo(b, j, a[i])
		probes += p
		j = idx
		if j < len(b) && b[j] == a[i] {
			o++
			j++
		}
	}
	return o, probes
}

// VerifyOverlapGallop decides |a∩b| >= required by galloping merge with
// early termination (VerifyOverlap's contract: exact overlap when ok).
//
// Verification inner loop.
func VerifyOverlapGallop(a, b []tokens.Rank, required int) (o, probes int, ok bool) {
	if len(a) > len(b) {
		a, b = b, a
	}
	j := 0
	for i := 0; i < len(a) && j < len(b); i++ {
		rest := len(a) - i
		if lb := len(b) - j; lb < rest {
			rest = lb
		}
		if o+rest < required {
			return o, probes, false
		}
		idx, p := gallopTo(b, j, a[i])
		probes += p
		j = idx
		if j < len(b) && b[j] == a[i] {
			o++
			j++
		}
	}
	return o, probes, o >= required
}
