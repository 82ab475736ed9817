// Package similarity implements the set-similarity functions the join
// supports (Jaccard, Cosine, Dice, Overlap) together with the
// threshold-derived bounds every filter relies on: compatible length ranges,
// required overlaps, and prefix lengths. All bound computations are exact on
// integers — a tiny epsilon absorbs float rounding so that, e.g.,
// ceil(0.7*10) is 7 and not 8.
package similarity

import (
	"fmt"
	"math"

	"repro/internal/tokens"
)

// Func enumerates the supported similarity functions.
type Func int

const (
	// Jaccard is |x∩y| / |x∪y|.
	Jaccard Func = iota
	// Cosine is |x∩y| / sqrt(|x|·|y|).
	Cosine
	// Dice is 2·|x∩y| / (|x|+|y|).
	Dice
	// Overlap is the absolute intersection size |x∩y|; thresholds are
	// integral counts rather than fractions.
	Overlap
)

// String implements fmt.Stringer.
func (f Func) String() string {
	switch f {
	case Jaccard:
		return "jaccard"
	case Cosine:
		return "cosine"
	case Dice:
		return "dice"
	case Overlap:
		return "overlap"
	default:
		return fmt.Sprintf("Func(%d)", int(f))
	}
}

// ParseFunc converts a name produced by String back into a Func.
func ParseFunc(name string) (Func, error) {
	switch name {
	case "jaccard":
		return Jaccard, nil
	case "cosine":
		return Cosine, nil
	case "dice":
		return Dice, nil
	case "overlap":
		return Overlap, nil
	default:
		return 0, fmt.Errorf("similarity: unknown function %q", name)
	}
}

const eps = 1e-9

func ceilMul(t float64, l int) int {
	return int(math.Ceil(t*float64(l) - eps))
}

func floorDiv(l int, t float64) int {
	return int(math.Floor(float64(l)/t + eps))
}

// Of computes the similarity of two ascending rank slices.
func Of(f Func, a, b []tokens.Rank) float64 {
	o := IntersectSize(a, b)
	return FromOverlap(f, o, len(a), len(b))
}

// FromOverlap converts an intersection size into a similarity value given
// the two set sizes. Empty operands yield 0 for the fractional functions.
func FromOverlap(f Func, o, la, lb int) float64 {
	switch f {
	case Jaccard:
		u := la + lb - o
		if u == 0 {
			return 0
		}
		return float64(o) / float64(u)
	case Cosine:
		if la == 0 || lb == 0 {
			return 0
		}
		return float64(o) / math.Sqrt(float64(la)*float64(lb))
	case Dice:
		if la+lb == 0 {
			return 0
		}
		return 2 * float64(o) / float64(la+lb)
	case Overlap:
		return float64(o)
	default:
		panic("similarity: unknown Func")
	}
}

// MinSize returns the smallest partner size a record of size l can match at
// threshold t, per the length filter.
func MinSize(f Func, t float64, l int) int {
	switch f {
	case Jaccard:
		return ceilMul(t, l)
	case Cosine:
		return ceilMul(t*t, l)
	case Dice:
		return ceilMul(t/(2-t), l)
	case Overlap:
		return int(math.Ceil(t - eps))
	default:
		panic("similarity: unknown Func")
	}
}

// MaxSize returns the largest partner size a record of size l can match at
// threshold t. For Overlap there is no upper bound; math.MaxInt32 stands in.
func MaxSize(f Func, t float64, l int) int {
	switch f {
	case Jaccard:
		return floorDiv(l, t)
	case Cosine:
		return floorDiv(l, t*t)
	case Dice:
		return int(math.Floor(float64(l)*(2-t)/t + eps))
	case Overlap:
		return math.MaxInt32
	default:
		panic("similarity: unknown Func")
	}
}

// RequiredOverlap returns the minimum intersection size two records of
// sizes la and lb must share to reach threshold t (the equivalence between
// similarity thresholds and overlap thresholds that drives all filtering).
func RequiredOverlap(f Func, t float64, la, lb int) int {
	switch f {
	case Jaccard:
		return int(math.Ceil(t/(1+t)*float64(la+lb) - eps))
	case Cosine:
		return int(math.Ceil(t*math.Sqrt(float64(la)*float64(lb)) - eps))
	case Dice:
		return int(math.Ceil(t/2*float64(la+lb) - eps))
	case Overlap:
		return int(math.Ceil(t - eps))
	default:
		panic("similarity: unknown Func")
	}
}

// PrefixLen returns the symmetric ("mid") prefix length for a record of
// size l: any two records with similarity >= t must share a token within
// their first PrefixLen tokens under the global ordering, regardless of
// arrival order. It equals l - MinSize(l) + 1 because the required overlap
// with any compatible partner is at least MinSize(l).
func PrefixLen(f Func, t float64, l int) int {
	if l == 0 {
		return 0
	}
	p := l - MinSize(f, t, l) + 1
	if p < 1 {
		p = 1
	}
	if p > l {
		p = l
	}
	return p
}

// IntersectSize computes |a∩b| by linear merge of ascending rank slices.
func IntersectSize(a, b []tokens.Rank) int {
	o, _ := IntersectSizeLinear(a, b)
	return o
}

// VerifyOverlap decides whether |a∩b| >= required, merging with early
// termination: the scan aborts as soon as the remaining elements cannot
// reach the requirement. It returns the final overlap when the requirement
// is met (ok=true); when ok=false the returned overlap is a lower bound
// seen before aborting and must not be used as the true intersection size.
func VerifyOverlap(a, b []tokens.Rank, required int) (overlap int, ok bool) {
	overlap, _, ok = VerifyOverlapLinear(a, b, 0, 0, 0, required)
	return overlap, ok
}

// VerifyOverlapFrom behaves like VerifyOverlap but starts the merge at
// positions (i, j) with an already-accumulated overlap o. Prefix-based
// joiners use it to avoid re-scanning the prefix portion they already
// compared during candidate generation.
func VerifyOverlapFrom(a, b []tokens.Rank, i, j, o, required int) (overlap int, ok bool) {
	overlap, _, ok = VerifyOverlapLinear(a, b, i, j, o, required)
	return overlap, ok
}
