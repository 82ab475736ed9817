// Kernel dispatch for the verify phase: every intersection in probeBundle
// funnels through overlapKernel/overlapKernelBounded, which run
// similarity's galloping merge when similarity.Gallops says the two lengths
// are skewed enough and its step-counting linear merge otherwise, and count
// the choice in Stats. The package merges no rank slices of its own: the
// kernels and the core/delta/union set operations are all in similarity.
// Both kernels compute exact intersection sizes, so the choice can never
// change the emitted match stream — only the work profile and the Kernel*
// counters.
package bundle

import (
	"repro/internal/similarity"
	"repro/internal/tokens"
)

// overlapKernel computes |a∩b|. steps is the kernel's own unit of work —
// merge iterations for linear, comparisons for gallop — reported into the
// same Stats columns, so step counts of the two kernels add up but are not
// the same unit.
//
// One call per verification merge.
func (bx *Index) overlapKernel(a, b []tokens.Rank) (o, steps int) {
	if similarity.Gallops(len(a), len(b)) {
		bx.stats.KernelGallop++
		return similarity.IntersectSizeGallop(a, b)
	}
	bx.stats.KernelLinear++
	return similarity.IntersectSizeLinear(a, b)
}

// overlapKernelBounded is overlapKernel with VerifyOverlap's early
// termination contract: ok reports whether required was met, and o is
// exact when ok and below required when not. The ok decision equals
// |a∩b| >= required for both kernels.
//
// One call per verification merge.
func (bx *Index) overlapKernelBounded(a, b []tokens.Rank, required int) (o, steps int, ok bool) {
	if similarity.Gallops(len(a), len(b)) {
		bx.stats.KernelGallop++
		return similarity.VerifyOverlapGallop(a, b, required)
	}
	bx.stats.KernelLinear++
	return similarity.VerifyOverlapLinear(a, b, 0, 0, 0, required)
}
