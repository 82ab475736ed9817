// Kernel dispatch for the verify phase: every intersection in probeBundle
// funnels through overlapKernel/overlapKernelBounded, which run the
// galloping merge when similarity.Gallops says the two lengths are skewed
// enough and the linear merge otherwise, and count the choice in Stats.
// Both kernels compute exact intersection sizes, so the choice can never
// change the emitted match stream — only the work profile and the Kernel*
// counters. They read nothing but their operands, which keeps the fanned
// ProbePar path lock-free.
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
// Runs on the verifier pool. All writes go to st.
//
// One call per verification merge.
func overlapKernel(st *Stats, a, b []tokens.Rank) (o, steps int) {
	if similarity.Gallops(len(a), len(b)) {
		st.KernelGallop++
		return similarity.IntersectSizeGallop(a, b)
	}
	st.KernelLinear++
	return overlapSteps(a, b)
}

// overlapKernelBounded is overlapKernel with VerifyOverlap's early
// termination contract: ok reports whether required was met, and o is
// exact when ok. The ok decision equals |a∩b| >= required for both
// kernels.
//
// Runs on the verifier pool. All writes go to st.
//
// One call per verification merge.
func overlapKernelBounded(st *Stats, a, b []tokens.Rank, required int) (o, steps int, ok bool) {
	if similarity.Gallops(len(a), len(b)) {
		st.KernelGallop++
		return similarity.VerifyOverlapGallop(a, b, required)
	}
	st.KernelLinear++
	return overlapStepsBounded(a, b, required)
}
