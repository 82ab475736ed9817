// Kernel dispatch for the verify phase: every intersection in probeBundle
// funnels through overlapKernel/overlapKernelBounded, which pick the
// linear merge, the galloping merge, or the packed-bitset intersection
// per similarity.KernelConfig and count the choice in Stats. All kernels
// compute exact intersection sizes, so the kernel setting can never
// change the emitted match stream — only the work profile and the
// Kernel* counters. Packed forms are built by the single-writer phases
// (Bundle.add, Bundle.remove, collectCandidates for the probe) and
// read-only during verification, which keeps the fanned ProbePar path
// lock-free.
package bundle

import (
	"repro/internal/record"
	"repro/internal/similarity"
	"repro/internal/tokens"
)

// packs is the cold side of a Member or a Bundle: the cached bitset forms
// of its two token sets and their validity flags ("packed and current" as
// opposed to "not packed under this kernel config"). It is allocated the
// first time ShouldPack says yes for the object, so on workloads that
// never pack — every benchmark workload under the auto kernel — the hot
// structs carry one nil pointer instead of 128 bytes of empty caches.
// Maintained only by the single-writer insert/evict phases.
type packs struct {
	set [2]similarity.Packed
	ok  [2]bool
}

// Slot names: a Member caches Rec.Tokens and Delta, a Bundle Core and
// Union.
const (
	slotFull, slotDelta = 0, 1
	slotCore, slotUnion = 0, 1
)

// at returns the slot's packed form, nil when there is none or it is
// stale (including a nil p) — the form the kernel dispatch takes.
func (p *packs) at(slot int) *similarity.Packed {
	if p == nil || !p.ok[slot] {
		return nil
	}
	return &p.set[slot]
}

// invalidate marks both slots stale, keeping their buffers for reuse.
func (p *packs) invalidate() {
	if p != nil {
		p.ok = [2]bool{}
	}
}

// packIf rebuilds the packed form of set in slot of *pp when the kernel
// config wants one for a set of this length, and records the outcome in
// the slot's flag.
func packIf(kern similarity.KernelConfig, pp **packs, slot int, set []tokens.Rank) {
	p := *pp
	if !kern.ShouldPack(set) {
		if p != nil {
			p.ok[slot] = false
		}
		return
	}
	if p == nil {
		p = new(packs)
		*pp = p
	}
	similarity.PackInto(&p.set[slot], set)
	p.ok[slot] = true
}

// packProbe builds the probe record's packed form when the kernel config
// wants one and points probeP at it (nil otherwise). The index holds a
// single probe cache, so it lives in the Index itself rather than behind
// a packs.
//
// hotpath: zero-alloc — once per probe; PackInto reuses the cache's slices.
func (bx *Index) packProbe(r *record.Record) {
	bx.probeP = nil
	if bx.cfg.Kernel.ShouldPack(r.Tokens) {
		similarity.PackInto(&bx.probeBuf, r.Tokens)
		bx.probeP = &bx.probeBuf
	}
}

// overlapKernel computes |a∩b| with the configured kernel. ap/bp are the
// cached packed forms of a and b, nil when a side has none. steps is the
// kernel's own unit of work — merge iterations for linear, comparisons
// for gallop, word merges for bitset — reported into the same Stats
// columns as before, so step counts are only comparable within one
// kernel setting.
//
// parcheck: runs on the verifier pool. Reads the index and the cached
// packed forms; all writes go to st.
//
// hotpath: zero-alloc — one call per verification merge.
func (bx *Index) overlapKernel(st *Stats, a []tokens.Rank, ap *similarity.Packed, b []tokens.Rank, bp *similarity.Packed) (o, steps int) {
	switch bx.cfg.Kernel.Choose(len(a), len(b), ap, bp) {
	case similarity.KernelGallop:
		st.KernelGallop++
		return similarity.IntersectSizeGallop(a, b)
	case similarity.KernelBitset:
		st.KernelBitset++
		return similarity.IntersectSizePacked(ap, bp)
	default:
		st.KernelLinear++
		return overlapSteps(a, b)
	}
}

// overlapKernelBounded is overlapKernel with VerifyOverlap's early
// termination contract: ok reports whether required was met, and o is
// exact when ok. The ok decision equals |a∩b| >= required for every
// kernel, so bounded calls are kernel-parity-safe too.
//
// parcheck: runs on the verifier pool. Reads the index and the cached
// packed forms; all writes go to st.
//
// hotpath: zero-alloc — one call per verification merge.
func (bx *Index) overlapKernelBounded(st *Stats, a []tokens.Rank, ap *similarity.Packed, b []tokens.Rank, bp *similarity.Packed, required int) (o, steps int, ok bool) {
	switch bx.cfg.Kernel.Choose(len(a), len(b), ap, bp) {
	case similarity.KernelGallop:
		st.KernelGallop++
		return similarity.VerifyOverlapGallop(a, b, required)
	case similarity.KernelBitset:
		st.KernelBitset++
		return similarity.VerifyOverlapPacked(ap, bp, required)
	default:
		st.KernelLinear++
		o, steps, ok = overlapStepsBounded(a, b, required)
		return o, steps, ok
	}
}
