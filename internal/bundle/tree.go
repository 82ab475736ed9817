// Candidate-free verification: a path-compressed filter-and-verification
// tree (FVT) over the member prefixes of the bundle index. Probing
// descends shared-prefix paths once instead of walking posting lists,
// applies the filter predicates (length, position, suffix) at interior
// nodes — pruning whole subtrees instead of individual candidates — and
// accumulates the probe/member overlap on the way down, so reaching a
// leaf needs only a resume merge of the two suffixes: no candidate slice
// is ever materialized and no verification restarts from token zero.
//
// Soundness rests on three exact identities over ascending token sets:
//
//   - Prefix filter at nodes: every token on a tree path lies in the
//     member's probing prefix, so a probe-prefix token matched on the
//     path (`matched` below) is exactly the prefix-filter witness. A
//     subtree whose token range [seg[0], maxTok] cannot meet the probe's
//     remaining prefix tokens holds no candidates at all.
//   - Position filter at nodes: for any member y below a node reached
//     with acc matches, jr probe tokens consumed, and depth path tokens
//     consumed, overlap(r,y) <= acc + min(la-jr, ly-depth). Maximizing
//     over the subtree's (conservative) length range prunes the subtree.
//   - Resume merge at leaves: path tokens y[:depth] and consumed probe
//     tokens r[:jr] are disjoint from the opposite suffixes (ascending
//     order), so overlap(r,y) = acc + |r[jr:] ∩ y[depth:]| exactly.
//
// The tree is maintained incrementally under window insert/evict (SWOOP
// style): inserts splice one path, evictions decrement counts up the
// path and drop empty nodes, and a node whose live count halves below
// its peak gets its aggregates recomputed exactly — between rebuilds the
// minLen/maxLen/maxTok aggregates are stale-conservative, which keeps
// every prune sound.
//
// Every kernel and every pool size emits the byte-identical match stream
// as collect mode: verification is exact in both, the per-probe emission
// order is canonicalized (ascending partner ID, see emitCanonical), and
// the best-insertion rule is canonical too (max similarity, ties to the
// smallest partner ID), so grouping — and therefore index evolution — is
// mode-invariant.
package bundle

import (
	"fmt"

	"repro/internal/filter"
	"repro/internal/record"
	"repro/internal/similarity"
	"repro/internal/tokens"
)

// VerifyMode selects how a probe turns the index into verified matches.
type VerifyMode uint8

const (
	// VerifyCollect is the classic two-phase path: collect candidate
	// bundles from posting lists, then verify each. The zero value.
	VerifyCollect VerifyMode = iota
	// VerifyTree descends the filter-and-verification tree, producing
	// verified matches directly with no candidate list.
	VerifyTree
	// VerifyAuto maintains both structures and picks per probe: tree
	// once the window holds enough live members for shared-prefix
	// descent to pay off, collect below that.
	VerifyAuto
)

// autoTreeMinLive is the live-member count at which VerifyAuto switches
// a probe from collect to tree. Deterministic in index state, so serial
// and pooled runs make identical choices.
const autoTreeMinLive = 128

// treeSuffixDepth and treeSuffixMin gate the suffix filter at leaves:
// the partition bound is probed treeSuffixDepth levels deep, and only
// when both suffixes still hold at least treeSuffixMin tokens (below
// that the bounded merge is as cheap as the bound).
const (
	treeSuffixDepth = 2
	treeSuffixMin   = 16
)

// String implements fmt.Stringer.
func (v VerifyMode) String() string {
	switch v {
	case VerifyCollect:
		return "collect"
	case VerifyTree:
		return "tree"
	case VerifyAuto:
		return "auto"
	default:
		return fmt.Sprintf("VerifyMode(%d)", int(v))
	}
}

// ParseVerifyMode converts a name produced by String back into a
// VerifyMode. The empty string means collect (the default).
func ParseVerifyMode(name string) (VerifyMode, error) {
	switch name {
	case "", "collect":
		return VerifyCollect, nil
	case "tree":
		return VerifyTree, nil
	case "auto":
		return VerifyAuto, nil
	default:
		return 0, fmt.Errorf("bundle: unknown verify mode %q", name)
	}
}

// leafEntry anchors one live member at the tree node where its probing
// prefix ends, together with its bundle (the insertion hint target).
type leafEntry struct {
	b *Bundle
	m *Member
}

// treeNode is one path-compressed node: seg is the run of member-prefix
// tokens between the parent's split point and this node's, children are
// ordered by their distinct first tokens, and leaf holds the members
// whose whole prefix is the path down to here. The aggregates summarize
// the subtree for node-level filtering; between shrink rebuilds they are
// conservative (never tighter than the live contents).
type treeNode struct {
	seg      []tokens.Rank // aliases immutable record tokens
	children []*treeNode   // sorted by seg[0]
	leaf     []leafEntry

	minLen, maxLen int         // live member length range in subtree
	count, peak    int         // live members below; peak since last rebuild
	maxTok         tokens.Rank // max token on any path in subtree
}

// findChild returns the index of the first child with seg[0] >= t.
func (n *treeNode) findChild(t tokens.Rank) int {
	lo, hi := 0, len(n.children)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if n.children[mid].seg[0] < t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func commonPrefix(a, b []tokens.Rank) int {
	n := min(len(a), len(b))
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// maintainTree reports whether insert/evict must keep the tree current
// (tree and auto modes; auto maintains both structures).
func (bx *Index) maintainTree() bool { return bx.root != nil }

// useTree reports whether the next probe takes the tree path. The
// decision is a pure function of configuration and live-member count, so
// every pool size — and a replay of the same stream — picks identically.
func (bx *Index) useTree() bool {
	switch bx.cfg.VerifyMode {
	case VerifyTree:
		return true
	case VerifyAuto:
		return len(bx.fifo)-bx.head >= autoTreeMinLive
	default:
		return false
	}
}

// treeInsert splices member m of bundle b under its probing prefix,
// updating aggregates along the path. Segments alias the record's
// immutable token storage, so an insert allocates only the nodes it
// creates.
func (bx *Index) treeInsert(b *Bundle, m *Member, prefix []tokens.Rank) {
	ln := m.Rec.Len()
	var last tokens.Rank
	if len(prefix) > 0 {
		last = prefix[len(prefix)-1]
	}
	n := bx.root
	for {
		n.count++
		if n.count > n.peak {
			n.peak = n.count
		}
		if n.minLen == 0 || ln < n.minLen {
			n.minLen = ln
		}
		if ln > n.maxLen {
			n.maxLen = ln
		}
		if last > n.maxTok {
			n.maxTok = last
		}
		if len(prefix) == 0 {
			n.leaf = append(n.leaf, leafEntry{b: b, m: m})
			return
		}
		ci := n.findChild(prefix[0])
		if ci == len(n.children) || n.children[ci].seg[0] != prefix[0] {
			c := &treeNode{
				seg: prefix, leaf: []leafEntry{{b: b, m: m}},
				minLen: ln, maxLen: ln, count: 1, peak: 1, maxTok: last,
			}
			n.children = append(n.children, nil)
			copy(n.children[ci+1:], n.children[ci:])
			n.children[ci] = c
			bx.stats.TreeNodes++
			return
		}
		c := n.children[ci]
		k := commonPrefix(c.seg, prefix)
		if k < len(c.seg) {
			// Split c: a tail node inherits c's contents and aggregates
			// (the subtree is unchanged), c keeps the shared segment.
			tail := &treeNode{
				seg: c.seg[k:], children: c.children, leaf: c.leaf,
				minLen: c.minLen, maxLen: c.maxLen,
				count: c.count, peak: c.count, maxTok: c.maxTok,
			}
			c.seg = c.seg[:k]
			c.children = []*treeNode{tail}
			c.leaf = nil
			c.peak = c.count
			bx.stats.TreeNodes++
		}
		prefix = prefix[k:]
		n = c
	}
}

// treeRemove detaches m's leaf entry, decrementing counts up the path,
// dropping emptied nodes, and rebuilding aggregates of any node whose
// live count fell to half its peak (the same shrink heuristic as
// Bundle.remove — amortized O(subtree) over a halving).
func (bx *Index) treeRemove(m *Member, prefix []tokens.Rank) {
	bx.treeRemoveAt(bx.root, m, prefix)
}

func (bx *Index) treeRemoveAt(n *treeNode, m *Member, rest []tokens.Rank) {
	n.count--
	if len(rest) == 0 {
		for i := range n.leaf {
			if n.leaf[i].m == m {
				n.leaf = append(n.leaf[:i], n.leaf[i+1:]...)
				break
			}
		}
	} else {
		ci := n.findChild(rest[0])
		c := n.children[ci]
		bx.treeRemoveAt(c, m, rest[len(c.seg):])
		if c.count == 0 {
			n.children = append(n.children[:ci], n.children[ci+1:]...)
			bx.stats.TreeNodes--
		}
	}
	if n.count > 0 && n.count*2 <= n.peak {
		recomputeTree(n)
	}
}

// recomputeTree rebuilds the subtree aggregates exactly and resets the
// rebuild peaks.
func recomputeTree(n *treeNode) {
	n.minLen, n.maxLen = 0, 0
	n.maxTok = 0
	if len(n.seg) > 0 {
		n.maxTok = n.seg[len(n.seg)-1]
	}
	for i := range n.leaf {
		l := n.leaf[i].m.Rec.Len()
		if n.minLen == 0 || l < n.minLen {
			n.minLen = l
		}
		if l > n.maxLen {
			n.maxLen = l
		}
	}
	for _, c := range n.children {
		recomputeTree(c)
		if n.minLen == 0 || c.minLen < n.minLen {
			n.minLen = c.minLen
		}
		if c.maxLen > n.maxLen {
			n.maxLen = c.maxLen
		}
		if c.maxTok > n.maxTok {
			n.maxTok = c.maxTok
		}
	}
	n.peak = n.count
}

// treeWalk is the per-goroutine state of one tree descent: the probe's
// invariant parameters plus the walker's private stats, match sink, and
// best-insertion accumulator. The serial path uses the index-owned walk;
// each pool VerifyCtx carries its own, so fanned descents share no
// mutable state.
type treeWalk struct {
	bx *Index
	r  *record.Record
	rt []tokens.Rank

	la, pa int         // probe length, probe prefix length
	lo, hi int         // compatible partner length range
	maxPre tokens.Rank // last probe prefix token

	st      *Stats
	collect func(Match)
	best    Insertion
	found   bool
}

// prep binds w to probe r under bx. Called once per probe per context
// that participates in the descent.
func (w *treeWalk) prep(bx *Index, r *record.Record) {
	w.bx, w.r, w.rt = bx, r, r.Tokens
	w.la = r.Len()
	w.pa = bx.params.PrefixLen(w.la)
	if w.pa > w.la {
		w.pa = w.la
	}
	w.lo, w.hi = bx.probeLo, bx.probeHi
	w.maxPre = 0
	if w.pa > 0 {
		w.maxPre = w.rt[w.pa-1]
	}
	w.best, w.found = Insertion{}, false
}

// release drops the walk's pointers so a parked pool context does not
// retain the last probe's record.
func (w *treeWalk) release() {
	w.bx, w.r, w.rt = nil, nil, nil
}

// pruneChild decides whether child c's whole subtree can be skipped,
// given the descent state at its parent (jr probe tokens and depth path
// tokens consumed, acc matches, matched = prefix witness found). Every
// prune is counted; each is conservative, so pruning never changes the
// match stream.
//
// parcheck: runs on the verifier pool. Reads the tree; writes only w.
//
// hotpath: zero-alloc — runs once per (visited node, child).
func (w *treeWalk) pruneChild(c *treeNode, jr, acc, depth int, matched bool) bool {
	if !matched {
		// Prefix candidacy: the subtree's tokens lie in [seg[0], maxTok];
		// without a witness so far, some remaining probe prefix token
		// must fall in that range. Probe tokens before jr are already
		// strictly below every subtree token, so the scan resumes at jr.
		if c.seg[0] > w.maxPre {
			w.st.TreeSubtreesPruned++
			w.st.TreeCandsAvoided += uint64(c.count)
			return true
		}
		k := jr
		for k < w.pa && w.rt[k] < c.seg[0] {
			k++
		}
		if k >= w.pa || w.rt[k] > c.maxTok {
			w.st.TreeSubtreesPruned++
			w.st.TreeCandsAvoided += uint64(c.count)
			return true
		}
	}
	// Length filter over the subtree's (conservative) length range.
	if c.maxLen < w.lo || c.minLen > w.hi {
		w.st.TreeSubtreesPruned++
		w.st.TreeCandsAvoided += uint64(c.count)
		return true
	}
	// Position filter generalized to the subtree: the overlap upper bound
	// is maximized over compatible member lengths, the requirement
	// minimized (required overlap is nondecreasing in partner length).
	ml := c.minLen
	if w.lo > ml {
		ml = w.lo
	}
	ub := acc + min(w.la-jr, min(c.maxLen, w.hi)-depth)
	if ub < w.bx.params.RequiredOverlap(w.la, ml) {
		w.st.TreeSubtreesPruned++
		w.st.TreeCandsAvoided += uint64(c.count)
		return true
	}
	return false
}

// descend consumes n's segment against the probe, verifies the members
// anchored at n, and recurses into the children that survive pruning.
//
// parcheck: runs on the verifier pool. Reads the index and tree; all
// writes go to w (per-goroutine walk state).
//
// hotpath: zero-alloc — the probe inner loop of tree mode.
func (w *treeWalk) descend(n *treeNode, jr, acc, depth int, matched bool) {
	w.st.TreeNodesVisited++
	for _, t := range n.seg {
		for jr < w.la && w.rt[jr] < t {
			jr++
		}
		if jr < w.la && w.rt[jr] == t {
			if jr < w.pa {
				matched = true
			}
			acc++
			jr++
		}
		depth++
	}
	for i := range n.leaf {
		w.verifyLeaf(&n.leaf[i], jr, acc, depth, matched)
	}
	for _, c := range n.children {
		if w.pruneChild(c, jr, acc, depth, matched) {
			continue
		}
		w.descend(c, jr, acc, depth, matched)
	}
}

// verifyLeaf finishes one member: leaf-level filters, then a resume
// merge of the suffixes (or a full packed-bitset verify when the kernel
// dispatch prefers it). A passing member is emitted with its exact
// overlap — the match needs no further verification anywhere.
//
// parcheck: runs on the verifier pool. Reads the index and cached packed
// forms; all writes go to w.
//
// hotpath: zero-alloc — one call per anchored member on a visited node.
func (w *treeWalk) verifyLeaf(le *leafEntry, jr, acc, depth int, matched bool) {
	if !matched {
		// No shared prefix token: not a candidate. Collect mode may still
		// have verified this member through a bundle sibling's posting —
		// the avoided work the tree exists to cut.
		w.st.TreeCandsAvoided++
		return
	}
	y := le.m
	ly := y.Rec.Len()
	if ly < w.lo || ly > w.hi {
		return
	}
	w.st.MemberChecks++
	req := w.bx.params.RequiredOverlap(w.la, ly)
	// The bundle's signature bound holds for each of its members, so the
	// tree gets collect mode's gate, here against the member's own
	// requirement.
	if w.bx.sigBound(le.b, w.la) < req {
		w.st.TreeSigSkip++
		return
	}
	if acc+min(w.la-jr, ly-depth) < req {
		w.st.TreeLeafUBSkip++
		return
	}
	sa, sb := w.rt[jr:], y.Rec.Tokens[depth:]
	if len(sa) >= treeSuffixMin && len(sb) >= treeSuffixMin &&
		acc+filter.SuffixBound(sa, sb, treeSuffixDepth) < req {
		w.st.TreeSuffixSkip++
		return
	}
	kern := w.bx.cfg.Kernel
	ap, bp := w.bx.probeP, y.cold.at(slotFull)
	var (
		o, steps int
		ok       bool
	)
	if kern.Choose(w.la, ly, ap, bp) == similarity.KernelBitset {
		// Full packed verify: cheaper than the element-wise resume merge
		// when both sides carry dense packed forms.
		w.st.KernelBitset++
		o, steps, ok = similarity.VerifyOverlapPacked(ap, bp, req)
	} else {
		// Resume merge: overlap(r,y) = acc + |r[jr:] ∩ y[depth:]| exactly
		// (the consumed prefixes are disjoint from the opposite suffixes).
		var so int
		if kern.Choose(len(sa), len(sb), nil, nil) == similarity.KernelGallop {
			w.st.KernelGallop++
			so, steps, ok = similarity.VerifyOverlapGallop(sa, sb, req-acc)
		} else {
			w.st.KernelLinear++
			so, steps, ok = overlapStepsBounded(sa, sb, req-acc)
		}
		o = acc + so
	}
	w.st.Verified++
	w.st.VerifySteps += uint64(steps)
	if !ok {
		return
	}
	sim := similarity.FromOverlap(w.bx.params.Func, o, w.la, ly)
	w.st.Results++
	w.collect(Match{Rec: y.Rec, Overlap: o, Sim: sim, id: y.Rec.ID})
	if !w.found || betterIns(Insertion{Sim: sim, At: y.Rec.ID}, w.best) {
		w.best = Insertion{Bundle: le.b, Sim: sim, At: y.Rec.ID}
		w.found = true
	}
}

// expandRoot performs the root step of a descent — visit the root,
// verify its (never-candidate, empty-prefix) members, prune its children
// — and appends the surviving children to dst. Serial and pooled probes
// share it, so their counter totals agree exactly.
//
// hotpath: zero-alloc — dst is caller-owned reusable scratch.
func (w *treeWalk) expandRoot(dst []*treeNode) []*treeNode {
	root := w.bx.root
	w.st.TreeNodesVisited++
	for i := range root.leaf {
		w.verifyLeaf(&root.leaf[i], 0, 0, 0, false)
	}
	for _, c := range root.children {
		if w.pruneChild(c, 0, 0, 0, false) {
			continue
		}
		dst = append(dst, c)
	}
	return dst
}

// probeTree is the serial candidate-free probe: one descent from the
// root, canonical flush of the buffered matches, done. Matches leave the
// tree already verified.
func (bx *Index) probeTree(r *record.Record, emit func(Match)) (best Insertion, ok bool) {
	bx.stats.TreeProbes++
	bx.bindProbe(r)
	w := &bx.tw
	w.prep(bx, r)
	w.st, w.collect = &bx.stats, bx.emitAppend
	bx.emitBuf = bx.emitBuf[:0]
	if w.pa > 0 {
		bx.frontier = w.expandRoot(bx.frontier[:0])
		for _, c := range bx.frontier {
			w.descend(c, 0, 0, 0, false)
		}
	}
	best, ok = w.best, w.found
	w.release()
	bx.emitCanonical(emit)
	bx.finishProbe()
	return best, ok
}
