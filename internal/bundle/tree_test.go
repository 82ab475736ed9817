package bundle

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/record"
	"repro/internal/similarity"
	"repro/internal/tokens"
	"repro/internal/window"
)

func TestVerifyModeParseString(t *testing.T) {
	for _, m := range []VerifyMode{VerifyCollect, VerifyTree, VerifyAuto} {
		got, err := ParseVerifyMode(m.String())
		if err != nil || got != m {
			t.Fatalf("round trip %v: got %v err %v", m, got, err)
		}
	}
	if m, err := ParseVerifyMode(""); err != nil || m != VerifyCollect {
		t.Fatalf("empty string: %v %v", m, err)
	}
	if _, err := ParseVerifyMode("bogus"); err == nil {
		t.Fatal("bogus mode parsed")
	}
}

// TestVerifyModeParityMatchStream is the tentpole correctness gate: for
// every verify mode × kernel × pool size, the ordered match stream must
// be byte-identical to the collect-mode sequential reference. Work
// counters legitimately differ across modes (that is the point), so only
// streams are compared across modes; stats equality within a mode is
// covered by TestTreeStatsParitySerialParallel.
func TestVerifyModeParityMatchStream(t *testing.T) {
	stream := duplicateHeavyStream(rand.New(rand.NewSource(67)), 500, 40)
	kernels := []similarity.Kernel{
		similarity.KernelAuto, similarity.KernelLinear,
		similarity.KernelGallop, similarity.KernelBitset,
	}
	verifyModeParity(t, stream, kernels, []int{1, 2, 4, 8}, false)
}

// TestVerifyModeParityLongRecords checks that the signature bound prunes
// the same join in every mode: collect applies it per bundle, the tree per
// anchored member, auto both.
func TestVerifyModeParityLongRecords(t *testing.T) {
	stream := longDuplicateStream(rand.New(rand.NewSource(69)), 500)
	verifyModeParity(t, stream, []similarity.Kernel{similarity.KernelAuto}, []int{1, 3}, true)
}

func verifyModeParity(t *testing.T, stream []*record.Record, kernels []similarity.Kernel, pools []int, wantSigSkip bool) {
	for _, tau := range []float64{0.5, 0.8} {
		for _, win := range []window.Policy{window.Unbounded{}, window.Count{N: 60}} {
			want, wantStats := runSequential(stream, tau, win, Config{})
			if tau == 0.5 && len(want) == 0 {
				t.Fatal("degenerate workload: collect run found no matches")
			}
			if wantSigSkip && wantStats.BundleSigSkip == 0 {
				t.Fatalf("τ=%v win=%v: collect's signature gate never skipped a bundle", tau, win)
			}
			for _, mode := range []VerifyMode{VerifyTree, VerifyAuto} {
				for _, kern := range kernels {
					cfg := Config{
						VerifyMode: mode,
						Kernel:     similarity.KernelConfig{Mode: kern},
					}
					for _, p := range pools {
						got, st := runParallel(stream, tau, win, cfg, p)
						label := fmt.Sprintf("τ=%v win=%v mode=%v kern=%v P=%d", tau, win, mode, kern, p)
						requireStreams(t, label, got, want, Stats{}, Stats{})
						// Under the 60-record window auto never reaches
						// autoTreeMinLive and prunes through collect's gate.
						if wantSigSkip && st.TreeSigSkip+st.BundleSigSkip == 0 {
							t.Fatalf("%s: the signature bound never pruned anything", label)
						}
						if wantSigSkip && mode == VerifyTree && st.BundleSigSkip != 0 {
							t.Fatalf("%s: tree-only probes went through collect's gate", label)
						}
					}
				}
			}
		}
	}
}

// TestTreeStatsParitySerialParallel pins that a pooled tree probe does
// exactly the work of the serial tree probe: identical streams AND
// identical counter totals for any pool size, mirroring the collect-mode
// guarantee of TestParallelParityMatchStream.
func TestTreeStatsParitySerialParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	stream := duplicateHeavyStream(rng, 500, 40)
	for _, tau := range []float64{0.5, 0.8} {
		cfg := Config{VerifyMode: VerifyTree}
		want, wantStats := runSequential(stream, tau, window.Count{N: 80}, cfg)
		for _, p := range []int{2, 4, 8} {
			got, gotStats := runParallel(stream, tau, window.Count{N: 80}, cfg, p)
			requireStreams(t, fmt.Sprintf("tree τ=%v P=%d", tau, p), got, want, gotStats, wantStats)
		}
	}
}

// TestTreeJoinMatchesBruteForce grounds tree mode directly against the
// quadratic scan, independent of collect-mode parity.
func TestTreeJoinMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for _, tau := range []float64{0.5, 0.7, 0.85} {
		for _, win := range []window.Policy{window.Unbounded{}, window.Count{N: 25}} {
			bx := New(params(tau), win, Config{VerifyMode: VerifyTree})
			stream := duplicateHeavyStream(rng, 220, 50)
			got := make(map[record.Pair]bool)
			for _, r := range stream {
				bx.Process(r, func(m Match) {
					got[record.NewPair(r.ID, m.Rec.ID, 0)] = true
					if truth := similarity.IntersectSize(r.Tokens, m.Rec.Tokens); truth != m.Overlap {
						t.Fatalf("overlap wrong: got %d want %d", m.Overlap, truth)
					}
				})
			}
			want := bruteForce(stream, tau, win)
			if len(got) != len(want) {
				t.Fatalf("τ=%v win=%v: got %d pairs want %d", tau, win, len(got), len(want))
			}
			for pr := range want {
				if !got[pr] {
					t.Fatalf("τ=%v win=%v: missing %v", tau, win, pr)
				}
			}
		}
	}
}

// checkTree walks the whole tree asserting structural invariants: exact
// live counts, members anchored under exactly their probing prefix,
// conservative aggregates, sorted distinct children, and no dead or
// duplicated members.
func checkTree(t *testing.T, bx *Index) {
	t.Helper()
	if bx.root == nil {
		t.Fatal("index maintains no tree")
	}
	live := make(map[*Member]bool)
	for i := bx.head; i < len(bx.fifo); i++ {
		live[bx.fifo[i].m] = true
	}
	seen := make(map[*Member]bool)
	var nodes uint64
	var walk func(n *treeNode, path []tokens.Rank) int
	walk = func(n *treeNode, path []tokens.Rank) int {
		path = append(path, n.seg...)
		cnt := 0
		for _, le := range n.leaf {
			cnt++
			if !live[le.m] {
				t.Fatalf("dead or unknown member %d in tree", le.m.Rec.ID)
			}
			if seen[le.m] {
				t.Fatalf("member %d anchored twice", le.m.Rec.ID)
			}
			seen[le.m] = true
			l := le.m.Rec.Len()
			if l < n.minLen || l > n.maxLen {
				t.Fatalf("member %d len %d outside node range [%d,%d]", le.m.Rec.ID, l, n.minLen, n.maxLen)
			}
			p := bx.params.PrefixLen(l)
			if p > l {
				p = l
			}
			want := le.m.Rec.Tokens[:p]
			if len(want) != len(path) {
				t.Fatalf("member %d: path len %d, prefix len %d", le.m.Rec.ID, len(path), len(want))
			}
			for i := range want {
				if want[i] != path[i] {
					t.Fatalf("member %d: path %v != prefix %v", le.m.Rec.ID, path, want)
				}
			}
		}
		var prev tokens.Rank
		for i, c := range n.children {
			nodes++
			if len(c.seg) == 0 {
				t.Fatal("empty child segment")
			}
			if i > 0 && c.seg[0] <= prev {
				t.Fatalf("children unsorted: %d after %d", c.seg[0], prev)
			}
			prev = c.seg[0]
			if c.count == 0 {
				t.Fatal("empty subtree not detached")
			}
			if len(path) > 0 && c.seg[0] <= path[len(path)-1] {
				t.Fatalf("path tokens not ascending: %d under %v", c.seg[0], path)
			}
			if c.maxTok > n.maxTok {
				t.Fatalf("child maxTok %d above parent %d", c.maxTok, n.maxTok)
			}
			cnt += walk(c, path)
		}
		if n.count != cnt {
			t.Fatalf("node count %d, walked %d", n.count, cnt)
		}
		return cnt
	}
	total := walk(bx.root, nil)
	if total != len(live) {
		t.Fatalf("tree holds %d members, window holds %d", total, len(live))
	}
	if nodes != bx.stats.TreeNodes {
		t.Fatalf("TreeNodes gauge %d, walked %d", bx.stats.TreeNodes, nodes)
	}
}

// TestTreeMaintenanceEvictionHeavy churns the tree with a tiny sliding
// window — every record inserts one path and evicts roughly one member —
// while probing continuously, checking the lifecycle invariants of both
// indexes after every step and full tree structure at several points. Run
// under -race in CI, it also exercises the fanned-descent happens-before
// edges. The narrow universe keeps every posting list hot, so probes
// compact dead postings themselves; the wide one leaves them to the sweep.
func TestTreeMaintenanceEvictionHeavy(t *testing.T) {
	for _, universe := range []int{35, 6000} {
		rng := rand.New(rand.NewSource(79))
		stream := duplicateHeavyStream(rng, 1200, universe)
		for _, p := range []int{1, 3} {
			label := fmt.Sprintf("eviction-heavy universe=%d P=%d", universe, p)
			bxTree := New(params(0.6), window.Count{N: 40}, Config{VerifyMode: VerifyTree})
			bxColl := New(params(0.6), window.Count{N: 40}, Config{})
			pool := NewPool(p)
			var treeOut, collOut []emitted
			for i, r := range stream {
				processPar(bxTree, pool, r, func(m Match) {
					treeOut = append(treeOut, emitted{r.ID, m.Rec.ID, m.Overlap, m.Sim})
				})
				bxColl.Process(r, func(m Match) {
					collOut = append(collOut, emitted{r.ID, m.Rec.ID, m.Overlap, m.Sim})
				})
				checkInvariants(t, bxTree)
				checkInvariants(t, bxColl)
				if i%250 == 0 || i == len(stream)-1 {
					checkTree(t, bxTree)
				}
			}
			pool.Close()
			requireStreams(t, label, treeOut, collOut, Stats{}, Stats{})
			if bxTree.stats.Evicted == 0 {
				t.Fatal("window never evicted")
			}
			if universe == 35 && bxTree.stats.TreeSubtreesPruned == 0 {
				t.Fatal("tree never pruned a subtree")
			}

			// checkInvariants recounted LiveBundles and Postings at every
			// step; what is left is that the counters moved, and how.
			ct, tt := bxColl.Stats(), bxTree.Stats()
			if ct.LiveBundles == 0 || ct.LiveBundles > 41 || ct.LiveBundles != tt.LiveBundles {
				t.Fatalf("%s: LiveBundles collect=%d tree=%d in a 40-record window", label, ct.LiveBundles, tt.LiveBundles)
			}
			if tt.Postings != 0 || tt.DeadPostSkips != 0 || tt.RebuildSweeps != 0 {
				t.Fatalf("%s: tree-only index touched posting lists: %+v", label, tt)
			}
			if ct.Postings == 0 || ct.DeadPostSkips == 0 {
				t.Fatalf("%s: Postings=%d DeadPostSkips=%d", label, ct.Postings, ct.DeadPostSkips)
			}
			if universe == 6000 && ct.RebuildSweeps == 0 {
				t.Fatalf("%s: dead postings no probe walks were never swept", label)
			}
		}
	}
}

// TestTreeAvoidsCandidates pins the headline perf claim at the unit
// level: on a bundle-heavy stream, tree mode verifies measurably fewer
// members than collect mode (identical matches), and reports the
// avoidance in its counters.
func TestTreeAvoidsCandidates(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	stream := duplicateHeavyStream(rng, 800, 40)
	_, coll := runSequential(stream, 0.6, window.Unbounded{}, Config{})
	_, tree := runSequential(stream, 0.6, window.Unbounded{}, Config{VerifyMode: VerifyTree})
	if tree.Results != coll.Results {
		t.Fatalf("result mismatch: tree=%d collect=%d", tree.Results, coll.Results)
	}
	if tree.Verified >= coll.Verified {
		t.Fatalf("tree did not reduce verifications: tree=%d collect=%d", tree.Verified, coll.Verified)
	}
	if tree.TreeCandsAvoided == 0 || tree.TreeSubtreesPruned == 0 {
		t.Fatalf("avoidance not counted: %+v", tree)
	}
	if tree.TreeProbes != coll.Records {
		t.Fatalf("TreeProbes=%d, want one per record %d", tree.TreeProbes, coll.Records)
	}
}

// TestAutoModeSwitches drives enough records past autoTreeMinLive that
// auto mode must start answering probes from the tree, while staying
// byte-identical to collect.
func TestAutoModeSwitches(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	stream := duplicateHeavyStream(rng, 2*autoTreeMinLive, 60)
	want, _ := runSequential(stream, 0.6, window.Unbounded{}, Config{})
	got, st := runSequential(stream, 0.6, window.Unbounded{}, Config{VerifyMode: VerifyAuto})
	requireStreams(t, "auto", got, want, Stats{}, Stats{})
	if st.TreeProbes == 0 {
		t.Fatal("auto mode never took the tree path")
	}
	if st.TreeProbes >= st.Records {
		t.Fatal("auto mode never took the collect path")
	}
}

// FuzzTreeVsCollect is the differential fuzz gate: random windows,
// thresholds and token streams; tree mode (serial and pooled) must emit
// the byte-identical ordered match stream as collect mode.
func FuzzTreeVsCollect(f *testing.F) {
	f.Add([]byte{8, 3, 1, 2, 3, 4, 0, 3, 1, 2, 5, 0, 3, 2, 3, 4})
	f.Add([]byte{40, 5, 9, 9, 9, 9, 9, 0})
	f.Add([]byte{0, 4, 7, 1, 7, 3, 0, 4, 1, 3, 7, 9, 0, 2, 7, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 || len(data) > 512 {
			t.Skip()
		}
		// Byte 0 picks the window (0 = unbounded), byte 1 the threshold;
		// the rest is a stream of length-prefixed token lists.
		var win window.Policy = window.Unbounded{}
		if n := int64(data[0]); n > 0 {
			win = window.Count{N: n}
		}
		tau := 0.5 + float64(data[1]%5)*0.1
		var stream []*record.Record
		i := 2
		for id := 0; i < len(data) && id < 64; id++ {
			n := int(data[i]%12) + 1
			i++
			var ranks []tokens.Rank
			for k := 0; k < n && i < len(data); k++ {
				ranks = append(ranks, tokens.Rank(data[i]%48))
				i++
			}
			if len(ranks) == 0 {
				break
			}
			stream = append(stream, rec(record.ID(id), ranks...))
		}
		if len(stream) == 0 {
			t.Skip()
		}
		want, _ := runSequential(stream, tau, win, Config{})
		for _, p := range []int{1, 3} {
			got, _ := runParallel(stream, tau, win, Config{VerifyMode: VerifyTree}, p)
			requireStreams(t, fmt.Sprintf("fuzz tree P=%d", p), got, want, Stats{}, Stats{})
		}
		gotAuto, _ := runSequential(stream, tau, win, Config{VerifyMode: VerifyAuto})
		requireStreams(t, "fuzz auto", gotAuto, want, Stats{}, Stats{})
	})
}

// TestAdaptiveMinLenNeverChangesResults pins satellite guarantee: kernel
// adaptation moves BitsetMinLen (within its clamps) but can never change
// the match stream. The stream is near-duplicates of long dense records
// over a narrow universe: unrelated records of that shape are rejected by
// the signature gate before any kernel runs, so only pairs similar enough
// to pass it — here mostly a duplicate probing its original's singleton
// bundle, both sides packed — feed the kernel mix. The bitset share is
// high and the cutoff is driven downward.
func TestAdaptiveMinLenNeverChangesResults(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	var stream []*record.Record
	var protos [][]tokens.Rank
	for i := 0; i < 2*adaptInterval+50; i++ {
		var set []tokens.Rank
		if len(protos) > 0 && rng.Float64() < 0.4 {
			set = append(set, protos[len(protos)-1-rng.Intn(min(len(protos), 40))]...)
			for k := 1 + rng.Intn(3); k > 0; k-- {
				set[rng.Intn(len(set))] = tokens.Rank(rng.Intn(160))
			}
		} else {
			for len(set) < 90 {
				set = append(set, tokens.Rank(rng.Intn(160)))
			}
			protos = append(protos, set)
		}
		stream = append(stream, rec(record.ID(i), set...))
	}
	want, _ := runSequential(stream, 0.5, window.Count{N: 200}, Config{})
	if len(want) == 0 {
		t.Fatal("degenerate workload: no matches")
	}
	cfgA := Config{Kernel: similarity.KernelConfig{AdaptiveMinLen: true}}
	bx := New(params(0.5), window.Count{N: 200}, cfgA)
	var got []emitted
	for _, r := range stream {
		bx.Process(r, func(m Match) {
			got = append(got, emitted{r.ID, m.Rec.ID, m.Overlap, m.Sim})
		})
	}
	requireStreams(t, "adaptive", got, want, Stats{}, Stats{})
	cut := bx.Config().Kernel.BitsetMinLen
	if cut < adaptMinLen || cut > adaptMaxLen {
		t.Fatalf("adapted cutoff %d outside clamps", cut)
	}
	if cut == 64 {
		st := bx.Stats()
		t.Fatalf("cutoff never adapted on a bitset-heavy stream: %d (linear %d gallop %d bitset %d)",
			cut, st.KernelLinear, st.KernelGallop, st.KernelBitset)
	}
}
