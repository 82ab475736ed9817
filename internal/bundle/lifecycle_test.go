package bundle

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/record"
	"repro/internal/tokens"
	"repro/internal/window"
	"repro/internal/workload"
)

// checkInvariants asserts the index's object lifecycle — live → dead →
// recycled — over the whole index: every live bundle's algebra and cached
// length range, posting counts against the counters that gate the sweep,
// and that nothing on a free list is still reachable or still holds state.
func checkInvariants(t *testing.T, bx *Index) {
	t.Helper()

	liveB := make(map[*Bundle]bool)
	liveM := make(map[*Member]bool)
	twinM := make(map[*Member]bool) // queued with a nil bundle: in the twin table
	for i, fe := range bx.fifo {
		if i < bx.head {
			if fe != (fifoEntry{}) {
				t.Fatalf("fifo[%d] before head not cleared", i)
			}
			continue
		}
		if liveM[fe.m] {
			t.Fatalf("member %d queued twice", fe.m.Rec.ID)
		}
		liveM[fe.m] = true
		if fe.b == nil {
			twinM[fe.m] = true
		} else {
			liveB[fe.b] = true
		}
	}
	liveSets := checkTwins(t, bx, twinM, liveM)
	members, wide := 0, 0
	for b := range liveB {
		checkBundle(t, b)
		if b.wideSig {
			wide++
		}
		if bx.al.at(b.slot) != b {
			t.Fatalf("live bundle is not the one its slot %d resolves to", b.slot)
		}
		for _, m := range b.Members {
			if !liveM[m] {
				t.Fatalf("bundle holds member %d that the window does not", m.Rec.ID)
			}
			// The signature covers every member, whatever joined or left,
			// at the bundle's own width: the base cell or a wide one.
			if b.hasSig {
				bs := bx.al.sigAt(b.slot, b.wideSig)
				if (len(bs) > 1) != b.wideSig || sigOf(len(bs), m.Rec.Tokens).missing(bs) != 0 {
					t.Fatalf("%d-bit signature of bundle %d (wideSig=%v) lacks bits of member %d", len(bs)*256, b.slot, b.wideSig, m.Rec.ID)
				}
			}
		}
		members += len(b.Members)
	}
	if members+len(twinM) != len(liveM) {
		t.Fatalf("bundles hold %d members and the twin table %d, window holds %d", members, len(twinM), len(liveM))
	}
	if got := bx.stats.LiveBundles; got != uint64(len(liveB)+liveSets) {
		t.Fatalf("LiveBundles %d, recount %d bundles and %d twin sets", got, len(liveB), liveSets)
	}
	// Wide cells: one per live wide bundle, every other one on a free list.
	checkWidePool(t, &bx.al, wide)

	// Every posting names a slot the allocator carved, and belongs to a
	// live bundle that lists its token or to a dead bundle that only counts
	// it.
	perBundle := make(map[*Bundle]int)
	var total, dead uint64
	for _, p := range tableCensus(t, &bx.posts) {
		tok, slot := p.tok, p.slot
		b := bx.al.at(slot)
		if b.slot != slot {
			t.Fatalf("slot %d resolves to a bundle that believes it is slot %d", slot, b.slot)
		}
		total++
		perBundle[b]++
		switch {
		case len(b.Members) == 0:
			dead++
		case !liveB[b]:
			t.Fatalf("posting under token %d references a bundle outside the window", tok)
		case !b.hasPosted(tok):
			t.Fatalf("live bundle posted under token %d without recording it", tok)
		}
	}
	if total != uint64(bx.posts.n) || dead != bx.deadPosts {
		t.Fatalf("postings %d (dead %d), counters say %d (dead %d)", total, dead, bx.posts.n, bx.deadPosts)
	}
	if dead > total-dead+sweepFloor {
		t.Fatalf("%d dead postings against %d live: the sweep bound does not hold", dead, total-dead)
	}
	for b := range liveB {
		perBundle[b] += 0 // a live bundle may have no posting at all (a zero-token record's singleton)
	}
	for b, n := range perBundle {
		if n != len(b.posted) {
			t.Fatalf("bundle has %d postings, posted counts %d", n, len(b.posted))
		}
	}

	// Free lists: zero apart from retained capacity, unreachable.
	for _, m := range bx.al.freeM {
		if m.Rec != nil || m.Delta != nil || m.id != 0 || m.ln != 0 || m.set != 0 {
			t.Fatalf("recycled member not reset: %+v", *m)
		}
		if liveM[m] {
			t.Fatal("free-listed member still reachable")
		}
	}
	for _, b := range bx.al.freeB {
		if len(b.Members) != 0 || len(b.posted) != 0 || b.Core != nil || b.Union != nil ||
			*bx.al.hotAt(b.slot) != (hot{}) || b.minLen != 0 || b.maxLen != 0 || b.peak != 0 || b.unionOwned || b.hasSig || b.wideSig ||
			bx.al.at(b.slot) != b {
			t.Fatalf("recycled bundle not reset: %+v", *b)
		}
		for _, m := range b.Members[:cap(b.Members)] {
			if m != nil {
				t.Fatal("recycled bundle keeps a member reachable through spare capacity")
			}
		}
		if liveB[b] || perBundle[b] != 0 {
			t.Fatal("free-listed bundle still reachable")
		}
	}
	// Census: a carved bundle is live, dead with postings still to drop, or
	// free — anything else has leaked out of the lifecycle.
	carved := len(bx.al.bchunks)*bundleChunk - len(bx.al.bundles)
	if len(perBundle)+len(bx.al.freeB) != carved {
		t.Fatalf("%d bundles carved: %d live or dead-posted, %d free", carved, len(perBundle), len(bx.al.freeB))
	}
	// The hot entry of every carved slot mirrors its bundle: dead iff no
	// member, the signature bits, and a band that contains the exact one and
	// equals it below the saturation points.
	for slot := uint32(0); slot < uint32(carved); slot++ {
		b, h := bx.al.at(slot), *bx.al.hotAt(slot)
		lo, hi := int(h.lo&hotLoMax), int(h.hi&^hotLive)
		switch {
		case (h.hi == 0) != (len(b.Members) == 0), (h.lo&hotSig != 0) != b.hasSig, (h.lo&hotWide != 0) != b.wideSig:
			t.Fatalf("slot %d: hot %+v against %d members, hasSig=%v wideSig=%v", slot, h, len(b.Members), b.hasSig, b.wideSig)
		case lo != min(b.MinLen(), hotLoMax) || hi != min(b.MaxLen(), hotLenMax):
			t.Fatalf("slot %d: hot band [%d,%d], bundle [%d,%d]", slot, lo, hi, b.MinLen(), b.MaxLen())
		}
	}
}

// checkTwins asserts the containment regime's table against the fifo:
// every linked twin entry holds 1..MaxMembers of the records queued with a
// nil bundle, all of its token set and of a length in the regime, oldest
// first, under the entry's hash and bucket, and together the entries hold
// each such record exactly once. An entry's tokens are its newest copy's
// own slice, and each copy inline is the record and ID of a queued Member
// that names the entry (a bundle's member names none). The twin count is
// the table's, and every carved twin entry is linked or on the free list,
// a free one holding no tokens and no copies. Every key entry is linked once, in arrival order; a live one
// stores a queued record under one of its length's subset keys, hashed and
// bucketed as that subset, and each record's keys are all linked once; the
// dead ones, of records that left the window, are a prefix that Evict keeps
// to at most the live keys (beyond 2·sweepFloor). It returns the number of
// linked twin entries.
func checkTwins(t *testing.T, bx *Index, twinM, liveM map[*Member]bool) int {
	t.Helper()
	tt := &bx.sets
	linked, held, dead, chained := 0, 0, 0, make(map[int32]bool)
	keyed := make(map[*Member]map[uint16]bool)
	queued := make(map[*record.Record]*Member)
	for m := range liveM {
		if twinM[m] {
			queued[m.Rec] = m
		} else if m.set != 0 {
			t.Fatalf("bundle member %d names twin entry %d", m.id, m.set)
		}
	}
	spare := func(cs []twinCopy) bool {
		return slices.ContainsFunc(cs, func(c twinCopy) bool { return c != twinCopy{} })
	}
	for bkt, hs := range tt.heads {
		for i := hs[1]; i != 0; i = tt.keys[i-1].next {
			e := &tt.keys[i-1]
			if chained[i] {
				t.Fatalf("key entry %d chained twice", i-1)
			}
			if chained[i] = true; e.seq < bx.stats.Evicted {
				dead++ // its record left the window: dropped lazily
				continue
			}
			m := bx.fifo[bx.head+int(e.seq-bx.stats.Evicted)].m
			keys, _ := bx.masks(int(m.ln))
			toks := m.Rec.Tokens
			if !liveM[m] || !slices.Contains(keys, e.skip) || keyed[m][e.skip] ||
				e.hash != subHash(setHash(toks), toks, e.skip) || int(e.hash>>tt.shift) != bkt {
				t.Fatalf("key entry %d: record %d %v under %b, hash %x in bucket %d", i-1, m.Rec.ID, toks, e.skip, e.hash, bkt)
			}
			if keyed[m] == nil {
				keyed[m] = make(map[uint16]bool)
			}
			keyed[m][e.skip] = true
		}
		for i := hs[0]; i != 0; i = tt.at(i).next {
			s := tt.at(i)
			live := s.ms
			linked++
			if len(live) == 0 || len(live) > bx.cfg.MaxMembers || s.hash != setHash(s.toks) || int(s.hash>>tt.shift) != bkt {
				t.Fatalf("twin entry %d: %d live, hash %x in bucket %d", i, len(live), s.hash, bkt)
			}
			if newest := live[len(live)-1].rec.Tokens; unsafe.SliceData(s.toks) != unsafe.SliceData(newest) || len(s.toks) != len(newest) {
				t.Fatalf("twin entry %d: tokens %v are not its newest copy's (record %d)", i, s.toks, live[len(live)-1].id)
			}
			for k, c := range live {
				m := queued[c.rec]
				if m == nil || m.id != c.id || m.set != i || c.id != c.rec.ID || !bx.inSets(c.rec.Len()) ||
					!slices.Equal(c.rec.Tokens, s.toks) || (k > 0 && c.id <= live[k-1].id) {
					t.Fatalf("twin entry %d holds record %d %v out of place (queued %v)", i, c.rec.ID, c.rec.Tokens, m != nil)
				}
			}
			if spare(s.ms[len(s.ms):cap(s.ms)]) {
				t.Fatalf("twin entry %d keeps a dequeued copy", i)
			}
			held += len(live)
		}
	}
	if held != len(twinM) {
		t.Fatalf("twin table holds %d records, the fifo queues %d", held, len(twinM))
	}
	nkeys := 0
	for m := range liveM {
		keys, _ := bx.masks(int(m.ln))
		if len(keyed[m]) != len(keys) {
			t.Fatalf("record %d of %d tokens has %d of its %d subset keys linked", m.Rec.ID, m.ln, len(keyed[m]), len(keys))
		}
		nkeys += len(keys)
	}
	for i := range tt.keys {
		if (i > 0 && tt.keys[i].seq < tt.keys[i-1].seq) || (i < dead) != (tt.keys[i].seq < bx.stats.Evicted) {
			t.Fatalf("key entry %d of record %d out of arrival order (%d dead)", i, tt.keys[i].seq, dead)
		}
	}
	if len(chained) != len(tt.keys) || nkeys+dead != len(tt.keys) || dead > max(nkeys, 2*sweepFloor) || linked != tt.nsets {
		t.Fatalf("%d key entries: %d chained, %d live, %d dead; %d twin entries linked, the table counts %d",
			len(tt.keys), len(chained), nkeys, dead, linked, tt.nsets)
	}
	freeSets := 0
	for i := tt.freeSets; i != 0; i = tt.at(i).next {
		s := tt.at(i)
		if freeSets++; len(s.ms) != 0 || s.toks != nil || spare(s.ms[:cap(s.ms)]) {
			t.Fatalf("free twin entry %d not reset: %+v", i, *s)
		}
	}
	if linked+freeSets != int(tt.carved) || len(tt.chunks) != (int(tt.carved)+setChunk-1)/setChunk {
		t.Fatalf("%d twin entries carved in %d chunks: %d linked, %d free", tt.carved, len(tt.chunks), linked, freeSets)
	}
	return linked
}

// wideStream is duplicateHeavyStream over a universe so wide that a probe
// rarely walks the list a dead posting sits in: the shape on which dead
// postings pile up and only the sweep can bound them.
func wideStream(seed int64, n int) []*record.Record {
	return duplicateHeavyStream(rand.New(rand.NewSource(seed)), n, 6000)
}

// TestLifecycleSmallWindow runs the index, sequential and pooled, over a
// window small enough that every object is recycled many times, checking
// the lifecycle invariants after every step, the match stream against the
// sequential reference, and that recycling and sweeping actually happened.
func TestLifecycleSmallWindow(t *testing.T) {
	stream := wideStream(101, 1500)
	// A zero-token record founds a bundle that posts nothing, which retire
	// must recycle the moment it dies.
	for i := 50; i < len(stream); i += 100 {
		stream[i].Tokens = nil
	}
	lifecycleSmallWindow(t, stream, false)
}

// TestLifecycleLongRecords recycles bundles that carry signatures: a slot's
// signature cell is reused by whichever bundle the slot holds next, so a
// stale or unreset signature would surface as a lost match or a broken
// superset invariant.
func TestLifecycleLongRecords(t *testing.T) {
	lifecycleSmallWindow(t, longDuplicateStream(rand.New(rand.NewSource(105)), 600), true)
}

// TestLifecycleWideSignatures takes the fat tail through a window of 20:
// slots pass between bundles of all three signature widths, and the wide
// cells of both sizes are carved for the window's peak and then handed on
// (checkInvariants audits the pool after every step).
func TestLifecycleWideSignatures(t *testing.T) {
	bx := New(params(0.6), window.Count{N: 20}, Config{})
	founded := make(map[int]int) // signature blocks → bundles founded
	for _, r := range longStream(rand.New(rand.NewSource(127)), 220, 1500) {
		before := bx.stats.Bundles
		bx.Process(r, func(Match) {})
		checkInvariants(t, bx)
		if b := bx.fifo[len(bx.fifo)-1].b; bx.stats.Bundles > before && b.hasSig {
			founded[len(bx.al.sigAt(b.slot, b.wideSig))]++
			if want := widthFor(r.Len()); len(bx.al.sigAt(b.slot, b.wideSig)) != want {
				t.Fatalf("record %d of %d tokens founded a %d-bit bundle, want %d bits", r.ID, r.Len(), len(bx.al.sigAt(b.slot, b.wideSig))*256, want*256)
			}
		}
	}
	carved := len(bx.al.wslab)<<wideShift - bx.al.wideLeft
	if founded[1] < 20 || founded[2] < 20 || founded[4] < 20 || len(bx.al.freeB) == 0 || len(bx.al.bchunks) > 2 ||
		carved > 21 || len(bx.al.freeW) == 0 {
		t.Fatalf("founded by width %v in %d bundle chunk(s), %d free bundles; %d wide cells carved, %d free",
			founded, len(bx.al.bchunks), len(bx.al.freeB), carved, len(bx.al.freeW))
	}
}

func lifecycleSmallWindow(t *testing.T, stream []*record.Record, wantSigSkip bool) {
	const win = 140
	want, _ := runSequential(stream, 0.6, window.Count{N: win}, Config{})
	if len(want) == 0 {
		t.Fatal("degenerate workload: no matches")
	}
	bx := New(params(0.6), window.Count{N: win}, Config{})
	var got []emitted
	var peak uint64 // bundles in use: live, plus dead ones awaiting their last posting
	for _, r := range stream {
		bx.Process(r, func(m Match) {
			got = append(got, emitted{r.ID, m.Rec.ID, m.Overlap, m.Sim})
		})
		checkInvariants(t, bx)
		if n := bx.stats.LiveBundles + bx.deadPosts; n > peak {
			peak = n
		}
	}
	requireStreams(t, "second index", got, want, Stats{}, Stats{})

	// Inserts are served from the free lists: the slabs cover the
	// most objects ever in use at once, not the stream.
	st := bx.Stats()
	if carved := uint64(len(bx.al.bchunks) * bundleChunk); bx.al.memberChunks != 1 || carved > peak+bundleChunk {
		t.Fatalf("%d member chunks; %d bundles carved, at most %d in use at once",
			bx.al.memberChunks, carved, peak)
	}
	if st.LiveBundles == 0 || st.LiveBundles > win+1 || st.LiveBundles >= st.Bundles {
		t.Fatalf("LiveBundles=%d of %d ever created", st.LiveBundles, st.Bundles)
	}
	if wantSigSkip && st.BundleSigSkip == 0 {
		t.Fatal("the signature bound never pruned anything")
	}
	if st.RebuildSweeps == 0 || st.DeadPostSkips == 0 {
		t.Fatalf("sweeps=%d dead postings dropped=%d", st.RebuildSweeps, st.DeadPostSkips)
	}
}

// TestSweepAfterBurst evicts a whole burst at once under a time window:
// one sweep must return the index — the posting table, every bundle and
// member, and the wide signature cells every twentieth record founds — to
// the size of what is live.
func TestSweepAfterBurst(t *testing.T) {
	const burst = 3000
	bx := New(params(0.6), window.Time{Span: 10}, Config{})
	for i, r := range wideStream(113, burst) {
		if i%20 == 0 { // a long record: 200 to 573 ranks of its own
			r.Tokens = span(10000+600*i, 200+i/8)
		}
		r.Time = int64(i) / burst // all of the burst inside one span
		bx.Process(r, func(Match) {})
	}
	checkInvariants(t, bx)
	if held := len(bx.al.wslab)<<wideShift - bx.al.wideLeft; held != burst/20 || len(bx.al.freeW) != 0 {
		t.Fatalf("burst not resident: %d wide cells for %d long records", held, burst/20)
	}
	buckets, st := len(bx.posts.buckets), bx.Stats()
	if st.RebuildSweeps != 0 || st.LiveMembers != burst || st.Postings < burst/2 || buckets*4 < burst/2 {
		t.Fatalf("burst not resident: sweeps=%d members=%d postings=%d buckets=%d", st.RebuildSweeps, st.LiveMembers, st.Postings, buckets)
	}
	late := rec(burst, 1, 2, 3, 4) // above cMax (3 at τ 0.6): a bundle
	late.Time = 1000
	bx.Process(late, func(Match) {})
	checkInvariants(t, bx)
	st = bx.Stats()
	if st.RebuildSweeps != 1 || st.LiveMembers != 1 || st.LiveBundles != 1 || st.Postings != uint64(bx.params.PrefixLen(late.Len())) {
		t.Fatalf("after the burst expired: %+v", st)
	}
	if n := len(bx.posts.buckets); n != 1<<postMinBits || len(bx.posts.over) != 0 {
		t.Fatalf("posting table not back at its minimum: %d buckets, %d overflow lists", n, len(bx.posts.over))
	}
	if free := len(bx.al.freeB) + 1; free != len(bx.al.bchunks)*bundleChunk-len(bx.al.bundles) {
		t.Fatalf("%d bundles free or live, %d carved", free, len(bx.al.bchunks)*bundleChunk-len(bx.al.bundles))
	}
	// The pool is back at its floor: every wide cell on a free list (the
	// checkInvariants above found none held and none leaked).
	if free := len(bx.al.freeW); free != burst/20 {
		t.Fatalf("%d wide cells free after %d wide bundles died", free, burst/20)
	}
}

// TestEmitOrderIsDiscoveryOrder pins the emission contract: matches leave a
// probe in the order verification finds them — candidate order, then member
// order — which is a function of index state alone. So a second index fed
// the same records emits the same sequence with the same counters, and per
// probe it is a permutation of the brute-force partner set.
func TestEmitOrderIsDiscoveryOrder(t *testing.T) {
	cases := []struct {
		profile workload.Profile
		n       int
		tau     float64
		win     window.Count
	}{
		{workload.AOLLike(42), 6000, 0.8, window.Count{N: 1500}},
		{workload.EnronLike(42), 1200, 0.7, window.Count{N: 300}},
	}
	unsorted := 0
	for _, tc := range cases {
		stream := workload.NewGenerator(tc.profile).Generate(tc.n)
		want, wantStats := runSequential(stream, tc.tau, tc.win, Config{})
		if wantStats.Evicted == 0 || wantStats.Appends == 0 {
			t.Fatalf("%s: degenerate stream: %+v", tc.profile.Name, wantStats)
		}
		// The same records through a second index: the determinism check.
		bx := New(params(tc.tau), tc.win, Config{})
		var got []emitted
		for _, r := range stream {
			bx.Process(r, func(m Match) {
				if m.ID != m.Rec.ID {
					t.Fatalf("%s: match carries ID %d for record %d", tc.profile.Name, m.ID, m.Rec.ID)
				}
				got = append(got, emitted{r.ID, m.Rec.ID, m.Overlap, m.Sim})
			})
		}
		requireStreams(t, tc.profile.Name, got, want, bx.Stats(), wantStats)

		// Per probe, the emitted partners are exactly the brute-force ones,
		// each once.
		truth := bruteForce(stream, params(tc.tau), tc.win)
		if len(want) != len(truth) {
			t.Fatalf("%s: %d matches emitted, brute force finds %d", tc.profile.Name, len(want), len(truth))
		}
		seen := make(map[record.Pair]bool, len(want))
		for i, e := range want {
			pr := record.NewPair(e.Probe, e.Partner, 0)
			if !truth[pr] || seen[pr] {
				t.Fatalf("%s: match %v is wrong or emitted twice", tc.profile.Name, e)
			}
			seen[pr] = true
			if i > 0 && want[i-1].Probe == e.Probe && want[i-1].Partner > e.Partner {
				unsorted++
			}
		}
	}
	// Not a requirement, a guard on the test: streams whose discovery order
	// happened to be ascending partner ID would pin nothing.
	if unsorted == 0 {
		t.Fatal("every probe emitted in ascending partner order")
	}
}

// TestSingletonUnionIsMember pins what the singleton fast path relies on to
// verify against Union without loading the member: whatever a bundle grew to,
// once evictions leave it one member its Union is that member's token set.
// The fast path checks the lengths itself, so a remove that stopped
// rebuilding would cost a load, not a wrong result — the table below forces
// that case.
func TestSingletonUnionIsMember(t *testing.T) {
	bx := New(params(0.6), window.Count{N: 40}, Config{})
	grown := make(map[*Bundle]int) // live bundle → most members it has had
	shrunk := 0                    // lone survivors of bundles that had >= 3
	for _, r := range duplicateHeavyStream(rand.New(rand.NewSource(131)), 2000, 40) {
		bx.Evict(r.ID, r.Time)
		live := make(map[*Bundle]bool)
		for _, fe := range bx.fifo[bx.head:] {
			if fe.b != nil {
				live[fe.b] = true
			}
		}
		for b := range grown {
			if !live[b] {
				delete(grown, b) // died: its slot may found another bundle
			}
		}
		for b := range live {
			grown[b] = max(grown[b], len(b.Members))
			if len(b.Members) != 1 {
				continue
			}
			if len(b.Union) != b.MinLen() || !slices.Equal(b.Union, b.Members[0].Rec.Tokens) {
				t.Fatalf("record %d: lone member %v of a bundle that had %d, Union %v",
					r.ID, b.Members[0].Rec.Tokens, grown[b], b.Union)
			}
			if grown[b] >= 3 {
				shrunk++
			}
		}
		best, _ := bx.Probe(r, func(Match) {})
		bx.Insert(r, best)
	}
	if shrunk == 0 || bx.Stats().MaxBundleSize < 3 {
		t.Fatalf("no bundle of >= 3 members shrank to one (max size %d)", bx.Stats().MaxBundleSize)
	}

	for _, union := range [][]tokens.Rank{nil, {1, 2, 3, 4, 9}} { // nil: leave the alias
		bx := New(params(0.6), window.Unbounded{}, Config{})
		bx.Process(rec(0, 1, 2, 3, 4), func(Match) {})
		if union != nil {
			b := bx.fifo[0].b
			b.Union, b.unionOwned = union, true
		}
		var got []Match
		bx.Probe(rec(1, 1, 2, 3, 9), func(m Match) { got = append(got, m) })
		if len(got) != 1 || got[0].ID != 0 || got[0].Overlap != 3 || got[0].Sim != 0.6 || bx.Stats().SingletonFast != 1 {
			t.Fatalf("Union %v: got %+v (singleton fast path ran %d times), want overlap 3 at 0.6",
				union, got, bx.Stats().SingletonFast)
		}
	}
}

// heapInuse is the Go heap in use after a collection.
func heapInuse() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse
}

// TestIndexStateBoundedByWindow is the memory bound: after a stream many
// windows long the index holds state for the window, not for the stream.
// Every assertion but the last is on a deterministic count.
func TestIndexStateBoundedByWindow(t *testing.T) {
	cases := []struct {
		win     int
		records int
		profile workload.Profile
	}{
		{2000, 200_000, workload.TweetLike(42)},
		{100, 600, workload.EnronLike(42)},    // the one that founds wide signatures
		{2000, 100_000, workload.AOLLike(42)}, // the one that fills the twin table
	}
	for _, tc := range cases {
		label := tc.profile.Name
		p := params(0.8)
		bx := New(p, window.Count{N: int64(tc.win)}, Config{})
		gen := workload.NewGenerator(tc.profile)
		var peakLive, heapEarly uint64
		peakSets, peakKeys, peakLinked := 0, 0, 0 // twin entries, key entries (dead ones too), both, linked at once
		for i := 0; i < tc.records; i++ {
			bx.Process(gen.Next(), func(Match) {})
			if bx.stats.LiveBundles > peakLive {
				peakLive = bx.stats.LiveBundles
			}
			peakSets, peakKeys = max(peakSets, bx.sets.nsets), max(peakKeys, len(bx.sets.keys))
			peakLinked = max(peakLinked, bx.sets.nsets+len(bx.sets.keys))
			if i+1 == tc.records/4 {
				heapEarly = heapInuse()
			}
		}
		heapEnd := heapInuse()

		// The same window in an index that never saw the rest of the stream.
		fresh := New(p, window.Unbounded{}, Config{})
		bx.Dump(func(r *record.Record) bool {
			best, _ := fresh.Probe(r, func(Match) {})
			fresh.Insert(r, best)
			return true
		})
		st, fst := bx.Stats(), fresh.Stats()
		if st.LiveMembers != fst.LiveMembers || st.LiveMembers < uint64(tc.win) {
			t.Fatalf("%s: window holds %d members, reload %d", label, st.LiveMembers, fst.LiveMembers)
		}
		t.Logf("%s: postings %d/%d buckets %d/%d (index/reload), bundles carved %d peak live %d, members carved %d, heap %d -> %d KiB, sweeps %d",
			label, st.Postings, fst.Postings, len(bx.posts.buckets), len(fresh.posts.buckets), len(bx.al.bchunks)*bundleChunk, peakLive,
			bx.al.memberChunks*memberChunk, heapEarly>>10, heapEnd>>10, st.RebuildSweeps)
		if st.Postings > 3*fst.Postings || len(bx.posts.buckets) > 4*len(fresh.posts.buckets) {
			t.Errorf("%s: %d postings in %d buckets; the live window alone needs %d in %d",
				label, st.Postings, len(bx.posts.buckets), fst.Postings, len(fresh.posts.buckets))
		}
		if carved := len(bx.al.bchunks) * bundleChunk; uint64(carved) > 3*peakLive+bundleChunk {
			t.Errorf("%s: %d bundles carved, peak live %d", label, carved, peakLive)
		}
		if carved := bx.al.memberChunks * memberChunk; carved > tc.win+memberChunk {
			t.Errorf("%s: %d members carved for a window of %d", label, carved, tc.win)
		}
		// Wide cells: one per live wide bundle (checkWidePool: none leaked,
		// the rest free), and together no more than the window ever needed
		// at once — a cell is carved only when none of its size is free.
		wide := make(map[*Bundle]bool)
		for _, fe := range bx.fifo[bx.head:] {
			if fe.b != nil && fe.b.wideSig {
				wide[fe.b] = true
			}
		}
		checkWidePool(t, &bx.al, len(wide))
		cells := len(wide) + len(bx.al.freeW)
		if uint64(cells) > peakLive || (tc.profile.Name == "ENRON-like") != (cells > 0) {
			t.Errorf("%s: %d wide cells (%d held, %d free), peak live bundles %d", label,
				cells, len(wide), len(bx.al.freeW), peakLive)
		}
		// Twin entries: carved only when none is free, so never more than
		// were ever in use at once, and no chunk before the first — and on
		// AOL-like the table is in use.
		if tt := &bx.sets; int(tt.carved) > peakSets || len(tt.heads) > max(16, 2*peakLinked) ||
			(peakSets == 0) != (len(tt.chunks) == 0) || (tc.profile.Name == "AOL-like" && peakSets == 0) {
			t.Errorf("%s: %d twin entries carved (%d chunks) in %d buckets, %d linked at most, %d twin probes",
				label, tt.carved, len(tt.chunks), len(tt.heads), peakSets, st.TwinProbes)
		}
		// Key entries: an array grown by doubling, so at most twice its
		// peak; the peak, dead keys included, is bounded by the window —
		// Evict keeps the dead to the live (beyond 2·sweepFloor), each live
		// record has at most maxKeyed keys, and one Insert adds maxKeyed.
		if tt := &bx.sets; cap(tt.keys) > max(16, 2*peakKeys) || peakKeys > 2*maxKeyed*tc.win+2*sweepFloor+maxKeyed {
			t.Errorf("%s: %d key entries carved, %d linked at most, for a window of %d", label, cap(tt.keys), peakKeys, tc.win)
		}
		if heapEnd*2 > heapEarly*3 {
			t.Errorf("%s: heap in use %d KiB after %d records, %d KiB after %d",
				label, heapEnd>>10, tc.records, heapEarly>>10, tc.records/4)
		}
	}
}

// wideBundles builds an index of n bundles, each grown to per members
// (AOL-like short records around a shared core), and returns it with
// probes that hit them.
func wideBundles(n, per int) (*Index, []*record.Record) {
	rng := rand.New(rand.NewSource(107))
	bx := New(params(0.6), window.Unbounded{}, Config{MaxMembers: per})
	var probes []*record.Record
	id := record.ID(0)
	for b := 0; b < n; b++ {
		base := tokens.Rank(b * 16)
		for k := 0; k < per; k++ {
			// Four shared tokens plus one of four variable ones: lengths 4–5,
			// pairwise Jaccard >= 4/6.
			set := []tokens.Rank{base, base + 1, base + 2, base + 3}
			if k > 0 {
				set = append(set, base+4+tokens.Rank(rng.Intn(4)))
			}
			bx.Process(&record.Record{ID: id, Time: int64(id), Tokens: set}, func(Match) {})
			id++
		}
		probes = append(probes, &record.Record{ID: id, Time: int64(id), Tokens: []tokens.Rank{base, base + 1, base + 2, base + 3, base + 8}})
		id++
	}
	return bx, probes
}

// BenchmarkProbeWideBundles probes bundles at the member cap: the
// per-candidate bundle filters must not walk the members, and the probe
// path (collect, filter, verify, emit) must not allocate.
func BenchmarkProbeWideBundles(b *testing.B) {
	bx, probes := wideBundles(64, 64)
	if bx.Stats().MaxBundleSize != 64 {
		b.Fatalf("bundles grew to %d members, want 64", bx.Stats().MaxBundleSize)
	}
	results := 0
	emit := func(Match) { results++ }
	for _, r := range probes { // warm the scratch buffers
		bx.Probe(r, emit)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bx.Probe(probes[i%len(probes)], emit)
	}
	if results == 0 {
		b.Fatal("probes matched nothing")
	}
}

// BenchmarkInsertEvictSteadyState streams tweet-like records through a
// full 2 000-record window: every op is one eviction, one probe and one
// insert. allocs/op shows what the recycled path still allocates.
func BenchmarkInsertEvictSteadyState(b *testing.B) {
	const win = 2000
	bx := New(params(0.8), window.Count{N: win}, Config{})
	gen := workload.NewGenerator(workload.TweetLike(42))
	for i := 0; i < 5*win; i++ {
		bx.Process(gen.Next(), func(Match) {})
	}
	recs := gen.Generate(b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for _, r := range recs {
		bx.Process(r, func(Match) {})
	}
}

// TestHotStructSizes pins the structs a probe walks: a slab of members or
// bundles is cache lines per candidate and bytes per record, a Match is
// copied once per result, a fifo entry once per record and drain, and a
// twin entry is read whole by every lookup that reaches it.
func TestHotStructSizes(t *testing.T) {
	m, b, r := unsafe.Sizeof(Member{}), unsafe.Sizeof(Bundle{}), unsafe.Sizeof(Match{})
	if m != 48 || b > 120 || r > 32 {
		t.Fatalf("Member is %d B (want 48), Bundle %d B (limit 120), Match %d B (limit 32)", m, b, r)
	}
	// What probeBundle reads of a bundle before its first merge ends within
	// the struct's first 64 bytes.
	var z Bundle
	for name, end := range map[string]uintptr{
		"Members": unsafe.Offsetof(z.Members) + unsafe.Sizeof(z.Members),
		"Union":   unsafe.Offsetof(z.Union) + unsafe.Sizeof(z.Union),
		"slot":    unsafe.Offsetof(z.slot) + unsafe.Sizeof(z.slot),
		"minLen":  unsafe.Offsetof(z.minLen) + unsafe.Sizeof(z.minLen),
		"maxLen":  unsafe.Offsetof(z.maxLen) + unsafe.Sizeof(z.maxLen),
	} {
		if end > 64 {
			t.Errorf("Bundle.%s ends at byte %d, past the first line", name, end)
		}
	}
	// One cache line per prefix token, eight hot entries per line.
	if pb, h := unsafe.Sizeof(pbucket{}), unsafe.Sizeof(hot{}); pb != 64 || h != 8 {
		t.Fatalf("pbucket is %d B (want 64), hot %d B (want 8)", pb, h)
	}
	// The fifo is copied down on every drain: a wider entry showed as
	// enron_verify's alloc_bytes_per_rec.
	if fe := unsafe.Sizeof(fifoEntry{}); fe != 16 {
		t.Fatalf("fifoEntry is %d B, want 16", fe)
	}
	// A twin lookup that hits reads one line of entry (carved 64-B aligned:
	// a chunk is a multiple of the line) besides its bucket and tokens.
	if ts, c := unsafe.Sizeof(twinSet{}), unsafe.Sizeof([setChunk]twinSet{}); ts != 64 || c%64 != 0 {
		t.Fatalf("twinSet is %d B (want 64), a chunk %d B", ts, c)
	}
}

// TestWalkOrderKeepsTheFunnel pins every work counter of one index over
// shortened seed-42 AOL-, Enron- and Tweet-like streams (at the bench's τ).
// Each candidate bundle is examined once per probe and every filter is per
// bundle, so the order in which the prefix's buckets are walked changes no
// counter — a walk sorted by posting count reads these same constants —
// while a walk that missed a prefix token, or examined a bundle twice,
// moves them.
func TestWalkOrderKeepsTheFunnel(t *testing.T) {
	cases := []struct {
		profile workload.Profile
		n       int
		tau     float64
		win     window.Count
		want    Stats
	}{
		{workload.AOLLike(42), 40000, 0.8, window.Count{N: 10000}, Stats{
			Records: 40000, Bundles: 29100, Appends: 10900, Postings: 708, Scanned: 516,
			BundleCands: 373, BundleLenSkip: 12, BundleSigSkip: 5, BundleUBSkip: 22,
			MemberChecks: 187571, Verified: 187570, Results: 187281, VerifySteps: 1310, CoreSteps: 78,
			Evicted: 29999, LiveBundles: 7606, LiveMembers: 10001, MaxBundleSize: 64,
			UnionOverlaps: 30, UnionSteps: 151, CoreOverlaps: 8, SingletonFast: 326, RebuildSweeps: 2,
			DeadPostSkips: 1011, KernelLinear: 364, KernelGallop: 16, MemberDeltaSkip: 1,
			TwinProbes: 39616, TwinMatches: 187228,
		}},
		{workload.EnronLike(42), 8000, 0.7, window.Count{N: 2500}, Stats{
			Records: 8000, Bundles: 6405, Appends: 1595, Postings: 95878, Scanned: 207657,
			BundleCands: 163712, BundleLenSkip: 110649, BundleSigSkip: 51199, BundleUBSkip: 98,
			MemberChecks: 2596, MemberUBSkip: 1, Verified: 2595, Results: 2130, VerifySteps: 263173,
			CoreSteps: 54674, Evicted: 5499, LiveBundles: 2041, LiveMembers: 2501, MaxBundleSize: 9,
			UnionOverlaps: 613, UnionSteps: 69257, CoreOverlaps: 515, SingletonFast: 1251,
			RebuildSweeps: 1, DeadPostSkips: 107501, GroupRejectLen: 2, KernelLinear: 3070,
			KernelGallop: 653,
		}},
		{workload.TweetLike(42), 20000, 0.8, window.Count{N: 2000}, Stats{
			Records: 20000, Bundles: 15844, Appends: 4156, Postings: 7004, Scanned: 33092,
			BundleCands: 19661, BundleLenSkip: 3563, BundleSigSkip: 1536, BundleUBSkip: 2555,
			MemberChecks: 16262, MemberUBSkip: 319, Verified: 15711, Results: 6093, VerifySteps: 87830,
			CoreSteps: 15831, Evicted: 17999, LiveBundles: 1670, LiveMembers: 2001, MaxBundleSize: 12,
			UnionOverlaps: 3837, UnionSteps: 30452, CoreOverlaps: 1282, SingletonFast: 10725,
			RebuildSweeps: 7, DeadPostSkips: 29236, GroupRejectLen: 5, KernelLinear: 17107,
			KernelGallop: 1894, MemberDeltaSkip: 232, TwinProbes: 7307, TwinMatches: 1829,
		}},
	}
	for _, tc := range cases {
		bx := New(params(tc.tau), tc.win, Config{})
		for _, r := range workload.NewGenerator(tc.profile).Generate(tc.n) {
			bx.Process(r, nil)
		}
		if got := bx.Stats(); got != tc.want {
			t.Errorf("%s: the funnel moved:\n got  %+v\n want %+v", tc.profile.Name, got, tc.want)
		}
	}
}
