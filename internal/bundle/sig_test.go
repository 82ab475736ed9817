package bundle

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/record"
	"repro/internal/similarity"
	"repro/internal/tokens"
	"repro/internal/window"
	"repro/internal/workload"
)

// sigOps encodes a FuzzSigBoundSound input: a probe, then operations on one
// bundle. Tokens take two bytes (universe 1 024); an add is a non-zero
// opcode, a length byte and the tokens, an evict is opcode%4 == 0 with the
// victim's position in the rest of the byte.
type sigOps struct{ b []byte }

func (o *sigOps) tokens(ts []tokens.Rank) {
	for _, t := range ts {
		o.b = append(o.b, byte(t>>8), byte(t))
	}
}

func (o *sigOps) probe(ts ...tokens.Rank) *sigOps {
	o.b = append(o.b, byte(len(ts)-1))
	o.tokens(ts)
	return o
}

func (o *sigOps) add(ts ...tokens.Rank) *sigOps {
	o.b = append(o.b, 1, byte(len(ts)-1))
	o.tokens(ts)
	return o
}

func (o *sigOps) evict(pos int) *sigOps {
	o.b = append(o.b, byte(pos<<2))
	return o
}

// span returns n consecutive ranks starting at from.
func span(from, n int) []tokens.Rank {
	out := make([]tokens.Rank, n)
	for i := range out {
		out[i] = tokens.Rank(from + i)
	}
	return out
}

// FuzzSigBoundSound checks the signature gate's soundness on one bundle
// under any sequence of member additions and evictions: after every
// operation, for every live member y, |r| − popcount(sig(r) &^ sig(b)) is at
// least |r ∩ y| — the gate can only drop candidates verification would
// reject — and right after a shrink-rebuild, or the founding of a new
// incarnation in a recycled slot, the signature equals the OR over the live
// members exactly.
func FuzzSigBoundSound(f *testing.F) {
	// A saturated signature: 400 distinct tokens across two members.
	f.Add(new(sigOps).probe(span(100, 40)...).add(span(0, 200)...).add(span(150, 250)...).evict(0).b)
	// First members of exactly sigMinLen-1 and sigMinLen tokens.
	f.Add(new(sigOps).probe(span(0, 20)...).add(span(0, sigMinLen-1)...).add(span(0, 40)...).b)
	f.Add(new(sigOps).probe(span(0, 20)...).add(span(0, sigMinLen)...).add(span(2, 18)...).evict(0).b)
	// A short first member, long later ones: the bundle never takes a
	// signature, even after the short member leaves.
	f.Add(new(sigOps).probe(span(0, 60)...).add(span(0, 5)...).add(span(0, 60)...).add(span(3, 70)...).evict(0).evict(0).b)
	// Growth to four members, then evictions down to one: two rebuilds.
	f.Add(new(sigOps).probe(span(10, 30)...).add(span(0, 30)...).add(span(5, 30)...).add(span(10, 30)...).
		add(span(500, 30)...).evict(3).evict(0).evict(0).add(span(12, 25)...).b)
	// Death, then a new incarnation in the same slot.
	f.Add(new(sigOps).probe(span(0, 30)...).add(span(300, 40)...).evict(0).add(span(0, 30)...).b)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 || len(data) > 4096 {
			t.Skip()
		}
		i := 0
		take := func() []tokens.Rank {
			n := int(data[i]) + 1
			i++
			var ts []tokens.Rank
			for ; n > 0 && i+1 < len(data); n-- {
				ts = append(ts, (tokens.Rank(data[i])<<8|tokens.Rank(data[i+1]))&1023)
				i += 2
			}
			return tokens.Dedup(ts)
		}
		r := take()
		if len(r) == 0 {
			t.Skip()
		}
		var rs sig
		rs.add(r)

		var al alloc
		kern := similarity.KernelConfig{}.WithDefaults()
		b := al.bundle()
		firstLen := 0 // length of the member that founded the current incarnation
		for id := record.ID(0); i < len(data); id++ {
			op := data[i]
			i++
			rebuilt := false // or founded: either way the signature was just recomputed
			switch {
			case op%4 == 0:
				if len(b.Members) == 0 {
					continue
				}
				peak := b.peak
				b.remove(&al, kern, b.Members[int(op>>2)%len(b.Members)])
				n := int32(len(b.Members))
				rebuilt = n > 0 && n*2 <= peak
			case i < len(data):
				ts := take()
				if len(ts) == 0 {
					continue
				}
				var core []tokens.Rank
				if len(b.Members) == 0 {
					firstLen, rebuilt = len(ts), true
				} else {
					core = intersect(b.Core, ts)
				}
				b.add(&al, kern, &record.Record{ID: id, Tokens: ts}, 1, core)
			}

			if len(b.Members) > 0 && b.hasSig != (firstLen >= sigMinLen) {
				t.Fatalf("hasSig=%v for a bundle founded by a %d-token member", b.hasSig, firstLen)
			}
			if !b.hasSig {
				continue
			}
			bs := al.sigAt(b.slot)
			var exact sig
			for _, m := range b.Members {
				exact.add(m.Rec.Tokens)
				if ub, o := len(r)-rs.missing(bs), similarity.IntersectSize(r, m.Rec.Tokens); ub < o {
					t.Fatalf("signature bound %d below the true overlap %d with member %d", ub, o, m.Rec.ID)
				}
			}
			if exact.missing(bs) != 0 {
				t.Fatalf("signature lacks bits of a live member: %x vs %x", *bs, exact)
			}
			if rebuilt && *bs != exact {
				t.Fatalf("rebuilt signature %x, OR over the live members %x", *bs, exact)
			}
		}
	})
}

// longRecs encodes a FuzzIndexVsBruteForce input of the long shape: window
// byte, threshold byte (selector bit clear), then per record a length byte
// (16 + b%65 tokens) and one byte per token.
func longRecs(win, tau byte, recs ...[]tokens.Rank) []byte {
	out := []byte{win, tau}
	for _, ts := range recs {
		out = append(out, byte(len(ts)-16))
		for _, t := range ts {
			out = append(out, byte(t))
		}
	}
	return out
}

// FuzzIndexVsBruteForce checks the whole index, gate included, serial and
// on a 3-goroutine pool, against the quadratic scan. Bit 7 of the threshold
// byte selects the record shape: clear, long records (16–80 tokens) over a
// one-byte universe with a count window of 0–63, where hash collisions and
// saturated signatures are the rule; set, short records (1–12 tokens) over
// 48 ranks with a count window of 0–255, which never reach the gate and
// pile many members into few bundles.
func FuzzIndexVsBruteForce(f *testing.F) {
	f.Add(longRecs(0, 4, span(0, 40), span(5, 40), span(100, 30), span(3, 42), span(101, 31)))
	f.Add(longRecs(3, 0, span(0, 80), span(40, 80), span(80, 80), span(120, 80), span(160, 80)))
	f.Add(longRecs(8, 9, span(7, 16), span(7, 17), span(8, 16), span(7, 16), span(200, 16)))
	f.Add([]byte{8, 0x80 | 6, 1, 2, 3, 4, 0, 3, 1, 2, 5, 0, 3, 2, 3, 4})
	f.Add([]byte{40, 0x80 | 0, 9, 9, 9, 9, 9, 0})
	f.Add([]byte{0, 0x80 | 8, 7, 1, 7, 3, 0, 4, 1, 3, 7, 9, 0, 2, 7, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 || len(data) > 4096 {
			t.Skip()
		}
		short := data[1]&0x80 != 0
		minLen, lenSpan, universe, maxWin := 16, 65, 256, 64
		if short {
			minLen, lenSpan, universe, maxWin = 1, 12, 48, 256
		}
		var win window.Policy = window.Unbounded{}
		if n := int64(int(data[0]) % maxWin); n > 0 {
			win = window.Count{N: n}
		}
		tau := 0.5 + float64((data[1]&0x7f)%10)*0.05
		var stream []*record.Record
		for i := 2; i < len(data); {
			n := minLen + int(data[i])%lenSpan
			i++
			var ranks []tokens.Rank
			for ; n > 0 && i < len(data); n-- {
				ranks = append(ranks, tokens.Rank(int(data[i])%universe))
				i++
			}
			if len(ranks) > 0 {
				stream = append(stream, rec(record.ID(len(stream)), ranks...))
			}
		}
		want := bruteForce(stream, tau, win)
		for _, p := range []int{1, 3} {
			bx := New(params(tau), win, Config{})
			pool := NewPool(p)
			got := make(map[record.Pair]bool)
			for _, r := range stream {
				processPar(bx, pool, r, func(m Match) { got[record.NewPair(r.ID, m.Rec.ID, 0)] = true })
			}
			pool.Close()
			for pr := range want {
				if !got[pr] {
					t.Fatalf("τ=%v win=%v P=%d: missing %v (%d of %d pairs found)", tau, win, p, pr, len(got), len(want))
				}
			}
			if len(got) != len(want) {
				t.Fatalf("τ=%v win=%v P=%d: %d pairs, brute force finds %d", tau, win, p, len(got), len(want))
			}
		}
	})
}

// TestProbeStampWrap drives the 32-bit probe counter, and with it the hot
// entries' stamps, across its wrap on a populated index. A twin index that is nowhere near the wrap is the
// reference: matches, insertion decisions and every counter must agree.
// Three islands, whose tokens nothing else in the stream shares, hold the
// stamps that matter: C's bundle is never visited (stamp 0, which probe
// number 2^32 would take for "already seen" if the counter were allowed to
// reach 0), and A's bundle is visited once, by probe 3 (the stamp the
// restarted counter reaches again, were the live stamps not reset).
func TestProbeStampWrap(t *testing.T) {
	a, b, c := span(10000, 20), span(10100, 20), span(10200, 20)
	var stream []*record.Record
	push := func(sets ...[]tokens.Rank) {
		for _, ts := range sets {
			stream = append(stream, rec(record.ID(len(stream)), ts...))
		}
	}
	push(a, b, a, c) // probe 3 stamps A's bundle and joins it
	for _, r := range longDuplicateStream(rand.New(rand.NewSource(113)), 300) {
		push(r.Tokens)
	}
	head := len(stream)
	push(b, span(10300, 20), c, b, a) // probes MaxUint32-1, MaxUint32, then 1, 2, 3

	near, ref := New(params(0.6), window.Unbounded{}, Config{}), New(params(0.6), window.Unbounded{}, Config{})
	for _, r := range stream[:head] {
		near.Process(r, func(Match) {})
		ref.Process(r, func(Match) {})
	}
	near.probeSeq = math.MaxUint32 - 2
	var got, want []emitted
	for _, r := range stream[head:] {
		near.Process(r, func(m Match) { got = append(got, emitted{r.ID, m.Rec.ID, m.Overlap, m.Sim}) })
		ref.Process(r, func(m Match) { want = append(want, emitted{r.ID, m.Rec.ID, m.Overlap, m.Sim}) })
		checkInvariants(t, near)
	}
	if len(want) != 1+0+1+2+2 {
		t.Fatalf("the probes across the wrap should find 6 island matches, the reference finds %d", len(want))
	}
	requireStreams(t, "across the wrap", got, want, near.Stats(), ref.Stats())
	if near.probeSeq != 3 {
		t.Fatalf("probe counter at %d after wrapping, want 3", near.probeSeq)
	}
	for slot := uint32(0); int(slot) < len(near.al.hots)*bundleChunk; slot++ {
		if seen := near.al.hotAt(slot).seen; seen > 3 {
			t.Fatalf("slot %d still stamped %d: a stamp from before the wrap survived the reset", slot, seen)
		}
	}
}

// TestHotBandSaturation is the soundness of the saturating length mirror:
// around each founder length at and beyond hotLenMax the stream holds a
// partner on either side — short enough that the probe's upper bound falls
// inside the saturated range, long enough that its lower bound exceeds
// hotLenMax while a member still reaches it — and every pair the exact band
// admits must be found.
func TestHotBandSaturation(t *testing.T) {
	const tau = 0.95 // short prefixes: Bundle.add's posted-token dedup is quadratic in them
	var stream []*record.Record
	for i, l := range []int{32766, 32767, 32768, 70000} {
		off := i * 200_000 // disjoint universes: one bundle family per length
		for _, n := range []int{l, l * 96 / 100, l * 100 / 96, l*96/100 + 1, l * 102 / 100} {
			stream = append(stream, rec(record.ID(len(stream)), span(off, n)...))
		}
	}
	want := bruteForce(stream, tau, window.Unbounded{})
	bx := New(params(tau), window.Unbounded{}, Config{})
	got := make(map[record.Pair]bool)
	for _, r := range stream {
		bx.Process(r, func(m Match) { got[record.NewPair(r.ID, m.Rec.ID, 0)] = true })
	}
	checkInvariants(t, bx)
	if len(want) < 20 {
		t.Fatalf("degenerate stream: brute force finds %d pairs", len(want))
	}
	for pr := range want {
		if !got[pr] {
			t.Errorf("missing %v", pr)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d pairs, brute force finds %d", len(got), len(want))
	}
	var satLo, satHi, mixed int
	for slot := uint32(0); slot < uint32(bx.Stats().Bundles); slot++ {
		h := bx.al.hotAt(slot)
		lo, hi := h.lo&^hotSig, h.hi&^hotLive
		if lo == hotLenMax {
			satLo++
		}
		if hi == hotLenMax {
			satHi++
		}
		if lo < hotLenMax && bx.al.at(slot).MaxLen() > hotLenMax {
			mixed++
		}
	}
	if satLo == 0 || satHi == 0 || mixed == 0 {
		t.Fatalf("saturation not exercised: %d bundles with a saturated lo, %d with a saturated hi, %d straddling", satLo, satHi, mixed)
	}
}

// TestFunnelConserved pins the bundle-level funnel: every distinct
// candidate bundle of a probe is accounted for by exactly one outcome, so a
// filter that forgets its counter — or a path that returns without one —
// breaks the sum.
func TestFunnelConserved(t *testing.T) {
	for _, prof := range []workload.Profile{workload.AOLLike(7), workload.TweetLike(7), workload.EnronLike(7)} {
		bx := New(params(0.7), window.Count{N: 2000}, Config{})
		for _, r := range workload.NewGenerator(prof).Generate(5000) {
			bx.Process(r, func(Match) {})
		}
		st := bx.Stats()
		n := float64(st.Records)
		t.Logf("%-10s per record: scanned %.1f → bundles %.1f → length-skipped %.1f, signature-skipped %.1f → singleton %.1f + union %.1f merges → verified %.2f → results %.2f",
			prof.Name, float64(st.Scanned)/n, float64(st.BundleCands)/n, float64(st.BundleLenSkip)/n, float64(st.BundleSigSkip)/n,
			float64(st.SingletonFast)/n, float64(st.UnionOverlaps)/n, float64(st.Verified)/n, float64(st.Results)/n)
		if out := st.BundleLenSkip + st.BundleSigSkip + st.SingletonFast + st.BundleQuickSkip + st.UnionOverlaps; st.BundleCands != out {
			t.Errorf("%s: %d candidate bundles, %d accounted for: %+v", prof.Name, st.BundleCands, out, st)
		}
		if st.UnionOverlaps < st.BundleUBSkip || st.Verified < st.Results || st.BundleCands == 0 {
			t.Errorf("%s: funnel out of order: %+v", prof.Name, st)
		}
		if prof.Name == "ENRON-like" && st.BundleSigSkip == 0 {
			t.Errorf("%s: the signature gate never skipped a bundle", prof.Name)
		}
	}
}

// BenchmarkProbeEnronLike measures the path the signature gate sits on,
// over a full 20 000-record window of Enron-like records at τ 0.7: "step"
// is one eviction, one probe and one insert per op (the one-command CPU
// profile of the enron_verify workload's join; it also reports the funnel
// per op, which is how DESIGN.md's width and threshold tables were made),
// "probe" the probe alone against the standing window, which CI holds at
// 0 allocs/op.
func BenchmarkProbeEnronLike(b *testing.B) {
	const win = 20000
	gen := workload.NewGenerator(workload.EnronLike(42))
	bx := New(params(0.7), window.Count{N: win}, Config{})
	for _, r := range gen.Generate(win) {
		bx.Process(r, func(Match) {})
	}
	emit := func(Match) {}
	b.Run("probe", func(b *testing.B) {
		probes := gen.Generate(1000)
		for _, r := range probes { // warm the scratch buffers
			bx.Probe(r, emit)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			bx.Probe(probes[i%len(probes)], emit)
		}
	})
	b.Run("step", func(b *testing.B) {
		recs := gen.Generate(b.N)
		before := bx.Stats()
		b.ReportAllocs()
		b.ResetTimer()
		for _, r := range recs {
			bx.Process(r, emit)
		}
		st := bx.Stats()
		b.ReportMetric(float64(st.BundleSigSkip-before.BundleSigSkip)/float64(b.N), "sigskip/op")
		b.ReportMetric(float64(st.Verified-before.Verified)/float64(b.N), "verified/op")
	})
}
