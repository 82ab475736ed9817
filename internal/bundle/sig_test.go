package bundle

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/filter"
	"repro/internal/record"
	"repro/internal/similarity"
	"repro/internal/tokens"
	"repro/internal/window"
	"repro/internal/workload"
)

// sigOps encodes a FuzzSigBoundSound input: a token set for the probe, then
// operations on one bundle. A token set is an opcode and its operands:
// opcode%4 == 2 is a span, two bytes of first rank and two of length (1–1 024
// consecutive ranks — the way to a member long enough for a wide signature);
// any other opcode a list, a length byte and two bytes per token (universe
// 4 096). As an operation, opcode%4 == 0 is instead an evict, with the
// victim's position in the rest of the byte.
type sigOps struct{ b []byte }

func (o *sigOps) list(ts []tokens.Rank) *sigOps {
	o.b = append(o.b, 1, byte(len(ts)-1))
	for _, t := range ts {
		o.b = append(o.b, byte(t>>8), byte(t))
	}
	return o
}

func (o *sigOps) probe(ts ...tokens.Rank) *sigOps { return o.list(ts) }

func (o *sigOps) add(ts ...tokens.Rank) *sigOps { return o.list(ts) }

// addSpan (and, first in the input, the probe) is span(from, n) in five bytes.
func (o *sigOps) addSpan(from, n int) *sigOps {
	o.b = append(o.b, 2, byte(from>>8), byte(from), byte((n-1)>>8), byte(n-1))
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

// sigOf returns the n-block signature of ts, hashed at that width directly.
func sigOf(n int, ts []tokens.Rank) sig {
	s := make(sig, n)
	s.add(ts)
	return s
}

// widthFor spells the width rule out a second time: the 256-bit blocks of a
// bundle founded by a record of n tokens, 0 below sigMinLen.
func widthFor(n int) int {
	switch {
	case n < 16:
		return 0
	case n < 192:
		return 1
	case n < 384:
		return 2
	}
	return 4
}

// checkWidePool audits the wide-cell pool: every carved cell is named by
// exactly one slot's wide entry or sits on the free list — none leaked, none
// owned twice — and exactly inUse of them are held by slots.
func checkWidePool(t *testing.T, al *alloc, inUse int) {
	t.Helper()
	carved := len(al.wslab)<<wideShift - al.wideLeft
	owner := make([]bool, carved+1)
	claim := func(cell uint32, who string) {
		if cell == 0 || int(cell) > carved || owner[cell] {
			t.Fatalf("%s: cell %d uncarved or owned twice (%d carved)", who, cell, carved)
		}
		owner[cell] = true
	}
	held := 0
	for c, w := range al.wide {
		for i := 0; w != nil && i < bundleChunk; i++ {
			if w[i] != 0 {
				claim(w[i]>>1, fmt.Sprintf("slot %d", c*bundleChunk+i))
				held++
			}
		}
	}
	for _, cell := range al.freeW {
		claim(cell, "free list")
	}
	if held+len(al.freeW) != carved {
		t.Fatalf("%d cells carved, %d held and %d free: leaked", carved, held, len(al.freeW))
	}
	if held != inUse {
		t.Fatalf("%d wide cells held by slots, want %d", held, inUse)
	}
}

// FuzzSigBoundSound checks the signature gate's soundness on one bundle
// under any sequence of member additions and evictions. The probe's folds
// equal the signature hashed at each width directly; after every operation,
// at all three widths and against the bundle's own cell, for every live
// member y, |r| − popcount(sig(r) &^ sig(b)) is at least |r ∩ y| — the gate
// can only drop candidates verification would reject; the cell has the width
// its founding member's length gives it, for life; right after a
// shrink-rebuild, or the founding of a new incarnation in a recycled slot,
// it equals the OR over the live members exactly; and the wide-cell pool
// holds one cell while a wide bundle lives and none otherwise.
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
	// Either side of both width boundaries, each founding a fresh incarnation.
	f.Add(new(sigOps).addSpan(50, 300).addSpan(0, 191).evict(0).addSpan(0, 192).evict(0).addSpan(0, 383).evict(0).addSpan(0, 384).b)
	// The slot goes 1 024 → 256 → 1 024 bits: no stale bits, no leaked cell.
	f.Add(new(sigOps).addSpan(0, 700).addSpan(100, 600).addSpan(90, 620).evict(0).evict(0).
		addSpan(3000, 40).add(span(3001, 38)...).evict(0).evict(0).addSpan(2000, 1024).b)
	// A 512-bit bundle grown past 384 tokens and to four members, then shrunk
	// to one: both rebuilds keep the founding width.
	f.Add(new(sigOps).addSpan(100, 250).addSpan(0, 200).addSpan(10, 400).addSpan(20, 380).addSpan(1000, 500).
		evict(0).evict(0).evict(0).b)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 || len(data) > 4096 {
			t.Skip()
		}
		i := 0
		take := func(op byte) (ts []tokens.Rank) {
			if op%4 == 2 {
				if i+4 > len(data) {
					i = len(data)
					return nil
				}
				from, n := int(data[i])<<8|int(data[i+1]), int(data[i+2])<<8|int(data[i+3])
				i += 4
				return span(from&4095, n&1023+1)
			}
			n := int(data[i]) + 1
			i++
			for ; n > 0 && i+1 < len(data); n-- {
				ts = append(ts, (tokens.Rank(data[i])<<8|tokens.Rank(data[i+1]))&4095)
				i += 2
			}
			return tokens.Dedup(ts)
		}
		i++
		r := take(data[0])
		if len(r) == 0 {
			t.Skip()
		}
		var rs probeSig
		rs.set(r)
		widths := []int{1, 2, sigMaxBlocks}
		for _, n := range widths {
			if !slices.Equal(rs.at(n), sigOf(n, r)) {
				t.Fatalf("probe folded to %d bits: %x, hashed directly: %x", n*256, rs.at(n), sigOf(n, r))
			}
		}

		var al alloc
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
				b.remove(&al, b.Members[int(op>>2)%len(b.Members)])
				n := int32(len(b.Members))
				rebuilt = n > 0 && n*2 <= peak
			case i < len(data):
				ts := take(op)
				if len(ts) == 0 || len(b.Members) == 16 { // spans make members cheap to spell: keep an op O(16 sets)
					continue
				}
				var core []tokens.Rank
				if len(b.Members) == 0 {
					firstLen, rebuilt = len(ts), true
				} else {
					core = similarity.IntersectInto(nil, b.Core, ts)
				}
				b.add(&al, &record.Record{ID: id, Tokens: ts}, 1, core)
			}

			if len(b.Members) == 0 {
				checkWidePool(t, &al, 0)
				continue
			}
			want := widthFor(firstLen)
			if b.hasSig != (want > 0) {
				t.Fatalf("hasSig=%v for a bundle founded by a %d-token member", b.hasSig, firstLen)
			}
			if want > 1 {
				checkWidePool(t, &al, 1)
			} else {
				checkWidePool(t, &al, 0)
			}
			// The bound, at every width, against the exact signature of the
			// live members — whatever width this bundle happens to have.
			for _, n := range widths {
				exact := make(sig, n)
				for _, m := range b.Members {
					exact.add(m.Rec.Tokens)
				}
				for _, m := range b.Members {
					if ub, o := len(r)-rs.at(n).missing(exact), similarity.IntersectSize(r, m.Rec.Tokens); ub < o {
						t.Fatalf("%d-bit bound %d below the true overlap %d with member %d", n*256, ub, o, m.Rec.ID)
					}
				}
			}
			if !b.hasSig {
				continue
			}
			bs := al.sigAt(b.slot, b.wideSig)
			if len(bs) != want {
				t.Fatalf("a %d-bit signature on a bundle founded by a %d-token member, want %d bits", len(bs)*256, firstLen, want*256)
			}
			exact := make(sig, want)
			for _, m := range b.Members {
				exact.add(m.Rec.Tokens)
				if ub, o := len(r)-rs.at(want).missing(bs), similarity.IntersectSize(r, m.Rec.Tokens); ub < o {
					t.Fatalf("signature bound %d below the true overlap %d with member %d", ub, o, m.Rec.ID)
				}
			}
			if exact.missing(bs) != 0 {
				t.Fatalf("signature lacks bits of a live member: %x vs %x", bs, exact)
			}
			if rebuilt && !slices.Equal(bs, exact) {
				t.Fatalf("rebuilt signature %x, OR over the live members %x", bs, exact)
			}
		}
	})
}

// TestSigWidthByFoundingLength founds a bundle on either side of sigMinLen
// and of both width boundaries, and with records far beyond the last: the
// signature is as wide as the founding length says, never wider than 1 024
// bits, exactly the founder's, and its cell is back in the pool at death.
func TestSigWidthByFoundingLength(t *testing.T) {
	var al alloc
	b := al.bundle()
	for _, n := range []int{15, 16, 191, 192, 383, 384, 100_000, 1_000_000} {
		r := &record.Record{Tokens: span(7, n)}
		b.add(&al, r, 1, nil)
		want := widthFor(n)
		if b.hasSig != (want > 0) {
			t.Fatalf("founded at %d tokens: hasSig=%v", n, b.hasSig)
		}
		if b.hasSig {
			if bs := al.sigAt(b.slot, b.wideSig); len(bs) != want || !slices.Equal(bs, sigOf(want, r.Tokens)) {
				t.Fatalf("founded at %d tokens: a %d-bit signature, want exactly the founder's at %d bits", n, len(bs)*256, want*256)
			}
		}
		wide := 0
		if want > 1 {
			wide = 1
		}
		checkWidePool(t, &al, wide)
		b.remove(&al, b.Members[0])
		checkWidePool(t, &al, 0)
	}
	// Four wide incarnations, one after the other: one cell carved, then reused.
	if carved := len(al.wslab)<<wideShift - al.wideLeft; carved != 1 || len(al.freeW) != 1 {
		t.Fatalf("%d cells carved, free list %v", carved, al.freeW)
	}
}

// TestWidePoolCarve fills the pool past a slab chunk with signatures of both
// wide widths and takes it through a full release and refill: nothing leaks,
// nothing is carved twice, no cell is written through a neighbour's
// reference, and the refill carves nothing.
func TestWidePoolCarve(t *testing.T) {
	var al alloc
	var slots []uint32
	for i := 0; i < 3*bundleChunk; i++ {
		slots = append(slots, al.bundle().slot)
	}
	fill := func() {
		for i, slot := range slots {
			al.sigCell(slot, 2<<(i%3/2)).set(span(i, 300)) // 512, 512, 1 024, …
		}
		checkWidePool(t, &al, len(slots))
	}
	fill()
	chunks := len(al.wslab)
	if chunks < 2 {
		t.Fatalf("%d cells fit %d slab chunk(s): the chunk boundary was not crossed", len(slots), chunks)
	}
	for i, slot := range slots {
		if bs := al.sigAt(slot, true); !slices.Equal(bs, sigOf(len(bs), span(i, 300))) {
			t.Fatalf("slot %d: a neighbour wrote into its cell", slot)
		}
		al.freeWide(slot)
	}
	checkWidePool(t, &al, 0)
	fill()
	if len(al.wslab) != chunks {
		t.Fatalf("refill carved: %d slab chunks, had %d", len(al.wslab), chunks)
	}
	// Steady state: a wide bundle's death and the next one's founding.
	if n := testing.AllocsPerRun(100, func() {
		al.freeWide(slots[0])
		al.sigCell(slots[0], 2)
	}); n != 0 {
		t.Fatalf("a wide cell's release and reuse allocate %v times", n)
	}
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

// FuzzIndexVsBruteForce checks the whole index, gate and containment regime
// included, against the quadratic scan. Bit 7 of the threshold byte selects
// the record shape: clear, long records (16–80 tokens) over a one-byte
// universe with a count window of 0–63, where hash collisions and saturated
// signatures are the rule; set, short records (1–12 tokens) over 48 ranks
// with a count window of 0–255, which never reach the gate and pile many
// members into few bundles, twin entries and subset keys. Its low seven
// bits b pick the function — Jaccard below 32, then Cosine, Dice and
// Overlap by 32s — and the threshold: 0.5 + 0.05·(b%10) when b%32 < 20;
// otherwise the next byte t draws it finely, 0.5 + t/512, so that a regime
// edge (the τ where cMax or a length's keys change, such as Jaccard 3/4
// and 4/5) is drawn on both sides.
func FuzzIndexVsBruteForce(f *testing.F) {
	f.Add(longRecs(0, 4, span(0, 40), span(5, 40), span(100, 30), span(3, 42), span(101, 31)))
	f.Add(longRecs(3, 0, span(0, 80), span(40, 80), span(80, 80), span(120, 80), span(160, 80)))
	f.Add(longRecs(8, 9, span(7, 16), span(7, 17), span(8, 16), span(7, 16), span(200, 16)))
	f.Add([]byte{8, 0x80 | 6, 1, 2, 3, 4, 0, 3, 1, 2, 5, 0, 3, 2, 3, 4})
	f.Add([]byte{40, 0x80 | 0, 9, 9, 9, 9, 9, 0})
	f.Add([]byte{0, 0x80 | 8, 7, 1, 7, 3, 0, 4, 1, 3, 7, 9, 0, 2, 7, 1})
	// One 3-token set 70 times, unbounded: copies past MaxMembers overflow
	// into a second bundle.
	f.Add(append([]byte{0, 0x80 | 6}, bytes.Repeat([]byte{2, 5, 9, 11}, 70)...))
	// Duplicates of 1 to 5 tokens, interleaved, through a count window of 7
	// at Jaccard 0.8: the twin table founds, appends, evicts and frees sets.
	f.Add(append([]byte{7, 0x80 | 6}, bytes.Repeat([]byte{0, 4, 1, 4, 9, 2, 4, 9, 1, 3, 4, 9, 1, 6, 4, 4, 9, 1, 6, 7}, 12)...))
	// Cosine and Dice at 0.8, where only single tokens are twins.
	f.Add(append([]byte{7, 0x80 | 36}, bytes.Repeat([]byte{0, 4, 0, 4, 1, 4, 9, 0, 9}, 12)...))
	f.Add(append([]byte{5, 0x80 | 76}, bytes.Repeat([]byte{0, 4, 0, 4, 1, 4, 9, 0, 9}, 12)...))
	// Subset and superset chains of 2 to 9 tokens, through count windows,
	// at Jaccard just below and just above 3/4 and 4/5, Cosine 0.8 and
	// Dice 2/3: the fine threshold byte puts τ one step off each edge.
	nested := []byte{}
	for _, ts := range [][]byte{{1, 2, 3}, {1, 2, 3, 4}, {1, 2}, {1, 2, 3, 4, 5}, {2, 3, 4, 5}, {1, 2, 3, 4, 5, 6},
		{1, 2, 3, 4, 5, 6, 7}, {1, 2, 3, 4, 6, 7}, {1, 2, 3, 4, 5, 6, 7, 8}, {1, 2, 4, 5, 6, 7, 8}, {1, 2, 3, 4, 5, 6, 7, 8, 9},
		{1, 2, 3, 4}, {1, 3, 4}, {3, 4, 5, 6, 7, 8, 9}} {
		nested = append(append(nested, byte(len(ts)-1)), ts...)
	}
	for _, sel := range [][2]byte{{0x80 | 20, 127}, {0x80 | 20, 129}, {0x80 | 20, 153}, {0x80 | 20, 154}, {0x80 | 52, 153}, {0x80 | 84, 85}, {0x80 | 84, 86}} {
		for _, win := range []byte{0, 6} {
			f.Add(append([]byte{win, sel[0], sel[1]}, bytes.Repeat(nested, 3)...))
		}
	}
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
		tau, start := 0.5+float64((data[1]&0x7f)%10)*0.05, 2
		if data[1]&0x7f%32 >= 20 {
			tau, start = 0.5+float64(data[2])/512, 3
		}
		fn := [4]similarity.Func{similarity.Jaccard, similarity.Cosine, similarity.Dice, similarity.Overlap}[data[1]&0x7f/32]
		var stream []*record.Record
		for i := start; i < len(data); {
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
		indexVsBruteForce(t, stream, filter.Params{Func: fn, Threshold: tau}, win)
	})
}

// indexVsBruteForce runs stream through the index, at the default bundle
// cap and at MaxMembers 2 (where every third copy of a set overflows), and
// requires exactly the pairs of the quadratic scan, each emitted once. A
// second index probes every record with a nil emit: after each step it
// must hold the same Stats, have taken the same insertion hint and counted
// as many matches as the first emitted.
func indexVsBruteForce(t *testing.T, stream []*record.Record, p filter.Params, win window.Policy) {
	t.Helper()
	tau := p.Threshold
	want := bruteForce(stream, p, win)
	for _, cfg := range []Config{{}, {MaxMembers: 2}} {
		bx, cx := New(p, win, cfg), New(p, win, cfg)
		got := make(map[record.Pair]bool)
		for _, r := range stream {
			n := len(got)
			bx.Evict(r.ID, r.Time)
			best, ok := bx.Probe(r, func(m Match) {
				pr := record.NewPair(r.ID, m.Rec.ID, 0)
				if got[pr] {
					t.Fatalf("τ=%v win=%v %+v: %v emitted twice", tau, win, cfg, pr)
				}
				got[pr] = true
			})
			bx.Insert(r, best)
			cx.Evict(r.ID, r.Time)
			before := cx.Results()
			cbest, cok := cx.Probe(r, nil)
			if c := cx.Results() - before; c != uint64(len(got)-n) {
				t.Fatalf("τ=%v win=%v %+v record %d: counted %d matches, emitted %d", tau, win, cfg, r.ID, c, len(got)-n)
			}
			if cok != ok || cbest.Sim != best.Sim || cbest.At != best.At || (cbest.Bundle == nil) != (best.Bundle == nil) ||
				best.Bundle != nil && cbest.Bundle.slot != best.Bundle.slot {
				t.Fatalf("τ=%v win=%v %+v record %d: counting hint %+v %v, emitting %+v %v", tau, win, cfg, r.ID, cbest, cok, best, ok)
			}
			cx.Insert(r, cbest)
			if bs, cs := bx.Stats(), cx.Stats(); bs != cs {
				t.Fatalf("τ=%v win=%v %+v record %d: counting stats %+v, emitting %+v", tau, win, cfg, r.ID, cs, bs)
			}
		}
		for pr := range want {
			if !got[pr] {
				t.Fatalf("τ=%v win=%v %+v: missing %v (%d of %d pairs found)", tau, win, cfg, pr, len(got), len(want))
			}
		}
		if len(got) != len(want) {
			t.Fatalf("τ=%v win=%v %+v: %d pairs, brute force finds %d", tau, win, cfg, len(got), len(want))
		}
	}
}

// wideLens are the cluster lengths of the wide-signature oracle: on either
// side of both width boundaries, and out into the tail where 256 bits are
// saturated.
var wideLens = [8]int{100, 191, 192, 250, 383, 384, 500, 700}

// wideRec derives a long record from three bytes. Cluster c%8 has a fixed
// base set, wideLens[c%8] ranks drawn from a universe of 2 048; the record is
// that set with vary%16 percent of its tokens redrawn, by draws seeded with
// seed — so records of one cluster are similar enough to share bundles, their
// lengths sit at or just under the cluster's, and any two clusters share a
// fair fraction of the universe, which is what saturates a narrow signature.
func wideRec(id record.ID, c, vary, seed byte) *record.Record {
	const universe = 2048
	n := wideLens[c%8]
	set := make([]tokens.Rank, n)
	for i, t := range rand.New(rand.NewSource(int64(c % 8))).Perm(universe)[:n] {
		set[i] = tokens.Rank(t)
	}
	rng := rand.New(rand.NewSource(int64(seed)))
	for k := n * int(vary%16) / 100; k > 0; k-- {
		set[rng.Intn(n)] = tokens.Rank(rng.Intn(universe))
	}
	return rec(id, set...)
}

// wideRecs encodes a FuzzWideSigVsBruteForce input: window byte, threshold
// byte, then {cluster, vary, seed} per record.
func wideRecs(win, tau byte, recs ...[3]byte) []byte {
	out := []byte{win, tau}
	for _, r := range recs {
		out = append(out, r[:]...)
	}
	return out
}

// FuzzWideSigVsBruteForce is FuzzIndexVsBruteForce over the records that one
// cannot reach: 100–700 tokens over ~2 000 ranks (see wideRec), up to 64 of
// them under a count window of 0–31, so bundles are founded at every
// signature width, grow, saturate, die and hand their slots and wide cells
// to bundles of another width — serial and pooled against the quadratic scan.
func FuzzWideSigVsBruteForce(f *testing.F) {
	// Both sides of the 256/512 boundary in one family, then of 512/1 024.
	f.Add(wideRecs(0, 4, [3]byte{1, 0, 0}, [3]byte{2, 0, 0}, [3]byte{2, 3, 1}, [3]byte{1, 2, 2}, [3]byte{2, 5, 3}, [3]byte{1, 0, 4}))
	f.Add(wideRecs(0, 3, [3]byte{4, 0, 0}, [3]byte{5, 0, 0}, [3]byte{5, 2, 1}, [3]byte{4, 4, 2}, [3]byte{5, 1, 3}, [3]byte{4, 0, 4}))
	// Every cluster twice under a window of 5: slots change width as they recycle.
	f.Add(wideRecs(5, 4, [3]byte{7, 0, 0}, [3]byte{0, 0, 0}, [3]byte{6, 0, 0}, [3]byte{1, 0, 0}, [3]byte{5, 0, 0}, [3]byte{2, 0, 0},
		[3]byte{4, 0, 0}, [3]byte{3, 0, 0}, [3]byte{7, 4, 1}, [3]byte{0, 4, 1}, [3]byte{6, 4, 1}, [3]byte{1, 4, 1}, [3]byte{5, 4, 1},
		[3]byte{2, 4, 1}, [3]byte{4, 4, 1}, [3]byte{3, 4, 1}))
	// The saturated tail: 500- and 700-token families that overlap each other.
	f.Add(wideRecs(0, 2, [3]byte{6, 0, 0}, [3]byte{7, 0, 0}, [3]byte{6, 9, 1}, [3]byte{7, 9, 2}, [3]byte{6, 15, 3}, [3]byte{7, 15, 4}, [3]byte{7, 3, 5}))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 || len(data) > 2+3*64 {
			t.Skip()
		}
		var win window.Policy = window.Unbounded{}
		if n := int64(data[0] % 32); n > 0 {
			win = window.Count{N: n}
		}
		tau := 0.5 + float64(data[1]%10)*0.05
		var stream []*record.Record
		for i := 2; i+2 < len(data); i += 3 {
			stream = append(stream, wideRec(record.ID(len(stream)), data[i], data[i+1], data[i+2]))
		}
		indexVsBruteForce(t, stream, params(tau), win)
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
	for slot := uint32(0); int(slot) < len(near.al.hots); slot++ {
		if seen := near.al.hotAt(slot).seen; seen > 3 {
			t.Fatalf("slot %d still stamped %d: a stamp from before the wrap survived the reset", slot, seen)
		}
	}
}

// TestHotBandSaturation is the soundness of the saturating length mirror:
// around each founder length at and beyond either cap (hotLoMax for the
// band's lower end, hotLenMax for its upper) the stream holds a partner on
// either side — short enough that the probe's upper bound falls inside the
// saturated range, long enough that its lower bound exceeds the cap while a
// member still reaches it — and every pair the exact band admits must be
// found.
func TestHotBandSaturation(t *testing.T) {
	const tau = 0.95 // short prefixes: Bundle.add's posted-token dedup is quadratic in them
	var stream []*record.Record
	for i, l := range []int{16383, 16384, 32767, 32768, 70000} {
		off := i * 200_000 // disjoint universes: one bundle family per length
		for _, n := range []int{l, l * 96 / 100, l * 100 / 96, l*96/100 + 1, l * 102 / 100} {
			stream = append(stream, rec(record.ID(len(stream)), span(off, n)...))
		}
	}
	want := bruteForce(stream, params(tau), window.Unbounded{})
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
		h, b := bx.al.hotAt(slot), bx.al.at(slot)
		if h.lo&hotLoMax == hotLoMax {
			satLo++
		}
		if h.hi&^hotLive == hotLenMax {
			satHi++
		}
		if (b.MinLen() < hotLoMax && b.MaxLen() > hotLoMax) || (b.MinLen() < hotLenMax && b.MaxLen() > hotLenMax) {
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
		t.Logf("%-10s per record: %.1f %% twin probes; scanned %.1f → bundles %.1f → length-skipped %.1f, signature-skipped %.1f → singleton %.1f + union %.1f merges → verified %.2f (%.1f %% twins) → results %.2f",
			prof.Name, 100*float64(st.TwinProbes)/n, float64(st.Scanned)/n, float64(st.BundleCands)/n, float64(st.BundleLenSkip)/n, float64(st.BundleSigSkip)/n,
			float64(st.SingletonFast)/n, float64(st.UnionOverlaps)/n, float64(st.Verified)/n,
			100*float64(st.TwinMatches)/float64(max(st.Verified, 1)), float64(st.Results)/n)
		if out := st.BundleLenSkip + st.BundleSigSkip + st.SingletonFast + st.BundleQuickSkip + st.UnionOverlaps; st.BundleCands != out {
			t.Errorf("%s: %d candidate bundles, %d accounted for: %+v", prof.Name, st.BundleCands, out, st)
		}
		if st.UnionOverlaps < st.BundleUBSkip || st.Verified < st.Results || st.BundleCands == 0 || st.TwinMatches > st.Verified {
			t.Errorf("%s: funnel out of order: %+v", prof.Name, st)
		}
		// At τ 0.7 records of 1 and 2 tokens are twins: AOL-like has many,
		// Enron-like none.
		if (prof.Name == "AOL-like" && st.TwinProbes == 0) || (prof.Name == "ENRON-like" && st.TwinProbes != 0) {
			t.Errorf("%s: %d twin probes", prof.Name, st.TwinProbes)
		}
		if prof.Name == "ENRON-like" && st.BundleSigSkip == 0 {
			t.Errorf("%s: the signature gate never skipped a bundle", prof.Name)
		}
	}
}

// BenchmarkProbeAOLLike measures the short-record path at τ 0.8, where
// records of up to 7 tokens — nearly all of AOL-like — are answered by the
// containment regime's lookups: "probe" is the probe alone against a
// standing 50 000-record window, "count" the same probes with a nil emit,
// "step" one eviction, probe and insert per op over a full window. The
// records are generated before the clock starts and reused, re-stamped,
// once the window has let go of them, so allocs/op is the index's own —
// which CI holds at 0 for all three. "count" fails unless its probes ran
// the lookups and counted what the emitting probes emit; "step" fails
// unless probes ran the lookups and one found, through a subset key, a
// longer partner of a record no bundle holds.
func BenchmarkProbeAOLLike(b *testing.B) {
	const win = 50000
	gen := workload.NewGenerator(workload.AOLLike(42))
	bx := New(params(0.8), window.Count{N: win}, Config{})
	ring := gen.Generate(2 * win)
	for _, r := range ring[:win] {
		bx.Process(r, func(Match) {})
	}
	var cur *record.Record // the record being probed
	results, keyed := 0, 0
	emit := func(m Match) {
		results++
		// A longer partner of a record that never reaches a bundle: only
		// a subset key finds it. Read from the match, never loading m.Rec.
		if m.Overlap == cur.Len() && m.Sim < 1 && cur.Len() <= bx.cMax {
			keyed++
		}
	}
	b.Run("probe", func(b *testing.B) {
		probes := ring[win : win+1000]
		for _, r := range probes { // warm the scratch buffers
			cur = r
			bx.Probe(r, emit)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cur = probes[i%len(probes)]
			bx.Probe(cur, emit)
		}
	})
	b.Run("count", func(b *testing.B) {
		probes := ring[win : win+1000]
		want := make([]uint64, len(probes)) // each probe's emitted matches
		for i, r := range probes {
			bx.Probe(r, func(Match) { want[i]++; results++ })
		}
		r0, twins := bx.stats.Results, bx.stats.TwinProbes
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			bx.Probe(probes[i%len(probes)], nil)
		}
		b.StopTimer()
		sum := uint64(0)
		for i := 0; i < b.N; i++ {
			sum += want[i%len(probes)]
		}
		if bx.stats.TwinProbes == twins {
			b.Fatal("no counting probe ran the containment regime's lookups")
		}
		if got := bx.stats.Results - r0; got != sum {
			b.Fatalf("counting probes found %d matches, emitting ones %d", got, sum)
		}
	})
	next := record.ID(win) // IDs keep rising across the runs b.Run makes
	step := func() {
		cur = ring[int(next)%len(ring)]
		cur.ID, cur.Time = next, int64(next)
		bx.Process(cur, emit)
		next++
	}
	b.Run("step", func(b *testing.B) {
		for i := 0; i < 2*win; i++ { // a full turn of the ring: every table and slab at its peak
			step()
		}
		k0, twins := keyed, bx.stats.TwinProbes
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			step()
		}
		b.StopTimer()
		if bx.stats.TwinProbes == twins && b.N > 100 {
			b.Fatal("no probe ran the containment regime's lookups")
		}
		if keyed == k0 && b.N > 1000 {
			b.Fatal("no probe found a partner through a subset key")
		}
	})
	if results == 0 {
		b.Fatal("probes matched nothing")
	}
}

// BenchmarkProbeEnronLike measures the path the signature gate sits on,
// over a full 20 000-record window of Enron-like records at τ 0.7: "step"
// is one eviction, one probe and one insert per op (the one-command CPU
// profile of the enron_verify workload's join), over the whole stream
// ("all") and per signature-width class of the record — the stream still
// runs whole, so the window keeps its mix, but only records of the class
// are ops: their own clock is the ns/op, their funnel the sigskip/op and
// verified/op, which is how DESIGN.md's width tables were made and where a
// saturating width shows as a number; "probe" is the probe alone against
// the standing window, which CI holds at 0 allocs/op.
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
	for _, class := range []struct {
		name   string
		lo, hi int
	}{{"all", 0, math.MaxInt}, {"len<192", 0, 191}, {"192-383", 192, 383}, {">=384", 384, math.MaxInt}} {
		b.Run("step/"+class.name, func(b *testing.B) {
			var spent time.Duration
			var skipped, verified uint64
			for n := 0; n < b.N; {
				r := gen.Next()
				if r.Len() < class.lo || r.Len() > class.hi {
					bx.Process(r, emit)
					continue
				}
				s0, v0, t0 := bx.stats.BundleSigSkip, bx.stats.Verified, time.Now()
				bx.Process(r, emit)
				spent += time.Since(t0)
				skipped, verified = skipped+bx.stats.BundleSigSkip-s0, verified+bx.stats.Verified-v0
				n++
			}
			b.ReportMetric(float64(spent.Nanoseconds())/float64(b.N), "ns/op")
			b.ReportMetric(float64(skipped)/float64(b.N), "sigskip/op")
			b.ReportMetric(float64(verified)/float64(b.N), "verified/op")
		})
	}
}
