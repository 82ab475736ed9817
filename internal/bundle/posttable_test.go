package bundle

import (
	"slices"
	"testing"

	"repro/internal/tokens"
	"repro/internal/window"
)

// tableCensus returns every posting of tbl in bucket order after checking the
// table's own invariants: each posting sits in the bucket its token hashes
// to, the overflow list holds exactly what the inline slots cannot, every
// overflow list is owned by one bucket, and n is the number of postings held.
func tableCensus(t testing.TB, tbl *postTable) []posting {
	t.Helper()
	if len(tbl.buckets) != 1<<(32-tbl.shift) || len(tbl.buckets) < 1<<postMinBits {
		t.Fatalf("%d buckets under shift %d", len(tbl.buckets), tbl.shift)
	}
	var all []posting
	owned := make(map[uint32]bool)
	for i := range tbl.buckets {
		b := &tbl.buckets[i]
		ps := append([]posting(nil), b.inl[:min(int(b.n), bucketInline)]...)
		if b.ovf != 0 {
			if owned[b.ovf] {
				t.Fatalf("overflow list %d owned twice", b.ovf)
			}
			owned[b.ovf] = true
			ps = append(ps, tbl.over[b.ovf-1]...)
		}
		if len(ps) != int(b.n) {
			t.Fatalf("bucket %d: n=%d, holds %d", i, b.n, len(ps))
		}
		for _, p := range ps {
			if tbl.bucket(p.tok) != b {
				t.Fatalf("token %d found in bucket %d, which it does not hash to", p.tok, i)
			}
		}
		all = append(all, ps...)
	}
	if len(owned) != len(tbl.over) || len(all) != tbl.n {
		t.Fatalf("%d overflow lists, %d owned; n=%d, census %d", len(tbl.over), len(owned), tbl.n, len(all))
	}
	return all
}

// walkDrop walks tok's postings the way collectCandidates does — the whole
// bucket, compacting in place, neighbours kept — dropping those drop names, and
// returns the slots it saw under tok, in order.
func walkDrop(tbl *postTable, tok tokens.Rank, drop func(slot uint32) bool) (seen []uint32) {
	b := tbl.bucket(tok)
	ov, n, w := tbl.overflow(b), b.n, uint32(0)
	for i := uint32(0); i < n; i++ {
		p := b.at(ov, i)
		if p.tok == tok {
			seen = append(seen, p.slot)
			if drop(p.slot) {
				continue
			}
		}
		b.set(ov, w, p)
		w++
	}
	tbl.truncate(b, ov, w)
	return seen
}

// collider returns the k-th of 65 536 tokens that share one bucket in every
// table of up to 2^16 buckets: their Fibonacci hashes agree in the top 16
// bits.
func collider(k int) tokens.Rank {
	return (0xABCD<<16 | uint32(k)&0xFFFF) * sigHashMulInv
}

// sigHashMulInv is sigHashMul's inverse mod 2^32, by Newton's iteration: each
// step doubles the correct low bits.
var sigHashMulInv = func() uint32 {
	inv := uint32(sigHashMul)
	for i := 0; i < 5; i++ {
		inv *= 2 - sigHashMul*inv
	}
	return inv
}()

// FuzzPostTableVsMap drives the posting table and the map[Rank][]uint32 it
// replaced through the same adds, walks with drops, sweeps, growths and
// shrinks: every token keeps the same slot sequence, count agrees (absent
// tokens included), and n is a census. Each operation is an opcode byte and
// an argument byte; tokens come from a palette that includes 0, 1<<31 and
// ^uint32(0), a dense range and colliders, and one opcode adds a thousand or
// more colliders at once.
func FuzzPostTableVsMap(f *testing.F) {
	f.Add([]byte{0, 0, 0, 8, 0, 16, 1, 0, 1, 8, 1, 16, 2, 1, 1, 0})                 // 0, 1<<31, ^0: add, walk, sweep
	f.Add([]byte{4, 0, 1, 1, 2, 3, 1, 1, 4, 9, 2, 2, 3, 0, 1, 1})                   // 1 000 and 1 144 colliders in one bucket, swept, shrunk
	f.Add([]byte{0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 1, 1, 2, 2}) // one token past the inline slots and back
	f.Add([]byte{4, 3, 3, 9, 3, 0, 2, 5, 3, 12, 1, 5})                              // explicit grow and shrink around a heavy bucket
	dense := []byte{}
	for i := 0; i < 200; i++ {
		dense = append(dense, 0, byte(i*7+4))
	}
	f.Add(append(dense, 2, 3, 1, 4, 3, 1)) // a few hundred dense tokens through several growths
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1024 {
			t.Skip()
		}
		var tbl postTable
		tbl.rebuild(postMinBits)
		model := make(map[tokens.Rank][]uint32)
		modelN, nextSlot := 0, uint32(0)
		token := func(b byte) tokens.Rank {
			switch b % 8 {
			case 0:
				return [...]tokens.Rank{0, 1 << 31, ^uint32(0)}[int(b>>3)%3]
			case 1, 2, 3:
				return collider(int(b >> 2))
			}
			return tokens.Rank(b)
		}
		add := func(tok tokens.Rank) {
			tbl.add(posting{tok, nextSlot})
			model[tok] = append(model[tok], nextSlot)
			nextSlot++
			modelN++
		}
		// dropper names the slots an operation kills: every k-th.
		dropper := func(arg byte) func(uint32) bool {
			k := uint32(arg%5) + 1
			return func(slot uint32) bool { return slot%k == 0 }
		}
		checkToken := func(tok tokens.Rank) {
			t.Helper()
			if got := tbl.count(tok); got != len(model[tok]) {
				t.Fatalf("count(%d) = %d, model holds %d", tok, got, len(model[tok]))
			}
			if got := walkDrop(&tbl, tok, func(uint32) bool { return false }); !slices.Equal(got, model[tok]) {
				t.Fatalf("token %d: slots %v, model %v", tok, got, model[tok])
			}
		}
		// checkAll compares every token's sequence through one census, and
		// count and the walk on the whole palette plus an absent token.
		checkAll := func() {
			t.Helper()
			got := make(map[tokens.Rank][]uint32)
			for _, p := range tableCensus(t, &tbl) {
				got[p.tok] = append(got[p.tok], p.slot)
			}
			if len(got) != len(model) {
				t.Fatalf("table holds %d tokens, model %d", len(got), len(model))
			}
			for tok, slots := range model {
				if !slices.Equal(got[tok], slots) {
					t.Fatalf("token %d: slots %v, model %v", tok, got[tok], slots)
				}
			}
			for b := 0; b < 256; b++ {
				checkToken(token(byte(b)))
			}
			checkToken(12345) // never added
		}
		for i := 0; i+1 < len(data); i += 2 {
			op, arg := data[i]%5, data[i+1]
			switch op {
			case 0:
				add(token(arg))
				checkToken(token(arg))
			case 1: // a probe's walk
				tok, drop := token(arg), dropper(arg>>3)
				if got := walkDrop(&tbl, tok, drop); !slices.Equal(got, model[tok]) {
					t.Fatalf("walk of %d saw %v, model %v", tok, got, model[tok])
				}
				modelN -= len(model[tok])
				model[tok] = slices.DeleteFunc(model[tok], drop)
				modelN += len(model[tok])
				if len(model[tok]) == 0 {
					delete(model, tok)
				}
				checkToken(tok)
			case 2: // a sweep, then the shrink it allows
				drop := dropper(arg)
				for k := range tbl.buckets {
					b := &tbl.buckets[k]
					ov, n, w := tbl.overflow(b), b.n, uint32(0)
					for i := uint32(0); i < n; i++ {
						if p := b.at(ov, i); !drop(p.slot) {
							b.set(ov, w, p)
							w++
						}
					}
					tbl.truncate(b, ov, w)
				}
				tbl.fit()
				modelN = 0
				for tok := range model {
					if model[tok] = slices.DeleteFunc(model[tok], drop); len(model[tok]) == 0 {
						delete(model, tok)
					}
					modelN += len(model[tok])
				}
				checkAll()
			case 3: // growth or shrink to any size
				tbl.rebuild(postMinBits + uint32(arg%10))
				checkAll()
			case 4: // a heavy bucket
				for k := 0; k < 1000+int(arg)*16; k++ {
					add(collider(k))
				}
				checkToken(collider(0))
			}
			if tbl.n != modelN {
				t.Fatalf("n=%d after op %d, model holds %d", tbl.n, op, modelN)
			}
		}
		checkAll()
	})
}

// TestSweepAllocatesNothing pins the in-place sweep: on indexes whose
// postings are half dead it drops them without a single allocation (the
// bundle free list it pushes to, an amortised self-append bounded by the
// bundles carved, is given that capacity first).
func TestSweepAllocatesNothing(t *testing.T) {
	const runs = 5
	var idx []*Index
	for k := 0; k <= runs; k++ {
		// Just under the sweep trigger: kill bundles directly.
		bx := New(params(0.6), window.Unbounded{}, Config{})
		for _, r := range wideStream(int64(200+k), 2000) {
			if r.Len() > bx.cMax { // records of up to cMax tokens never reach a bundle
				bx.Process(r, func(Match) {})
			}
		}
		for i, fe := range bx.fifo {
			if i%2 == 0 {
				continue
			}
			fe.b.remove(&bx.al, fe.m)
			bx.al.mirror(fe.b)
			if len(fe.b.Members) == 0 {
				bx.retire(fe.b)
			}
		}
		if bx.deadPosts < 500 {
			t.Fatalf("only %d dead postings to sweep", bx.deadPosts)
		}
		bx.al.freeB = slices.Grow(bx.al.freeB, len(bx.al.bchunks)*bundleChunk)
		idx = append(idx, bx)
	}
	k := 0
	if avg := testing.AllocsPerRun(runs, func() { idx[k].sweep(); k++ }); avg != 0 {
		t.Fatalf("sweep allocates %.1f times per call", avg)
	}
	for _, bx := range idx {
		if bx.deadPosts != 0 {
			t.Fatalf("%d dead postings left after the sweep", bx.deadPosts)
		}
	}
}
