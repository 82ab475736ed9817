package tokens

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

func TestDictionarySaveLoadRoundTrip(t *testing.T) {
	d := NewDictionary()
	words := []string{"alpha", "beta", "γάμμα", "", "with space"}
	for i, w := range words {
		id := d.Intern(w)
		for j := 0; j <= i; j++ {
			d.Observe([]Token{id})
		}
	}
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadDictionary(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if got.Size() != d.Size() {
		t.Fatalf("size: %d vs %d", got.Size(), d.Size())
	}
	for i, w := range words {
		id, ok := got.Lookup(w)
		if !ok || id != Token(i) {
			t.Fatalf("word %q: id %d ok %v", w, id, ok)
		}
		if got.Frequency(id) != d.Frequency(id) {
			t.Fatalf("freq of %q: %d vs %d", w, got.Frequency(id), d.Frequency(id))
		}
	}
}

func TestOrderingSaveLoadPreservesRanks(t *testing.T) {
	d := NewDictionary()
	for _, w := range []string{"a", "b", "c", "d"} {
		id := d.Intern(w)
		d.Observe([]Token{id})
	}
	o := NewOrdering(d)
	// Force two post-frozen assignments.
	late1 := d.Intern("late1")
	late2 := d.Intern("late2")
	r1, r2 := o.RankOf(late1), o.RankOf(late2)

	var db, ob bytes.Buffer
	if err := d.Save(&db); err != nil {
		t.Fatal(err)
	}
	if err := o.Save(&ob); err != nil {
		t.Fatal(err)
	}
	d2, err := LoadDictionary(bufio.NewReader(&db))
	if err != nil {
		t.Fatal(err)
	}
	o2, err := LoadOrdering(bufio.NewReader(&ob), d2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < d.Size(); i++ {
		if o.RankOf(Token(i)) != o2.RankOf(Token(i)) {
			t.Fatalf("rank of token %d differs: %d vs %d",
				i, o.RankOf(Token(i)), o2.RankOf(Token(i)))
		}
	}
	if o2.RankOf(late1) != r1 || o2.RankOf(late2) != r2 {
		t.Fatal("post-frozen ranks not preserved")
	}
	// New tokens after restore continue the rank sequence.
	newer := d2.Intern("newer")
	if got := o2.RankOf(newer); got != r2+1 {
		t.Fatalf("next rank: got %d want %d", got, r2+1)
	}
}

func TestLoadDictionaryRejectsGarbage(t *testing.T) {
	if _, err := LoadDictionary(bufio.NewReader(strings.NewReader(""))); err == nil {
		t.Fatal("empty accepted")
	}
	// Absurd count.
	if _, err := LoadDictionary(bufio.NewReader(bytes.NewReader([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F}))); err == nil {
		t.Fatal("absurd count accepted")
	}
}

func TestLoadOrderingRejectsGarbage(t *testing.T) {
	d := NewDictionary()
	if _, err := LoadOrdering(bufio.NewReader(strings.NewReader("")), d); err == nil {
		t.Fatal("empty accepted")
	}
}

// TestLoadOrderingHostileCountIsRejectedUnallocated: 5 bytes that declare
// 2^28 frozen ranks and carry none must not size an allocation first.
func TestLoadOrderingHostileCountIsRejectedUnallocated(t *testing.T) {
	snap := binary.AppendUvarint(nil, 1<<28)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := LoadOrdering(bytes.NewReader(snap), NewDictionary())
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("an ordering declaring 2^28 missing ranks accepted")
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
		t.Fatalf("LoadOrdering allocated %d bytes for a %d-byte snapshot", n, len(snap))
	}
}

// FuzzLoadOrdering feeds arbitrary bytes to LoadOrdering: a corrupt
// snapshot must produce an error, never a panic, and any ordering it
// accepts must survive Save→Load unchanged. The seed, a real Save, must
// come back byte for byte.
func FuzzLoadOrdering(f *testing.F) {
	d, o := lateOrdering(16)
	var snap, back bytes.Buffer
	if err := o.Save(&snap); err != nil {
		f.Fatal(err)
	}
	loaded, err := LoadOrdering(bytes.NewReader(snap.Bytes()), d)
	if err != nil {
		f.Fatal(err)
	}
	if err := loaded.Save(&back); err != nil {
		f.Fatal(err)
	}
	if !bytes.Equal(back.Bytes(), snap.Bytes()) {
		f.Fatal("a saved ordering loads and saves differently")
	}
	f.Add(snap.Bytes())
	f.Add(binary.AppendUvarint(nil, 1<<28))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := LoadOrdering(bytes.NewReader(data), d)
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := got.Save(&first); err != nil {
			t.Fatal(err)
		}
		again, err := LoadOrdering(bytes.NewReader(first.Bytes()), d)
		if err != nil {
			t.Fatalf("reloading a saved ordering: %v", err)
		}
		var second bytes.Buffer
		if err := again.Save(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatal("Save→Load→Save is not a fixed point")
		}
	})
}

// lateOrdering returns a dictionary of 4 frozen and n later tokens whose
// post-frozen ranks were assigned in an order unrelated to token order.
func lateOrdering(n int) (*Dictionary, *Ordering) {
	d := NewDictionary()
	for _, w := range []string{"a", "b", "c", "d"} {
		d.Observe([]Token{d.Intern(w)})
	}
	o := NewOrdering(d)
	late := make([]Token, n)
	for i := range late {
		late[i] = d.Intern("late" + strconv.Itoa(i))
	}
	rand.New(rand.NewSource(1)).Shuffle(n, func(i, j int) { late[i], late[j] = late[j], late[i] })
	for _, id := range late[:n-n/8] { // some tokens stay unranked: holes in the table
		o.RankOf(id)
	}
	return d, o
}

func TestOrderingSaveDeterministic(t *testing.T) {
	_, o := lateOrdering(64)
	var first, second bytes.Buffer
	if err := o.Save(&first); err != nil {
		t.Fatal(err)
	}
	if err := o.Save(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("two saves of one ordering differ")
	}
}

// TestLoadOrderingAcceptsAnyExtraOrder: Save used to write post-frozen
// assignments in map order, so snapshots exist with any permutation.
func TestLoadOrderingAcceptsAnyExtraOrder(t *testing.T) {
	d, o := lateOrdering(64)
	type extra struct{ tok, rank uint64 }
	var extras []extra
	o.DumpRanks(func(id Token, r Rank) {
		if int(id) >= 4 {
			extras = append(extras, extra{uint64(id), uint64(r)})
		}
	})
	if len(extras) != 56 {
		t.Fatalf("%d post-frozen assignments, want 56", len(extras))
	}

	var section []byte
	put := func(v uint64) { section = binary.AppendUvarint(section, v) }
	put(4)
	for id := Token(0); id < 4; id++ {
		put(uint64(o.RankOf(id)))
	}
	put(uint64(len(extras)))
	for i := len(extras) - 1; i >= 0; i-- { // descending token order
		put(extras[i].tok)
		put(extras[i].rank)
	}
	put(uint64(o.Universe()))

	got, err := LoadOrdering(bytes.NewReader(section), d)
	if err != nil {
		t.Fatal(err)
	}
	var want, have bytes.Buffer
	if err := o.Save(&want); err != nil {
		t.Fatal(err)
	}
	if err := got.Save(&have); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(have.Bytes(), want.Bytes()) {
		t.Fatal("an ordering loaded from descending extras saves differently from its source")
	}
}

func TestLoadOrderingRejectsExtrasOutsideTheDictionary(t *testing.T) {
	d, _ := lateOrdering(8)
	for name, tok := range map[string]uint64{"frozen token": 3, "beyond the dictionary": uint64(d.Size())} {
		var section []byte
		for _, v := range []uint64{4, 0, 1, 2, 3, 1, tok, 4, 5} {
			section = binary.AppendUvarint(section, v)
		}
		if _, err := LoadOrdering(bytes.NewReader(section), d); err == nil {
			t.Errorf("%s accepted as a post-frozen assignment", name)
		}
	}
}
