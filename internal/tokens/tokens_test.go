package tokens

import (
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestDictionaryInternIsIdempotent(t *testing.T) {
	d := NewDictionary()
	a := d.Intern("apple")
	b := d.Intern("banana")
	if a == b {
		t.Fatalf("distinct words got same id %d", a)
	}
	if again := d.Intern("apple"); again != a {
		t.Fatalf("re-intern apple: got %d want %d", again, a)
	}
	if d.Size() != 2 {
		t.Fatalf("size: got %d want 2", d.Size())
	}
	if w := d.Word(a); w != "apple" {
		t.Fatalf("word(a): got %q", w)
	}
}

func TestDictionaryLookup(t *testing.T) {
	d := NewDictionary()
	if _, ok := d.Lookup("ghost"); ok {
		t.Fatal("lookup of unseen word succeeded")
	}
	id := d.Intern("ghost")
	got, ok := d.Lookup("ghost")
	if !ok || got != id {
		t.Fatalf("lookup: got (%d,%v) want (%d,true)", got, ok, id)
	}
}

func TestObserveCountsDocumentFrequency(t *testing.T) {
	d := NewDictionary()
	a, b := d.Intern("a"), d.Intern("b")
	d.Observe([]Token{a, b})
	d.Observe([]Token{a})
	if f := d.Frequency(a); f != 2 {
		t.Fatalf("freq(a): got %d want 2", f)
	}
	if f := d.Frequency(b); f != 1 {
		t.Fatalf("freq(b): got %d want 1", f)
	}
}

func TestOrderingRareTokensRankFirst(t *testing.T) {
	d := NewDictionary()
	common := d.Intern("the")
	rare := d.Intern("xylophone")
	mid := d.Intern("data")
	for i := 0; i < 10; i++ {
		d.Observe([]Token{common})
	}
	for i := 0; i < 3; i++ {
		d.Observe([]Token{mid})
	}
	d.Observe([]Token{rare})
	o := NewOrdering(d)
	if !(o.RankOf(rare) < o.RankOf(mid) && o.RankOf(mid) < o.RankOf(common)) {
		t.Fatalf("ordering wrong: rare=%d mid=%d common=%d",
			o.RankOf(rare), o.RankOf(mid), o.RankOf(common))
	}
}

func TestOrderingTiesBreakByID(t *testing.T) {
	d := NewDictionary()
	a := d.Intern("a")
	b := d.Intern("b")
	o := NewOrdering(d)
	if !(o.RankOf(a) < o.RankOf(b)) {
		t.Fatalf("tie break: rank(a)=%d rank(b)=%d", o.RankOf(a), o.RankOf(b))
	}
}

func TestOrderingUnseenTokensGetStablePostFrozenRanks(t *testing.T) {
	d := NewDictionary()
	d.Intern("seen")
	o := NewOrdering(d)
	newTok := d.Intern("later")
	r1 := o.RankOf(newTok)
	if int(r1) < o.Universe()-1 {
		t.Fatalf("unseen token rank %d should be post-frozen", r1)
	}
	if r2 := o.RankOf(newTok); r2 != r1 {
		t.Fatalf("unseen rank not stable: %d then %d", r1, r2)
	}
	another := d.Intern("evenlater")
	if o.RankOf(another) == r1 {
		t.Fatal("two unseen tokens share a rank")
	}
}

func TestOrderingIsPermutationOfFrozenTokens(t *testing.T) {
	d := NewDictionary()
	rng := rand.New(rand.NewSource(7))
	words := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	for _, w := range words {
		d.Intern(w)
	}
	for i := 0; i < 100; i++ {
		id := Token(rng.Intn(len(words)))
		d.Observe([]Token{id})
	}
	o := NewOrdering(d)
	seen := make(map[Rank]bool)
	for i := 0; i < len(words); i++ {
		r := o.RankOf(Token(i))
		if int(r) >= len(words) {
			t.Fatalf("rank %d out of frozen range", r)
		}
		if seen[r] {
			t.Fatalf("duplicate rank %d", r)
		}
		seen[r] = true
	}
}

func TestWordTokenizer(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"Hello, World!", []string{"hello", "world"}},
		{"  spaced\tout\nlines ", []string{"spaced", "out", "lines"}},
		{"...", nil},
		{"", nil},
		{"don't STOP", []string{"don't", "stop"}},
	}
	var w WordTokenizer
	for _, c := range cases {
		got := w.Tokenize(c.in)
		if len(got) == 0 && len(c.want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestWordTokenizerKeepCase(t *testing.T) {
	w := WordTokenizer{KeepCase: true}
	got := w.Tokenize("Hello World")
	want := []string{"Hello", "World"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestQGramTokenizer(t *testing.T) {
	q := QGramTokenizer{Q: 3}
	got := q.Tokenize("abcd")
	want := []string{"abc", "bcd"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("3-grams of abcd: got %v want %v", got, want)
	}
	if short := q.Tokenize("ab"); !reflect.DeepEqual(short, []string{"ab"}) {
		t.Fatalf("short string: got %v", short)
	}
	if empty := q.Tokenize(""); empty != nil {
		t.Fatalf("empty string: got %v", empty)
	}
}

func TestQGramTokenizerPad(t *testing.T) {
	q := QGramTokenizer{Q: 2, Pad: true}
	got := q.Tokenize("ab")
	want := []string{"#a", "ab", "b#"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("padded 2-grams: got %v want %v", got, want)
	}
}

func TestQGramTokenizerPanicsOnBadQ(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Q=0")
		}
	}()
	QGramTokenizer{Q: 0}.Tokenize("x")
}

func TestDedup(t *testing.T) {
	got := Dedup([]Rank{5, 1, 3, 1, 5, 2})
	want := []Rank{1, 2, 3, 5}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
	if out := Dedup(nil); out != nil {
		t.Fatalf("nil input: got %v", out)
	}
	if out := Dedup([]Rank{7}); !reflect.DeepEqual(out, []Rank{7}) {
		t.Fatalf("singleton: got %v", out)
	}
}

func TestDedupPropertySortedUnique(t *testing.T) {
	f := func(in []uint32) bool {
		ranks := make([]Rank, len(in))
		copy(ranks, in)
		out := Dedup(ranks)
		if !sort.SliceIsSorted(out, func(i, j int) bool { return out[i] < out[j] }) {
			return false
		}
		uniq := make(map[Rank]bool)
		for _, r := range out {
			if uniq[r] {
				return false
			}
			uniq[r] = true
		}
		// Same value set as input.
		inSet := make(map[Rank]bool)
		for _, r := range in {
			inSet[r] = true
		}
		if len(inSet) != len(out) {
			return false
		}
		for _, r := range out {
			if !inSet[r] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestInternCopiesItsArgument: a stored word must never alias the caller's
// memory — a substring would pin its whole source line for the life of the
// dictionary, and a reused buffer would corrupt the map key.
func TestInternCopiesItsArgument(t *testing.T) {
	line := strings.Repeat("x", 1<<20) + "apple"
	d := NewDictionary()
	id := d.Intern(line[len(line)-5:])
	lo := uintptr(unsafe.Pointer(unsafe.StringData(line)))
	if p := uintptr(unsafe.Pointer(unsafe.StringData(d.Word(id)))); p >= lo && p < lo+uintptr(len(line)) {
		t.Fatal("the stored word is a view into the 1 MiB source string")
	}

	buf := []byte("banana")
	id = d.InternBytes(buf)
	copy(buf, "cherry")
	if w := d.Word(id); w != "banana" {
		t.Fatalf("stored word changed to %q when the caller reused its buffer", w)
	}
	if got, ok := d.Lookup("banana"); !ok || got != id {
		t.Fatalf("lookup after the buffer was reused: (%d,%v), want (%d,true)", got, ok, id)
	}
	if again := d.InternBytes([]byte("banana")); again != id || d.Size() != 2 {
		t.Fatalf("re-intern: id %d size %d, want id %d size 2", again, d.Size(), id)
	}
	// AllocsPerRun's warm-up call interns "cherry"; the measured ones hit.
	if n := testing.AllocsPerRun(100, func() { d.InternBytes(buf) }); n != 0 {
		t.Fatalf("interning a known word allocates %v times", n)
	}
}

func TestRankOfPanicsBeyondDictionary(t *testing.T) {
	d := NewDictionary()
	d.Intern("only")
	o := NewOrdering(d)
	defer func() {
		if recover() == nil {
			t.Fatal("RankOf of a token the dictionary never issued did not panic")
		}
	}()
	o.RankOf(Token(1 << 30))
}
