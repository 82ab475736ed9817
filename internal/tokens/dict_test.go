package tokens

import (
	"bufio"
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"
)

// checkDict holds d to its model: ids dense in insertion order, every
// word resolving to its id by string and by bytes, every id back to its
// word, and Save → LoadDictionary → Save byte-identical.
func checkDict(t *testing.T, d *Dictionary, words []string) {
	t.Helper()
	if d.Size() != len(words) {
		t.Fatalf("Size %d, model holds %d words", d.Size(), len(words))
	}
	for i, w := range words {
		id := Token(i)
		if got := d.Word(id); got != w {
			t.Fatalf("Word(%d) = %q, want %q", id, got, w)
		}
		if got, ok := d.Lookup(w); !ok || got != id {
			t.Fatalf("Lookup(%q) = (%d,%v), want (%d,true)", w, got, ok, id)
		}
		if got, ok := d.LookupBytes([]byte(w)); !ok || got != id {
			t.Fatalf("LookupBytes(%q) = (%d,%v), want (%d,true)", w, got, ok, id)
		}
	}
	var first, second bytes.Buffer
	if err := d.Save(&first); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadDictionary(bufio.NewReader(bytes.NewReader(first.Bytes())))
	if err != nil {
		t.Fatal(err)
	}
	if err := loaded.Save(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("Save → LoadDictionary → Save is not byte-identical")
	}
}

// TestDictionaryEdgeWords interns the words a slot's inline head and the
// arena's offsets are most likely to get wrong, then keeps interning
// through several table doublings.
func TestDictionaryEdgeWords(t *testing.T) {
	edge := []string{
		"",
		// NUL-padded twins: one zero-padded head, different lengths.
		"a", "a\x00", "a\x00\x00", "a\x00\x00\x00\x00\x00\x00", "a\x00\x00\x00\x00\x00\x00\x00",
		"\x00", "\x00\x00", "\x00\x00\x00\x00\x00\x00\x00\x00\x00",
		// Around the 8-byte head.
		"1234567", "12345678", "123456789",
		// Long words sharing their first 8 bytes.
		"abcdefgh", "abcdefghi", "abcdefghj", "abcdefghij", "abcdefgh\x00",
		strings.Repeat("abcdefgh", 4), strings.Repeat("abcdefgh", 4) + "x",
		// Invalid UTF-8.
		"\xff", "\xff\xfe", "a\xc3", "caf\xe9", "\xe2\x80",
	}
	// Twins and near misses of the words above, never interned.
	absent := []string{
		"a\x00\x00\x00", "\x00\x00\x00", "b", "123456", "1234567\x00", "12345678\x00",
		"abcdefg", "abcdefgh\x00\x00", "abcdefghk", strings.Repeat("abcdefgh", 4) + "y", "\xfe",
	}
	d := NewDictionary()
	var words []string
	for i, w := range edge {
		if id := d.Intern(w); id != Token(i) {
			t.Fatalf("Intern(%q) = %d, want %d", w, id, i)
		}
		words = append(words, w)
	}
	for i, w := range edge {
		if id := d.InternBytes([]byte(w)); id != Token(i) {
			t.Fatalf("InternBytes(%q) again = %d, want %d", w, id, i)
		}
	}
	for _, w := range absent {
		if id, ok := d.Lookup(w); ok {
			t.Fatalf("Lookup(%q) found %d (%q), a word never interned", w, id, d.Word(id))
		}
	}
	checkDict(t, d, words)

	for doubling, size := 0, len(d.slots); doubling < 6; {
		w := "grow" + strconv.Itoa(len(words))
		if id := d.InternBytes([]byte(w)); id != Token(len(words)) {
			t.Fatalf("InternBytes(%q) = %d, want %d", w, id, len(words))
		}
		words = append(words, w)
		if len(d.slots) != size {
			if len(d.slots) != 2*size || 4*d.Size() > 3*len(d.slots) {
				t.Fatalf("table went %d → %d slots at %d words", size, len(d.slots), d.Size())
			}
			size = len(d.slots)
			doubling++
			checkDict(t, d, words)
		}
	}
}

// TestArenaEndPanicsPast4GiB: word offsets are 32 bits, so an arena that
// would pass 4 GiB must panic instead of wrapping.
func TestArenaEndPanicsPast4GiB(t *testing.T) {
	if got := arenaEnd(math.MaxUint32-1, 1); got != math.MaxUint32 {
		t.Fatalf("arenaEnd at the bound = %d, want %d", got, uint32(math.MaxUint32))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("an arena past 4 GiB did not panic")
		}
	}()
	arenaEnd(math.MaxUint32, 1)
}

// FuzzDictionaryVsMap drives a dictionary and a map[string]Token model
// with one byte-coded sequence of Intern, InternBytes, Lookup and
// LookupBytes calls. Each op takes a byte: its low two bits pick the
// call; bit 2 reuses an earlier word (next byte picks it, plus a suffix
// byte when bit 3 is set); otherwise bits 4-7 give a fresh word's length
// and its bytes follow.
func FuzzDictionaryVsMap(f *testing.F) {
	f.Add([]byte{0x10, 'a', 0x21, 'a', 0, 0x14, 0, 0x1c, 0, 0, 0x02, 0x87, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte("\x90abcdefgh1\x91abcdefgh2\x93abcdefgh1\x04\x00\x0d\x01\x00"))
	f.Add([]byte{0x00, 0x01, 0x04, 0, 0x05, 0, 0x0e, 0, 0xff, 0xf0})
	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewDictionary()
		model := make(map[string]Token)
		var words []string
		next := func() (byte, bool) {
			if len(data) == 0 {
				return 0, false
			}
			b := data[0]
			data = data[1:]
			return b, true
		}
		for {
			op, ok := next()
			if !ok {
				break
			}
			var w string
			if op&4 != 0 && len(words) > 0 {
				k, _ := next()
				w = words[int(k)%len(words)]
				if op&8 != 0 {
					s, _ := next()
					w += string([]byte{s})
				}
			} else {
				n := min(int(op>>4), len(data))
				w = string(data[:n])
				data = data[n:]
			}
			want, known := model[w]
			switch op & 3 {
			case 0, 1:
				var got Token
				if op&3 == 0 {
					got = d.Intern(w)
				} else {
					got = d.InternBytes([]byte(w))
				}
				if !known {
					want = Token(len(words))
					model[w] = want
					words = append(words, w)
				}
				if got != want {
					t.Fatalf("intern %q = %d, want %d", w, got, want)
				}
			case 2, 3:
				var got Token
				var ok bool
				if op&3 == 2 {
					got, ok = d.Lookup(w)
				} else {
					got, ok = d.LookupBytes([]byte(w))
				}
				if ok != known || (known && got != want) {
					t.Fatalf("lookup %q = (%d,%v), want (%d,%v)", w, got, ok, want, known)
				}
			}
		}
		checkDict(t, d, words)
	})
}
