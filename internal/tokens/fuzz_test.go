package tokens

import (
	"slices"
	"testing"
	"unicode/utf8"
)

// hardTexts are inputs on which a hand-written scanner and the strings
// package most easily part ways. The fuzz targets start from them and
// TestScanMatchesReference runs them on every `go test`.
var hardTexts = []string{
	"hello, world",
	"Hello, World! don't STOP",
	"  \t\n ",
	"...",
	"",
	"日本語 テキスト",
	// Invalid bytes: before a word, inside one, at its end, as truncated
	// multi-byte sequences, and as a word's only rewrite.
	"\xFF\xFE A",
	"caf\xE9 na\xC3",
	"a\xE2\x80 b\xF0\x9F\x98 c",
	"ab\xFF",
	"ǅ\xFFX,.",
	// NEL, NBSP, LINE SEPARATOR, IDEOGRAPHIC SPACE, VT, FF.
	"x\u0085y\u00A0z\u2028w\u3000v\vu\fs",
	// Multi-byte punctuation around words, and on its own.
	"«word» “x” ‘y’ —dash— ¿Qué? ¡Sí!",
	"(«…»)",
	// Lower-casing changes the byte length: İ (U+0130), KELVIN SIGN (U+212A).
	"\u0130stanbul D\u0130YARBAKIR \u212Aelvin \u01C4 \u01C5 \u1E9E \u03A3\u03AF\u03C3\u03C5\u03C6\u03BF\u03C2 \u0391\u03A3",
	// Inner punctuation stays; symbols are not punctuation.
	"mid-WORD_with.PUNCT!? $100 +1 <tag> a`b",
	"UPPER", "lowerUPPER.", ".Mixed.", "aB.c!", "éÉ", "É", "#", "##a##",
}

func checkTokens(t *testing.T, what, text string, got, want []string) {
	t.Helper()
	if !slices.Equal(got, want) {
		t.Fatalf("%s(%q):\n got %q\nwant %q", what, text, got, want)
	}
}

// TestScanMatchesReference holds both tokenizers, in every configuration
// the fuzz targets cover, to the pre-Scan implementations on hardTexts.
func TestScanMatchesReference(t *testing.T) {
	for _, text := range hardTexts {
		for _, w := range []WordTokenizer{{}, {KeepCase: true}} {
			checkTokens(t, "word", text, w.Tokenize(text), refWordTokenize(w, text))
		}
		for q := 1; q <= 6; q++ {
			for _, pad := range []bool{false, true} {
				g := QGramTokenizer{Q: q, Pad: pad}
				checkTokens(t, "qgram", text, g.Tokenize(text), refQGramTokenize(g, text))
			}
		}
	}
}

// TestScanReusesScratch scans a run of texts through one scratch buffer,
// as the record builder does: a token must not depend on what an earlier
// text left in the buffer, and a warmed-up buffer must not be reallocated.
func TestScanReusesScratch(t *testing.T) {
	for _, tok := range []Tokenizer{WordTokenizer{}, QGramTokenizer{Q: 3, Pad: true}} {
		var scratch []byte
		for round := 0; round < 2; round++ {
			for _, text := range hardTexts {
				var got []string
				scratch = tok.Scan(text, scratch, func(b []byte) { got = append(got, string(b)) })
				checkTokens(t, "scan", text, got, tok.Tokenize(text))
			}
		}
		yield := func([]byte) {}
		if n := testing.AllocsPerRun(10, func() {
			for _, text := range hardTexts {
				scratch = tok.Scan(text, scratch, yield)
			}
		}); n != 0 {
			t.Errorf("%T.Scan with a warm scratch: %v allocs per pass, want 0", tok, n)
		}
	}
}

// FuzzWordTokenizer: arbitrary (possibly invalid UTF-8) input must never
// panic, never produce empty tokens, and tokenize exactly as the
// reference does, with and without case folding.
func FuzzWordTokenizer(f *testing.F) {
	for _, text := range hardTexts {
		f.Add(text)
	}
	f.Fuzz(func(t *testing.T, text string) {
		for _, w := range []WordTokenizer{{}, {KeepCase: true}} {
			got := w.Tokenize(text)
			for _, tok := range got {
				if tok == "" {
					t.Fatal("empty token")
				}
			}
			checkTokens(t, "word", text, got, refWordTokenize(w, text))
		}
	})
}

// FuzzQGramTokenizer: grams must have length <= Q runes and equal the
// reference's, padded or not, for texts shorter and longer than Q.
func FuzzQGramTokenizer(f *testing.F) {
	f.Add("abcdef", 3)
	f.Add("", 2)
	f.Add("é", 4)
	for i, text := range hardTexts {
		f.Add(text, i)
	}
	f.Fuzz(func(t *testing.T, text string, q int) {
		q = int(uint(q)%6) + 1 // 1..6, safe for all ints including MinInt
		for _, pad := range []bool{false, true} {
			g := QGramTokenizer{Q: q, Pad: pad}
			grams := g.Tokenize(text)
			for _, gram := range grams {
				if n := utf8.RuneCountInString(gram); n > q {
					t.Fatalf("gram %q has %d runes > q=%d", gram, n, q)
				}
			}
			checkTokens(t, "qgram", text, grams, refQGramTokenize(g, text))
		}
	})
}
