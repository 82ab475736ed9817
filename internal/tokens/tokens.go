// Package tokens provides the token universe for set-similarity joins: a
// string-interning dictionary, tokenizers that split raw text into token
// multisets, and a global frequency ordering that maps tokens to ranks so
// that ascending rank means ascending document frequency. Prefix filtering
// depends on that ordering: rare tokens sort first, so short prefixes carry
// maximal pruning power.
package tokens

import (
	"fmt"
	"slices"
	"sort"
	"unicode"
	"unicode/utf8"
	"unsafe"
)

// Token is an interned token identifier. Identifiers are dense and start at
// zero, so they index directly into Dictionary side tables.
type Token uint32

// Rank is a position in a global frequency ordering. Lower rank means lower
// document frequency (rarer token). Records are stored as ascending rank
// sequences; see Ordering.
type Rank = uint32

// Ordering maps tokens to ranks such that ascending rank means ascending
// document frequency at the time the ordering was built. Tokens interned
// after the ordering was built ("unseen" tokens) are assigned ranks above
// every frozen token but in a stable first-come order; they are rare by
// definition, and placing them after the frozen range keeps frozen ranks
// immutable, which streaming indexes require.
type Ordering struct {
	dict   *Dictionary
	rank   []Rank // indexed by Token; valid for tokens frozen at build time
	frozen int    // number of tokens covered by rank
	// extra holds post-frozen ranks, indexed by Token - frozen; unassigned
	// marks a token RankOf has not met. Token ids are dense, so it never
	// outgrows the dictionary.
	extra []Rank
	next  Rank
}

// unassigned marks an extra slot without a rank. No real rank reaches it:
// ranks are dense from zero and there are fewer than 2^32 - 1 tokens.
const unassigned = ^Rank(0)

// NewOrdering freezes the current frequency statistics of dict into a global
// ordering. Ties are broken by token id so the ordering is deterministic.
func NewOrdering(dict *Dictionary) *Ordering {
	n := dict.Size()
	ids := make([]Token, n)
	for i := range ids {
		ids[i] = Token(i)
	}
	sort.Slice(ids, func(a, b int) bool {
		fa, fb := dict.freq[ids[a]], dict.freq[ids[b]]
		if fa != fb {
			return fa < fb
		}
		return ids[a] < ids[b]
	})
	rank := make([]Rank, n)
	for r, id := range ids {
		rank[id] = Rank(r)
	}
	return &Ordering{
		dict:   dict,
		rank:   rank,
		frozen: n,
		next:   Rank(n),
	}
}

// RankOf returns the global rank of id, assigning a fresh post-frozen rank
// to tokens unseen at build time. It panics if id is not in the dictionary
// the ordering was built over, which indicates a programming error.
func (o *Ordering) RankOf(id Token) Rank {
	if int(id) < o.frozen {
		return o.rank[id]
	}
	if int(id) >= o.dict.Size() {
		panic(fmt.Sprintf("tokens: RankOf(%d) beyond the dictionary's %d tokens", id, o.dict.Size()))
	}
	r := o.slot(id)
	if *r == unassigned {
		*r = o.next
		o.next++
	}
	return *r
}

// slot returns post-frozen token id's place in extra, growing the table to
// reach it.
func (o *Ordering) slot(id Token) *Rank {
	k := int(id) - o.frozen
	for len(o.extra) <= k {
		o.extra = append(o.extra, unassigned)
	}
	return &o.extra[k]
}

// Universe reports the number of ranks assigned so far.
func (o *Ordering) Universe() int { return int(o.next) }

// DumpRanks visits every (token, rank) assignment made so far — the frozen
// table, then post-frozen extras — in ascending token order.
// Ordering-refresh uses it to build the inverse mapping when re-encoding
// stored records.
func (o *Ordering) DumpRanks(visit func(Token, Rank)) {
	for id := 0; id < o.frozen; id++ {
		visit(Token(id), o.rank[id])
	}
	for k, r := range o.extra {
		if r != unassigned {
			visit(Token(o.frozen+k), r)
		}
	}
}

// Tokenizer splits raw text into tokens. Implementations must be
// deterministic; dedup happens downstream.
type Tokenizer interface {
	// Scan calls yield once per token of text, in order. tok is valid only
	// until yield returns and must not be modified: it is either a view of
	// text itself or of scratch, which Scan is free to overwrite and grow.
	// Scan returns scratch, possibly grown, for the caller's next call, so
	// a steady stream of texts is scanned without allocating.
	Scan(text string, scratch []byte, yield func(tok []byte)) []byte
	// Tokenize returns the tokens Scan yields as freshly allocated strings.
	Tokenize(text string) []string
}

// collect implements Tokenize over any Scan.
func collect(t Tokenizer, text string) []string {
	var out []string
	t.Scan(text, nil, func(tok []byte) { out = append(out, string(tok)) })
	return out
}

// bytesOf returns a read-only view of s's bytes; writing through it is
// undefined behaviour. It lets a scanner yield an untouched stretch of
// its input without copying it.
func bytesOf(s string) []byte {
	return unsafe.Slice(unsafe.StringData(s), len(s))
}

// Per-rune classes the word scanner decides on. For ASCII they come from a
// table — one load instead of three unicode range searches per byte.
const (
	classSpace = 1 << iota // unicode.IsSpace
	classPunct             // unicode.IsPunct
	classFold              // lower-casing rewrites it
)

// asciiClass and asciiLower are filled from runeClass, which classifies
// every other rune, so the two paths agree by construction.
var asciiClass, asciiLower = func() (class, lower [utf8.RuneSelf]byte) {
	for c := range class {
		cl, lo := runeClass(rune(c), 1)
		class[c], lower[c] = cl, byte(lo)
	}
	return class, lower
}()

// runeClass classifies a rune as utf8.DecodeRuneInString returned it and
// lower-cases it. An invalid byte (RuneError of size 1) is rewritten too:
// it becomes an encoded U+FFFD, as strings.ToLower has it.
func runeClass(r rune, size int) (class byte, lower rune) {
	switch {
	case unicode.IsSpace(r):
		class = classSpace
	case unicode.IsPunct(r):
		class = classPunct
	}
	lower = unicode.ToLower(r)
	if lower != r || (r == utf8.RuneError && size == 1) {
		class |= classFold
	}
	return class, lower
}

// WordTokenizer splits on Unicode whitespace, lowercases, and strips leading
// and trailing punctuation from each word. The zero value is ready to use.
type WordTokenizer struct {
	// KeepCase disables lowercasing when true.
	KeepCase bool
}

// Tokenize implements Tokenizer.
func (w WordTokenizer) Tokenize(text string) []string { return collect(w, text) }

// Scan implements Tokenizer: split, trim and lower-case in one left-to-right
// pass. A word that needs no rewriting is yielded as a view of text; scratch
// is written only from the first rune of a word that lower-casing changes.
func (w WordTokenizer) Scan(text string, scratch []byte, yield func(tok []byte)) []byte {
	src := bytesOf(text)
	fold := !w.KeepCase
	// A plain byte is ASCII, not space, not punctuation and not rewritten
	// by lower-casing: a word's run of them needs no per-rune bookkeeping.
	notPlain := byte(classSpace | classPunct)
	if fold {
		notPlain |= classFold
	}
	i := 0
	for i < len(text) {
		// Between words: spaces separate fields and punctuation before a
		// word's first other rune is trimmed, so both are skipped.
		class, size := byte(0), 1
		if c := text[i]; c < utf8.RuneSelf {
			class = asciiClass[c]
		} else {
			var r rune
			r, size = utf8.DecodeRuneInString(text[i:])
			class, _ = runeClass(r, size)
		}
		if class&(classSpace|classPunct) != 0 {
			i += size
			continue
		}

		// A word runs to the next space and ends after its last rune that
		// is not punctuation: at end in text, at out in the rewritten copy.
		start, end, out := i, i, 0
		rewritten := false
		scratch = scratch[:0]
		for i < len(text) {
			// Until a rewrite, a run of plain bytes only moves the end.
			if !rewritten {
				j := i
				for j < len(text) && text[j] < utf8.RuneSelf && asciiClass[text[j]]&notPlain == 0 {
					j++
				}
				if j > i {
					i, end = j, j
					continue
				}
			}
			class, lower, size := byte(0), rune(0), 1
			if c := text[i]; c < utf8.RuneSelf {
				class, lower = asciiClass[c], rune(asciiLower[c])
			} else {
				var r rune
				r, size = utf8.DecodeRuneInString(text[i:])
				class, lower = runeClass(r, size)
			}
			if class&classSpace != 0 {
				break
			}
			if fold && class&classFold != 0 {
				if !rewritten {
					rewritten = true
					scratch = append(scratch, text[start:i]...)
					out = end - start
				}
				scratch = utf8.AppendRune(scratch, lower)
			} else if rewritten {
				scratch = append(scratch, text[i:i+size]...)
			}
			i += size
			if class&classPunct == 0 {
				end, out = i, len(scratch)
			}
		}
		if rewritten {
			yield(scratch[:out])
		} else {
			yield(src[start:end])
		}
	}
	return scratch
}

// QGramTokenizer produces overlapping character q-grams; it is the usual
// choice for short dirty strings in data-cleaning workloads. Q must be at
// least 1. Strings shorter than Q yield a single gram (the whole string).
type QGramTokenizer struct {
	Q int
	// Pad, when true, pads the string with Q-1 leading and trailing '#'
	// sentinels so edge characters appear in Q grams.
	Pad bool
}

// Tokenize implements Tokenizer.
func (q QGramTokenizer) Tokenize(text string) []string { return collect(q, text) }

// Scan implements Tokenizer: the lower-cased, padded text is written to
// scratch once and every gram is a view of it.
func (q QGramTokenizer) Scan(text string, scratch []byte, yield func(tok []byte)) []byte {
	if q.Q < 1 {
		panic(fmt.Sprintf("tokens: QGramTokenizer.Q must be >= 1, got %d", q.Q))
	}
	return q.scan(text, scratch, yield)
}

// scan is Scan after the check on Q.
func (q QGramTokenizer) scan(text string, scratch []byte, yield func(tok []byte)) []byte {
	pad := 0
	if q.Pad {
		pad = q.Q - 1
	}
	buf := scratch[:0]
	for k := 0; k < pad; k++ {
		buf = append(buf, '#')
	}
	runes := 2 * pad
	for i := 0; i < len(text); runes++ {
		if c := text[i]; c < utf8.RuneSelf {
			buf = append(buf, asciiLower[c])
			i++
			continue
		}
		// An invalid byte decodes to U+FFFD and is written as one.
		r, size := utf8.DecodeRuneInString(text[i:])
		buf = utf8.AppendRune(buf, unicode.ToLower(r))
		i += size
	}
	for k := 0; k < pad; k++ {
		buf = append(buf, '#')
	}
	if runes == 0 {
		return buf
	}
	if runes <= q.Q {
		yield(buf)
		return buf
	}
	// buf is valid UTF-8, so a window of Q runes slides by reading rune
	// widths off lead bytes: no rune slice, no offset table.
	lo, hi := 0, 0
	for k := 0; k < q.Q; k++ {
		hi += runeWidth(buf[hi])
	}
	yield(buf[lo:hi])
	for hi < len(buf) {
		lo += runeWidth(buf[lo])
		hi += runeWidth(buf[hi])
		yield(buf[lo:hi])
	}
	return buf
}

// runeWidth is the encoded length of the rune that lead, a lead byte of
// valid UTF-8, starts.
func runeWidth(lead byte) int {
	switch {
	case lead < 0x80:
		return 1
	case lead < 0xE0:
		return 2
	case lead < 0xF0:
		return 3
	}
	return 4
}

// Dedup sorts ranks ascending and removes duplicates in place, returning the
// shortened slice. Records are sets, so every pipeline stage calls this once
// at ingestion.
func Dedup(ranks []Rank) []Rank {
	if len(ranks) < 2 {
		return ranks
	}
	slices.Sort(ranks)
	w := 1
	for i := 1; i < len(ranks); i++ {
		if ranks[i] != ranks[i-1] {
			ranks[w] = ranks[i]
			w++
		}
	}
	return ranks[:w]
}

// SplitMix64 is the splitmix64 mixer: a cheap, well-distributed hash of x,
// and a PRNG over a counter. Routing hashes tokens and IDs with it, the
// min-hash family its rows, fault injection its per-frame decisions and
// the retry policy its jitter, so a fixed seed reproduces each of them.
func SplitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
