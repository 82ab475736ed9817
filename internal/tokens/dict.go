package tokens

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"
	"unsafe"
)

// Dictionary interns token strings and tracks per-token document frequency.
// The zero value is not usable; call NewDictionary. Dictionary is not safe
// for concurrent mutation; wrap it or shard it upstream if needed.
//
// Words live back to back in an append-only arena, in id order, and are
// found through an open-addressed, linearly probed table of 16-byte slots.
// A slot keeps its word's first 8 bytes, so a known word of up to 8 bytes
// is found with one slot load and no pointer chase; a longer word compares
// the rest in the arena.
type Dictionary struct {
	// slots has a power-of-two length and is at most ¾ full, so every
	// probe sequence ends at an empty slot.
	slots []slot
	// seed keys the hash per dictionary: texts cannot be chosen offline to
	// collide in it.
	seed uint64
	// arena holds the word bytes; word id ends at ends[id] and starts where
	// id-1 ends. Bytes once written are never rewritten, so Word hands out
	// views of the arena.
	arena []byte
	ends  []uint32
	freq  []uint64
}

// slot is one table entry, four to a cache line.
type slot struct {
	head uint64 // the word's first 8 bytes, little-endian, zero-padded
	n    uint32 // the word's length in bytes
	id1  uint32 // the word's Token + 1; 0 marks an empty slot
}

// NewDictionary returns an empty dictionary.
func NewDictionary() *Dictionary {
	return &Dictionary{slots: make([]slot, 16), seed: rand.Uint64()}
}

// Intern returns the Token for word, creating it with zero frequency when
// unseen. The dictionary stores a private copy in its arena: a new word
// never keeps the caller's string (often a view into a whole input line)
// alive.
func (d *Dictionary) Intern(word string) Token {
	return d.InternBytes(bytesOf(word))
}

// InternBytes is Intern for a token held in a byte slice the caller goes
// on to reuse. A known word costs one probe and no allocation; only a new
// word is copied.
func (d *Dictionary) InternBytes(word []byte) Token {
	head := head8(word)
	i, id1 := d.find(word, head)
	if id1 != 0 {
		return Token(id1 - 1)
	}
	return d.add(i, word, head)
}

// add appends word, found missing at empty slot i, as the next token, and
// doubles the table once it is more than ¾ full.
func (d *Dictionary) add(i uint64, word []byte, head uint64) Token {
	id := Token(len(d.ends))
	end := arenaEnd(len(d.arena), len(word))
	d.arena = append(d.arena, word...)
	d.ends = append(d.ends, end)
	d.freq = append(d.freq, 0)
	d.slots[i] = slot{head: head, n: uint32(len(word)), id1: uint32(id) + 1}
	if 4*len(d.ends) > 3*len(d.slots) {
		d.rehash(2 * len(d.slots))
	}
	return id
}

// arenaEnd returns where a word of n bytes appended to an arena of have
// bytes ends. Offsets are 32 bits, so the arena is capped at 4 GiB of word
// bytes; past that it panics rather than wrap. The cap also bounds the
// token count: fewer than 2^32 - 1 distinct words fit in 4 GiB, so a
// slot's id+1 never wraps either.
func arenaEnd(have, n int) uint32 {
	end := uint64(have) + uint64(n)
	if end > math.MaxUint32 {
		panic(fmt.Sprintf("tokens: dictionary arena would reach %d bytes, past its 4 GiB bound", end))
	}
	return uint32(end)
}

// rehash rebuilds the table at size slots from the arena, in id order;
// ids do not move.
func (d *Dictionary) rehash(size int) {
	d.slots = make([]slot, size)
	mask := uint64(size - 1)
	start := uint32(0)
	for id, end := range d.ends {
		word := d.arena[start:end]
		start = end
		head := head8(word)
		i := d.hash(word, head) & mask
		for d.slots[i].id1 != 0 {
			i = (i + 1) & mask
		}
		d.slots[i] = slot{head: head, n: uint32(len(word)), id1: uint32(id) + 1}
	}
}

// find probes for word, whose head8 is head: it returns the slot index and
// id+1 of the word, or the index of the empty slot that ends its probe
// sequence and 0. A slot matches only on equal length and equal bytes, so
// words that pad to the same head ("a", "a\x00") stay distinct.
//
// hotpath: zero-alloc
func (d *Dictionary) find(word []byte, head uint64) (uint64, uint32) {
	mask := uint64(len(d.slots) - 1)
	for i := d.hash(word, head) & mask; ; i = (i + 1) & mask {
		s := &d.slots[i]
		if s.id1 == 0 {
			return i, 0
		}
		if s.head == head && int(s.n) == len(word) && (len(word) <= 8 || string(d.bytes(Token(s.id1-1))) == string(word)) {
			return i, s.id1
		}
	}
}

// Hash constants: odd 64-bit multipliers with well-spread bits.
const (
	mulLen  = 0xa0761d6478bd642f
	mulTail = 0xe7037ed1a0b428db
)

// hash mixes the dictionary's seed, word's head and length and, past 8
// bytes, every further 8-byte chunk: one 64×64→128-bit multiply each,
// folded. Its low bits index the table.
//
// hotpath: zero-alloc
func (d *Dictionary) hash(word []byte, head uint64) uint64 {
	h := mix(head^d.seed, uint64(len(word))^mulLen)
	for rest := word[min(len(word), 8):]; len(rest) > 0; rest = rest[min(len(rest), 8):] {
		h = mix(h^head8(rest), mulTail)
	}
	return h
}

// mix multiplies a by b and folds the 128-bit product.
//
// hotpath: zero-alloc
func mix(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return hi ^ lo
}

// head8 returns b's first 8 bytes as a little-endian uint64, zero-padded
// when b is shorter. A short b is read in at most three loads that may
// overlap, not byte by byte.
//
// hotpath: zero-alloc
func head8(b []byte) uint64 {
	switch n := len(b); {
	case n >= 8:
		_ = b[7]
		return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
			uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
	case n >= 4:
		t := b[n-4:]
		_ = t[3]
		lo := uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24
		hi := uint64(t[0]) | uint64(t[1])<<8 | uint64(t[2])<<16 | uint64(t[3])<<24
		return lo | hi<<(8*(n-4))
	case n > 0:
		return uint64(b[0]) | uint64(b[n/2])<<(8*(n/2)) | uint64(b[n-1])<<(8*(n-1))
	}
	return 0
}

// bytes returns word id as a view of the arena.
//
// hotpath: zero-alloc
func (d *Dictionary) bytes(id Token) []byte {
	start := uint32(0)
	if id > 0 {
		start = d.ends[id-1]
	}
	end := d.ends[id]
	return d.arena[start:end:end]
}

// Lookup returns the Token for word without creating it.
func (d *Dictionary) Lookup(word string) (Token, bool) {
	return d.LookupBytes(bytesOf(word))
}

// LookupBytes is Lookup for a token held in a byte slice; nothing is
// copied.
//
// hotpath: zero-alloc
func (d *Dictionary) LookupBytes(word []byte) (Token, bool) {
	if _, id1 := d.find(word, head8(word)); id1 != 0 {
		return Token(id1 - 1), true
	}
	return 0, false
}

// Word returns the string for id, a view of the dictionary's arena. It
// panics if id was never interned, which indicates a programming error
// (ids only come from this dictionary).
func (d *Dictionary) Word(id Token) string {
	w := d.bytes(id)
	if len(w) == 0 {
		return ""
	}
	return unsafe.String(&w[0], len(w))
}

// Size reports the number of distinct tokens interned so far.
func (d *Dictionary) Size() int { return len(d.ends) }

// Observe records one document-frequency observation for each distinct token
// in set. Call it once per record with the record's deduplicated tokens.
func (d *Dictionary) Observe(set []Token) {
	for _, t := range set {
		d.freq[t]++
	}
}

// ObserveOne records one document-frequency observation for id: Observe
// for callers that meet a record's distinct tokens one at a time.
func (d *Dictionary) ObserveOne(id Token) { d.freq[id]++ }

// Frequency returns the number of observations that included id.
func (d *Dictionary) Frequency(id Token) uint64 { return d.freq[id] }
