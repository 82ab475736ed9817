// Package record defines the record model shared by every stage of the
// streaming set-similarity join: a record is an identified, timestamped set
// of token ranks sorted by the global frequency ordering (rarest first).
package record

import (
	"fmt"
	"slices"

	"repro/internal/similarity"
	"repro/internal/tokens"
)

// ID identifies a record uniquely within a stream. IDs are assigned in
// arrival order by the ingestion layer, so comparing IDs compares arrival
// times.
type ID uint64

// Record is an immutable token set flowing through the join. Tokens holds
// deduplicated ranks in ascending global order; Seq is the arrival sequence
// number (== ID for generated streams); Time is an optional event timestamp
// in stream ticks used by time-based windows.
type Record struct {
	ID     ID
	Time   int64
	Tokens []tokens.Rank
}

// Len returns the set size.
func (r *Record) Len() int { return len(r.Tokens) }

// String renders a compact debugging form.
func (r *Record) String() string {
	return fmt.Sprintf("record{id=%d len=%d t=%d}", r.ID, len(r.Tokens), r.Time)
}

// Overlap returns the size of the intersection of the two records' token
// sets using a linear merge; both must be in ascending rank order.
func (r *Record) Overlap(s *Record) int {
	o, _ := similarity.IntersectSizeLinear(r.Tokens, s.Tokens)
	return o
}

// Builder converts raw text into Records in one pass per text: scan,
// intern, count document frequency, map to ranks, sort, and stamp with the
// next ID. A Builder owns its dictionary and ordering; it is not safe for
// concurrent use. Its scratch buffers are reused from text to text, so in
// steady state a record costs the one allocation of its rank slice.
type Builder struct {
	Dict     *tokens.Dictionary
	Order    *tokens.Ordering // nil while only counting (BuildOrderingFromSample)
	Tok      tokens.Tokenizer
	nextID   ID
	nextTime int64

	onToken func(tok []byte) // b.token, bound once so a scan allocates no closure
	text    []byte           // tokenizer scratch
	ranks   []tokens.Rank    // ranks of the current text's distinct tokens
	// seen[t] == epoch marks token t as already met in the current text.
	// It is indexed by token id, so it never outgrows the dictionary, and
	// is cleared only when epoch wraps around.
	seen  []uint32
	epoch uint32
}

// NewBuilder returns a Builder over an already-frozen ordering. Use
// BuildOrderingFromSample to produce dict and order from a text sample.
func NewBuilder(dict *tokens.Dictionary, order *tokens.Ordering, tok tokens.Tokenizer) *Builder {
	b := &Builder{Dict: dict, Order: order, Tok: tok}
	b.onToken = b.token
	return b
}

// BuildOrderingFromSample interns and counts every token of every sample
// text, then freezes a frequency ordering. It is the offline bootstrapping
// step: streams built afterwards map unseen tokens to post-frozen ranks.
func BuildOrderingFromSample(tok tokens.Tokenizer, sample []string) (*tokens.Dictionary, *tokens.Ordering) {
	b := NewBuilder(tokens.NewDictionary(), nil, tok)
	for _, text := range sample {
		b.scan(text)
	}
	return b.Dict, tokens.NewOrdering(b.Dict)
}

// SetCursor positions the builder's ID and time counters; the snapshot
// restore path uses it so a restored pipeline continues numbering where
// the original stopped.
func (b *Builder) SetCursor(nextID ID, nextTime int64) {
	b.nextID = nextID
	b.nextTime = nextTime
}

// scan runs text through the tokenizer and token. Afterwards the
// dictionary has counted each distinct token of text once and, when there
// is an ordering, b.ranks holds their ranks in order of first appearance.
func (b *Builder) scan(text string) {
	b.epoch++
	if b.epoch == 0 {
		clear(b.seen)
		b.epoch = 1
	}
	b.ranks = b.ranks[:0]
	b.text = b.Tok.Scan(text, b.text, b.onToken)
}

// token takes one scanned token: intern it and, the first time the current
// text shows it, count it and rank it.
func (b *Builder) token(tok []byte) {
	id := b.Dict.InternBytes(tok)
	for int(id) >= len(b.seen) {
		b.seen = append(b.seen, 0)
	}
	if b.seen[id] == b.epoch {
		return
	}
	b.seen[id] = b.epoch
	b.Dict.ObserveOne(id)
	if b.Order != nil {
		b.ranks = append(b.ranks, b.Order.RankOf(id))
	}
}

// FromText builds the next record from raw text, accruing document
// frequencies in the dictionary as it goes (the frozen ordering is
// unaffected until an explicit refresh rebuilds it from the accumulated
// counts). Empty token sets yield a record with zero length; callers
// typically drop those. The record owns its token slice and keeps no
// reference to text.
func (b *Builder) FromText(text string) Record {
	b.scan(text)
	// scan ranked each distinct token once (the epoch stamp), and ranks are
	// one per token id, so sorting alone leaves a set.
	slices.Sort(b.ranks)
	r := Record{ID: b.nextID, Time: b.nextTime, Tokens: make([]tokens.Rank, len(b.ranks))}
	copy(r.Tokens, b.ranks)
	b.nextID++
	b.nextTime++
	return r
}

// FromRanks builds the next record directly from precomputed ranks (used by
// synthetic workload generators). The slice is deduplicated and sorted in
// place and retained by the record.
func (b *Builder) FromRanks(ranks []tokens.Rank) Record {
	ranks = tokens.Dedup(ranks)
	r := Record{ID: b.nextID, Time: b.nextTime, Tokens: ranks}
	b.nextID++
	b.nextTime++
	return r
}

// Pair is an emitted join result: two record IDs with their similarity.
// First < Second always holds so pairs compare and deduplicate cheaply.
type Pair struct {
	First, Second ID
	Sim           float64
}

// NewPair normalizes the ID order.
func NewPair(a, b ID, sim float64) Pair {
	if a > b {
		a, b = b, a
	}
	return Pair{First: a, Second: b, Sim: sim}
}

// String implements fmt.Stringer.
func (p Pair) String() string {
	return fmt.Sprintf("(%d,%d:%.3f)", p.First, p.Second, p.Sim)
}
