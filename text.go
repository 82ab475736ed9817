package ssjoin

import (
	"bufio"
	"bytes"
	"fmt"
	"io"

	"repro/internal/record"
	"repro/internal/tokens"
)

// Tokenization selects how TextStream splits text into tokens.
type Tokenization int

// Supported tokenizations: Words splits on whitespace with lowercasing and
// punctuation trimming; QGrams uses overlapping character 3-grams, the
// usual choice for short dirty strings.
const (
	Words Tokenization = iota
	QGrams
)

func (t Tokenization) tokenizer() (tokens.Tokenizer, error) {
	switch t {
	case Words:
		return tokens.WordTokenizer{}, nil
	case QGrams:
		return tokens.QGramTokenizer{Q: 3, Pad: true}, nil
	default:
		return nil, fmt.Errorf("ssjoin: unknown tokenization %d", int(t))
	}
}

// TextStream is a Stream over raw text: it tokenizes, interns tokens, and
// maintains the global rarest-first token ordering that prefix filtering
// requires. Bootstrap the ordering with a representative sample for best
// pruning; tokens first seen after the sample are treated as rare, which is
// safe.
type TextStream struct {
	stream  *Stream
	builder *record.Builder
}

// NewTextStream builds a TextStream whose token-frequency ordering is
// frozen from sample (which may be nil: all tokens then rank by first
// appearance, costing pruning power but never correctness).
func NewTextStream(cfg Config, tok Tokenization, sample []string) (*TextStream, error) {
	stream, err := NewStream(cfg)
	if err != nil {
		return nil, err
	}
	tkz, err := tok.tokenizer()
	if err != nil {
		return nil, err
	}
	dict, order := record.BuildOrderingFromSample(tkz, sample)
	return &TextStream{
		stream:  stream,
		builder: record.NewBuilder(dict, order, tkz),
	}, nil
}

// Add ingests one text record and returns its ID and matches. Texts that
// tokenize to the empty set get an ID but never match anything. The order of
// matches within one call is unspecified; sort by ID if you need one.
func (t *TextStream) Add(text string) (id uint64, matches []Match) {
	r := t.builder.FromText(text)
	return t.stream.addRecord(&r)
}

// WriteSnapshot persists the tokenizer state (dictionary and frozen
// ordering) together with the stream's window state, so RestoreTextStream
// reproduces identical tokenization and matching.
func (t *TextStream) WriteSnapshot(w io.Writer) error {
	if _, err := w.Write(textMagic); err != nil {
		return err
	}
	if err := t.builder.Dict.Save(w); err != nil {
		return fmt.Errorf("ssjoin: saving dictionary: %w", err)
	}
	if err := t.builder.Order.Save(w); err != nil {
		return fmt.Errorf("ssjoin: saving ordering: %w", err)
	}
	return t.stream.WriteSnapshot(w)
}

var textMagic = []byte("SSJTXT\x01")

// RestoreTextStream reconstructs a TextStream from a snapshot written by
// WriteSnapshot. cfg and tok must match the snapshotting stream's.
func RestoreTextStream(r io.Reader, cfg Config, tok Tokenization) (*TextStream, error) {
	br := bufio.NewReader(r)
	got := make([]byte, len(textMagic))
	if _, err := io.ReadFull(br, got); err != nil {
		return nil, fmt.Errorf("ssjoin: reading text snapshot magic: %w", err)
	}
	if !bytes.Equal(got, textMagic) {
		return nil, fmt.Errorf("ssjoin: not a text-stream snapshot")
	}
	dict, err := tokens.LoadDictionary(br)
	if err != nil {
		return nil, err
	}
	order, err := tokens.LoadOrdering(br, dict)
	if err != nil {
		return nil, err
	}
	stream, err := RestoreStream(br, cfg)
	if err != nil {
		return nil, err
	}
	tkz, err := tok.tokenizer()
	if err != nil {
		return nil, err
	}
	builder := record.NewBuilder(dict, order, tkz)
	builder.SetCursor(stream.nextID, stream.tick)
	return &TextStream{stream: stream, builder: builder}, nil
}

// Size reports the number of records currently stored.
func (t *TextStream) Size() int { return t.stream.Size() }

// Stats reports accumulated work counters.
func (t *TextStream) Stats() Stats { return t.stream.Stats() }

// RefreshOrdering rebuilds the global token ordering from the document
// frequencies accumulated while streaming, then re-encodes every stored
// record under the new ranks and rebuilds the index.
//
// Why: the ordering is frozen from the bootstrap sample, so tokens that
// became frequent later keep "rare" ranks, sit in record prefixes, and
// drag enormous posting lists into every probe. Refreshing restores the
// rare-first invariant that makes prefix filtering effective. The
// operation is O(window size); run it when the stream's vocabulary has
// drifted (e.g. on a candidate-rate alarm or a timer).
//
// Record IDs, times and window contents are preserved exactly, so match
// semantics are unchanged — only the pruning power improves.
func (t *TextStream) RefreshOrdering() {
	oldOrder := t.builder.Order
	// Inverse of the old ordering: rank → token.
	inv := make(map[uint32]tokens.Token)
	oldOrder.DumpRanks(func(id tokens.Token, r uint32) { inv[r] = id })

	newOrder := tokens.NewOrdering(t.builder.Dict)

	// Re-encode the live window under the new ranks.
	type stored struct {
		id   record.ID
		time int64
		set  []tokens.Rank
	}
	var windowRecs []stored
	t.stream.joiner.Dump(func(r *record.Record) bool {
		set := make([]tokens.Rank, 0, len(r.Tokens))
		for _, rank := range r.Tokens {
			id, ok := inv[rank]
			if !ok {
				// A rank with no token cannot occur: every stored rank was
				// produced by the old ordering. Keep it verbatim if it ever
				// does (future-proofing), costing only pruning power.
				set = append(set, rank)
				continue
			}
			set = append(set, newOrder.RankOf(id))
		}
		windowRecs = append(windowRecs, stored{id: r.ID, time: r.Time, set: tokens.Dedup(set)})
		return true
	})

	fresh := t.stream.freshJoiner()
	for _, sr := range windowRecs {
		fresh.Load(&record.Record{ID: sr.id, Time: sr.time, Tokens: sr.set})
	}
	t.stream.joiner = fresh
	t.builder.Order = newOrder
}

// TextBiStream is a BiStream over raw text: two sources share one
// dictionary and ordering, and records match only across sources — the
// text-level data-integration entry point.
type TextBiStream struct {
	bi      *BiStream
	builder *record.Builder
}

// NewTextBiStream builds a TextBiStream; see NewTextStream for the sample
// semantics.
func NewTextBiStream(cfg Config, tok Tokenization, sample []string) (*TextBiStream, error) {
	bi, err := NewBiStream(cfg)
	if err != nil {
		return nil, err
	}
	tkz, err := tok.tokenizer()
	if err != nil {
		return nil, err
	}
	dict, order := record.BuildOrderingFromSample(tkz, sample)
	return &TextBiStream{
		bi:      bi,
		builder: record.NewBuilder(dict, order, tkz),
	}, nil
}

// AddLeft ingests one left-source text record and returns its matches
// among stored right-source records.
func (t *TextBiStream) AddLeft(text string) (id uint64, matches []Match) {
	r := t.builder.FromText(text)
	return t.bi.addRecord(&r, true)
}

// AddRight ingests one right-source text record symmetrically.
func (t *TextBiStream) AddRight(text string) (id uint64, matches []Match) {
	r := t.builder.FromText(text)
	return t.bi.addRecord(&r, false)
}

// SizeLeft and SizeRight report stored records per source.
func (t *TextBiStream) SizeLeft() int { return t.bi.SizeLeft() }

// SizeRight reports the stored right-source record count.
func (t *TextBiStream) SizeRight() int { return t.bi.SizeRight() }
