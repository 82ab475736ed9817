package record_test

import (
	"bytes"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/record"
	"repro/internal/tokens"
	"repro/internal/workload"
)

// refBuilder is Builder as it was before the one-pass FromText: a string
// per token, a map per record to dedup, a separate frequency walk. The
// differential test holds the builder to it record for record.
type refBuilder struct {
	dict     *tokens.Dictionary
	order    *tokens.Ordering
	tok      tokens.Tokenizer
	nextID   record.ID
	nextTime int64
}

func refBuildOrderingFromSample(tok tokens.Tokenizer, sample []string) (*tokens.Dictionary, *tokens.Ordering) {
	dict := tokens.NewDictionary()
	for _, text := range sample {
		seen := make(map[tokens.Token]struct{})
		var set []tokens.Token
		for _, w := range tok.Tokenize(text) {
			id := dict.Intern(w)
			if _, dup := seen[id]; dup {
				continue
			}
			seen[id] = struct{}{}
			set = append(set, id)
		}
		dict.Observe(set)
	}
	return dict, tokens.NewOrdering(dict)
}

func (b *refBuilder) fromText(text string) record.Record {
	words := b.tok.Tokenize(text)
	ids := make([]tokens.Token, 0, len(words))
	seen := make(map[tokens.Token]struct{}, len(words))
	for _, w := range words {
		id := b.dict.Intern(w)
		if _, dup := seen[id]; dup {
			continue
		}
		seen[id] = struct{}{}
		ids = append(ids, id)
	}
	b.dict.Observe(ids)
	ranks := make([]tokens.Rank, 0, len(ids))
	for _, id := range ids {
		ranks = append(ranks, b.order.RankOf(id))
	}
	ranks = tokens.Dedup(ranks)
	r := record.Record{ID: b.nextID, Time: b.nextTime, Tokens: ranks}
	b.nextID++
	b.nextTime++
	return r
}

// tweetTexts renders n TweetLike records the way the repo benchmark's
// tweet_text_local workload does: one lower-case word per rank.
func tweetTexts(n int) []string {
	texts := make([]string, n)
	var sb strings.Builder
	for i, r := range workload.NewGenerator(workload.TweetLike(42)).Generate(n) {
		sb.Reset()
		for k, t := range r.Tokens {
			if k > 0 {
				sb.WriteByte(' ')
			}
			sb.WriteByte('w')
			sb.WriteString(strconv.FormatUint(uint64(t), 36))
		}
		texts[i] = sb.String()
	}
	return texts
}

// unicodeTexts exercise what rendered ranks never do: case folding,
// punctuation, repeated words, multi-byte and invalid input, empty sets.
var unicodeTexts = []string{
	"The quick brown fox — the QUICK brown fox!",
	"\u0130stanbul'da \u212Aelvin; istanbul'da kelvin",
	"«Größe» “GRÖSSE” größe, ΣΊΣΥΦΟΣ σίσυφος",
	"caf\xE9 CAF\xE9 na\xC3 \xFF\xFE",
	"日本語 テキスト 日本語\u3000テキスト\u2028x\u0085y\u00A0z",
	"", "...", " \t ", "a", "A a A a",
	"w1 w2 w3 W1 w2. (w3)",
}

// TestFromTextMatchesReference: the one-pass builder and the reference,
// each bootstrapped from the same sample, must produce equal records and
// leave byte-equal dictionaries (words, ids, document frequencies) and
// orderings (frozen and post-frozen ranks).
func TestFromTextMatchesReference(t *testing.T) {
	n := 20_000
	if testing.Short() {
		n = 4_000
	}
	texts := tweetTexts(n)
	for i := 0; i < len(texts); i += 50 { // spread the hand corpus through the stream
		texts[i] = unicodeTexts[(i/50)%len(unicodeTexts)]
	}
	sample := texts[:1_000]

	toks := map[string]tokens.Tokenizer{
		"words":  tokens.WordTokenizer{},
		"qgrams": tokens.QGramTokenizer{Q: 3, Pad: true},
	}
	for name, tok := range toks {
		t.Run(name, func(t *testing.T) {
			rd, ro := refBuildOrderingFromSample(tok, sample)
			ref := &refBuilder{dict: rd, order: ro, tok: tok}
			dict, order := record.BuildOrderingFromSample(tok, sample)
			b := record.NewBuilder(dict, order, tok)
			equalState(t, "after the sample", dict, order, rd, ro)

			for i, text := range texts {
				got, want := b.FromText(text), ref.fromText(text)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("text %d %q:\n got %v %v\nwant %v %v", i, text, &got, got.Tokens, &want, want.Tokens)
				}
			}
			equalState(t, "after the stream", dict, order, rd, ro)
		})
	}
}

// equalState compares serialized forms. Ordering.Save writes post-frozen
// ranks in ascending token order, so equal states give equal bytes.
func equalState(t *testing.T, when string, d *tokens.Dictionary, o *tokens.Ordering, rd *tokens.Dictionary, ro *tokens.Ordering) {
	t.Helper()
	var got, want bytes.Buffer
	if err := d.Save(&got); err != nil {
		t.Fatal(err)
	}
	if err := rd.Save(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("%s: dictionaries differ (%d vs %d tokens)", when, d.Size(), rd.Size())
	}
	got.Reset()
	want.Reset()
	if err := o.Save(&got); err != nil {
		t.Fatal(err)
	}
	if err := ro.Save(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("%s: orderings differ (%d vs %d ranks)", when, o.Universe(), ro.Universe())
	}
}

// warmBuilder returns a builder whose dictionary already holds every word
// of texts, so the benchmarks measure the steady state: no new word, no
// scratch growth.
func warmBuilder(tok tokens.Tokenizer, texts []string) *record.Builder {
	dict, order := record.BuildOrderingFromSample(tok, texts[:1_000])
	b := record.NewBuilder(dict, order, tok)
	for _, text := range texts {
		b.FromText(text)
	}
	return b
}

var sinkRecord record.Record

// BenchmarkFromText is the CI allocation gate for the ingest path: with
// every word known, a record costs exactly one allocation — the rank
// slice it owns. The dictionary of 20 000 texts mostly stays in cache;
// words-400k runs the whole benchmark stream, whose 186 686 words do not.
func BenchmarkFromText(b *testing.B) {
	small, full := tweetTexts(20_000), tweetTexts(400_000)
	for _, c := range []struct {
		name  string
		tok   tokens.Tokenizer
		texts []string
	}{
		{"words", tokens.WordTokenizer{}, small},
		{"qgrams", tokens.QGramTokenizer{Q: 3, Pad: true}, small},
		{"words-400k", tokens.WordTokenizer{}, full},
	} {
		b.Run(c.name, func(b *testing.B) {
			builder := warmBuilder(c.tok, c.texts)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkRecord = builder.FromText(c.texts[i%len(c.texts)])
			}
		})
	}
}

var sinkToken tokens.Token

// BenchmarkInternKnown times Dictionary.InternBytes alone on words it
// already holds, in the order the stream meets them: at 20k texts the
// dictionary mostly stays in cache, at 400k (186 686 words) a lookup
// mostly misses it. A known word must cost no allocation.
func BenchmarkInternKnown(b *testing.B) {
	for _, n := range []int{20_000, 400_000} {
		b.Run(strconv.Itoa(n/1000)+"k", func(b *testing.B) {
			dict := tokens.NewDictionary()
			var stream []byte // every token of every text, back to back
			var ends []int    // token k ends at ends[k]
			for _, text := range tweetTexts(n) {
				tokens.WordTokenizer{}.Scan(text, nil, func(tok []byte) {
					dict.InternBytes(tok)
					stream = append(stream, tok...)
					ends = append(ends, len(stream))
				})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i, k := 0, 0; i < b.N; i, k = i+1, k+1 {
				if k == len(ends) {
					k = 0
				}
				start := 0
				if k > 0 {
					start = ends[k-1]
				}
				sinkToken = dict.InternBytes(stream[start:ends[k]])
			}
		})
	}
}

var sinkOrdering *tokens.Ordering

// BenchmarkBuildOrderingFromSample bootstraps an ordering from the 10 000
// texts the benchmark's text workload samples.
func BenchmarkBuildOrderingFromSample(b *testing.B) {
	sample := tweetTexts(10_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, sinkOrdering = record.BuildOrderingFromSample(tokens.WordTokenizer{}, sample)
	}
}
