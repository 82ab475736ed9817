package tokens

import (
	"fmt"
	"strings"
	"unicode"
)

// The tokenizers as they were before Scan existed: split with the strings
// package, one string per token. The differential tests hold Scan to them
// token for token.

func refWordTokenize(w WordTokenizer, text string) []string {
	fields := strings.FieldsFunc(text, unicode.IsSpace)
	out := fields[:0]
	for _, f := range fields {
		f = strings.TrimFunc(f, unicode.IsPunct)
		if f == "" {
			continue
		}
		if !w.KeepCase {
			f = strings.ToLower(f)
		}
		out = append(out, f)
	}
	return out
}

func refQGramTokenize(q QGramTokenizer, text string) []string {
	if q.Q < 1 {
		panic(fmt.Sprintf("tokens: QGramTokenizer.Q must be >= 1, got %d", q.Q))
	}
	r := []rune(strings.ToLower(text))
	if q.Pad && q.Q > 1 {
		pad := make([]rune, q.Q-1)
		for i := range pad {
			pad[i] = '#'
		}
		r = append(append(append([]rune{}, pad...), r...), pad...)
	}
	if len(r) == 0 {
		return nil
	}
	if len(r) <= q.Q {
		return []string{string(r)}
	}
	out := make([]string, 0, len(r)-q.Q+1)
	for i := 0; i+q.Q <= len(r); i++ {
		out = append(out, string(r[i:i+q.Q]))
	}
	return out
}
