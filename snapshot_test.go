package ssjoin

import (
	"bytes"
	"math/rand"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	cfg := Config{Threshold: 0.8, WindowRecords: 50}
	s, err := NewStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sets := randomSets(120, 40, 3)
	for _, set := range sets[:80] {
		s.Add(set)
	}

	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreStream(bytes.NewReader(buf.Bytes()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Size() != s.Size() {
		t.Fatalf("restored size %d, original %d", restored.Size(), s.Size())
	}

	// Both streams must behave identically from here.
	for _, set := range sets[80:] {
		idA, msA := s.Add(set)
		gotA := append([]Match(nil), msA...)
		idB, msB := restored.Add(set)
		if idA != idB {
			t.Fatalf("ID divergence: %d vs %d", idA, idB)
		}
		if len(gotA) != len(msB) {
			t.Fatalf("match divergence at %d: %v vs %v", idA, gotA, msB)
		}
		seen := make(map[uint64]bool)
		for _, m := range gotA {
			seen[m.ID] = true
		}
		for _, m := range msB {
			if !seen[m.ID] {
				t.Fatalf("restored stream matched %d, original did not", m.ID)
			}
		}
	}
}

func TestRestoreStreamRejectsBadInput(t *testing.T) {
	if _, err := RestoreStream(bytes.NewReader([]byte("junk")), Config{Threshold: 0.8}); err == nil {
		t.Fatal("junk accepted")
	}
	if _, err := RestoreStream(bytes.NewReader(nil), Config{}); err == nil {
		t.Fatal("bad config accepted")
	}
}

func TestTextStreamSnapshotRoundTrip(t *testing.T) {
	cfg := Config{Threshold: 0.7}
	sample := []string{
		"market rally continues strong",
		"weather turns cold tonight",
		"championship game ends in draw",
	}
	ts, err := NewTextStream(cfg, Words, sample)
	if err != nil {
		t.Fatal(err)
	}
	headlines := []string{
		"market rally continues strong today",
		"weather turns cold tonight everywhere",
		"new unseen vocabulary appears here",
	}
	for _, h := range headlines {
		ts.Add(h)
	}

	var buf bytes.Buffer
	if err := ts.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreTextStream(bytes.NewReader(buf.Bytes()), cfg, Words)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Size() != ts.Size() {
		t.Fatalf("size: %d vs %d", restored.Size(), ts.Size())
	}

	// Both must match new text identically — including text using the
	// "unseen vocabulary" that was interned after the ordering froze.
	probes := []string{
		"market rally continues strong today",
		"new unseen vocabulary appears here",
		"completely fresh words entirely",
	}
	for _, p := range probes {
		idA, msA := ts.Add(p)
		gotA := append([]Match(nil), msA...)
		idB, msB := restored.Add(p)
		if idA != idB || len(gotA) != len(msB) {
			t.Fatalf("divergence on %q: (%d,%v) vs (%d,%v)", p, idA, gotA, idB, msB)
		}
		for i := range gotA {
			if gotA[i] != msB[i] {
				t.Fatalf("match %d differs on %q: %+v vs %+v", i, p, gotA[i], msB[i])
			}
		}
	}
}

func TestRestoreTextStreamRejectsBadInput(t *testing.T) {
	if _, err := RestoreTextStream(bytes.NewReader([]byte("nope")), Config{Threshold: 0.8}, Words); err == nil {
		t.Fatal("garbage accepted")
	}
	ts, _ := NewTextStream(Config{Threshold: 0.8}, Words, nil)
	var buf bytes.Buffer
	if err := ts.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreTextStream(bytes.NewReader(buf.Bytes()), Config{Threshold: 0.8}, Tokenization(9)); err == nil {
		t.Fatal("bad tokenization accepted")
	}
}

// snapshotTexts is a deterministic stream for the text snapshot tests: a
// skewed vocabulary so texts match each other, a tail of words the
// bootstrap sample never saw so the ordering keeps assigning post-frozen
// ranks, and casing and punctuation for the tokenizer to undo.
func snapshotTexts(n int) []string {
	rng := rand.New(rand.NewSource(14))
	texts := make([]string, n)
	for i := range texts {
		var sb strings.Builder
		for k, words := 0, 3+rng.Intn(6); k < words; k++ {
			w := rng.Intn(12)
			if rng.Intn(4) == 0 {
				w = 12 + rng.Intn(40+i) // the vocabulary grows with the stream
			}
			word := "w" + strconv.Itoa(w)
			switch rng.Intn(5) {
			case 0:
				word = strings.ToUpper(word)
			case 1:
				word = "(" + word + "),"
			}
			sb.WriteString(word)
			sb.WriteByte(' ')
		}
		texts[i] = sb.String()
	}
	return texts
}

// continueBoth feeds texts to both streams and requires identical IDs and,
// per Add, identical match sets: the order of matches within one call is
// discovery order, which follows the posting table's bucket order and the
// bundles' member order, and a restored index rebuilt both from the live
// window alone. (For the same reason the two do not check the same number of
// candidates; Records, Stored and Results must agree at the end.)
func continueBoth(t *testing.T, a, b *TextStream, texts []string) {
	t.Helper()
	byID := func(ms []Match) {
		sort.Slice(ms, func(i, j int) bool { return ms[i].ID < ms[j].ID })
	}
	beforeA, beforeB := a.Stats(), b.Stats()
	for _, text := range texts {
		idA, msA := a.Add(text)
		gotA := slices.Clone(msA)
		idB, msB := b.Add(text)
		gotB := slices.Clone(msB)
		byID(gotA)
		byID(gotB)
		if idA != idB || !slices.Equal(gotA, gotB) {
			t.Fatalf("divergence on %q: (%d,%v) vs (%d,%v)", text, idA, gotA, idB, gotB)
		}
	}
	sa, sb := a.Stats(), b.Stats()
	if sa.Results == beforeA.Results {
		t.Fatal("the continuation matched nothing, so it compared nothing")
	}
	if sa.Records-beforeA.Records != sb.Records-beforeB.Records || sa.Stored != sb.Stored ||
		sa.Results-beforeA.Results != sb.Results-beforeB.Results {
		t.Fatalf("the continuation took (%+v → %+v) on one stream and (%+v → %+v) on the other", beforeA, sa, beforeB, sb)
	}
}

// TestTextStreamSnapshotMidStream: a stream restored from a snapshot taken
// mid-stream continues as the uninterrupted one — same IDs, same match set
// per Add, same result count — and snapshotting one state twice gives the
// same bytes.
func TestTextStreamSnapshotMidStream(t *testing.T) {
	cfg := Config{Threshold: 0.6, WindowRecords: 64}
	texts := snapshotTexts(600)
	for _, tok := range []Tokenization{Words, QGrams} {
		ts, err := NewTextStream(cfg, tok, texts[:50])
		if err != nil {
			t.Fatal(err)
		}
		for _, text := range texts[:300] {
			ts.Add(text)
		}
		var first, second bytes.Buffer
		if err := ts.WriteSnapshot(&first); err != nil {
			t.Fatal(err)
		}
		if err := ts.WriteSnapshot(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatal("two snapshots of one state differ")
		}
		restored, err := RestoreTextStream(bytes.NewReader(first.Bytes()), cfg, tok)
		if err != nil {
			t.Fatal(err)
		}
		continueBoth(t, ts, restored, texts[300:])
	}
}

// TestRestoreTextStreamFromPR13Snapshot restores a snapshot written by the
// commit before the dense post-frozen rank table (its extras are in map
// order) and continues beside a stream that ingested the same 300 texts
// under the current code: same IDs, same match set per Add, same result count.
func TestRestoreTextStreamFromPR13Snapshot(t *testing.T) {
	cfg := Config{Threshold: 0.6, WindowRecords: 64}
	texts := snapshotTexts(600)
	ts, err := NewTextStream(cfg, Words, texts[:50])
	if err != nil {
		t.Fatal(err)
	}
	for _, text := range texts[:300] {
		ts.Add(text)
	}
	snap, err := os.ReadFile("testdata/textstream_pr13.snap")
	if err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreTextStream(bytes.NewReader(snap), cfg, Words)
	if err != nil {
		t.Fatal(err)
	}
	continueBoth(t, ts, restored, texts[300:])
}
