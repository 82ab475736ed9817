package wire

import (
	"bytes"
	"io"
	"testing"

	"repro/internal/record"
	"repro/internal/tokens"
)

// FuzzReaderNeverPanics feeds arbitrary bytes through the frame reader and
// every payload decoder: malformed input must produce errors, never panics
// or huge allocations.
func FuzzReaderNeverPanics(f *testing.F) {
	// Seed with valid frames of each type.
	var buf bytes.Buffer
	w := NewWriter(&buf)
	_ = w.WriteHello(Hello{Version: Version, Bounds: []int{1, 2}})
	_ = w.WriteRecord(true, &record.Record{ID: 9, Time: -3, Tokens: []tokens.Rank{1, 5, 9}})
	_ = w.WriteResult(Result{A: 1, B: 2, Sim: 0.5})
	_ = w.WriteStats(Stats{Probes: 1})
	_ = w.WriteEOF()
	f.Add(buf.Bytes())
	f.Add([]byte{TypeRecord, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F})
	f.Add([]byte{})
	// Flow-control frames: a two-field ack, a cursor-only ack (must fail to
	// decode) and a credit grant.
	f.Add([]byte{TypeResumeAck, 3, 0x80, 0x01, 0x10})
	f.Add([]byte{TypeResumeAck, 1, 0x2A})
	f.Add([]byte{TypeCredit, 2, 0x80, 0x20})

	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(bytes.NewReader(data))
		for i := 0; i < 64; i++ {
			typ, err := r.Next()
			if err != nil {
				return
			}
			switch typ {
			case TypeHello:
				_, _ = r.ReadHello()
			case TypeRecord:
				_, _ = r.ReadRecord()
			case TypeResult:
				_, _ = r.ReadResult()
			case TypeStats:
				_, _ = r.ReadStats()
			case TypeResumeAck:
				_, _, _ = r.ReadResumeAck()
			case TypeCredit:
				_, _ = r.ReadCredit()
			case TypeEOF:
				return
			default:
				return
			}
		}
	})
}

// FuzzRecordRoundTrip checks encode→decode identity for arbitrary token
// multisets.
func FuzzRecordRoundTrip(f *testing.F) {
	f.Add(uint64(1), int64(2), []byte{1, 2, 3, 4})
	f.Fuzz(func(t *testing.T, id uint64, tm int64, raw []byte) {
		set := make([]tokens.Rank, 0, len(raw)/2)
		for i := 0; i+1 < len(raw); i += 2 {
			set = append(set, tokens.Rank(raw[i])<<8|tokens.Rank(raw[i+1]))
		}
		set = tokens.Dedup(set)
		rec := &record.Record{ID: record.ID(id), Time: tm, Tokens: set}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		if err := w.WriteRecord(false, rec); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		r := NewReader(&buf)
		if _, err := r.Next(); err != nil {
			t.Fatal(err)
		}
		got, err := r.ReadRecord()
		if err != nil {
			t.Fatal(err)
		}
		if got.Rec.ID != rec.ID || got.Rec.Time != tm || len(got.Rec.Tokens) != len(set) {
			t.Fatalf("round trip mismatch: %+v vs %+v", got.Rec, rec)
		}
		for i := range set {
			if got.Rec.Tokens[i] != set[i] {
				t.Fatalf("token %d: %d vs %d", i, got.Rec.Tokens[i], set[i])
			}
		}
		// And the stream must end cleanly.
		if _, err := r.Next(); err != io.EOF {
			t.Fatalf("trailing garbage: %v", err)
		}
	})
}
