package wire

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/record"
	"repro/internal/tokens"
)

// TestTracedRecordRoundTrip covers the wire trace annotation: trace id
// and parent span index survive the trip, and untraced records decode
// with both zeroed.
func TestTracedRecordRoundTrip(t *testing.T) {
	rec := &record.Record{ID: 42, Time: 9, Tokens: []tokens.Rank{1, 2, 300}}
	r := roundTripFrames(t, func(w *Writer) error {
		return w.WriteRecordTraced(true, false, rec, 0xcafebabe12345678, 3)
	})
	if _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	got, err := r.ReadRecord()
	if err != nil {
		t.Fatal(err)
	}
	if got.TraceID != 0xcafebabe12345678 || got.ParentSpan != 3 {
		t.Fatalf("trace annotation lost: id=%#x parent=%d", got.TraceID, got.ParentSpan)
	}
	if !got.Store || got.Right {
		t.Fatalf("flags corrupted by trace bit: %+v", got)
	}
	if got.Rec.ID != rec.ID || len(got.Rec.Tokens) != len(rec.Tokens) {
		t.Fatalf("payload corrupted: %+v", got)
	}
}

// TestUntracedEncodingUnchanged pins the zero-cost-off property at the
// byte level: WriteRecordTraced with a zero trace id must produce the
// exact bytes WriteRecordSide always produced.
func TestUntracedEncodingUnchanged(t *testing.T) {
	rec := &record.Record{ID: 7, Time: 1, Tokens: []tokens.Rank{4, 8, 15, 16, 23, 42}}
	var plain, traced bytes.Buffer
	wp, wt := NewWriter(&plain), NewWriter(&traced)
	if err := wp.WriteRecordSide(true, true, rec); err != nil {
		t.Fatal(err)
	}
	if err := wt.WriteRecordTraced(true, true, rec, 0, 5); err != nil {
		t.Fatal(err)
	}
	if err := wp.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := wt.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain.Bytes(), traced.Bytes()) {
		t.Fatalf("zero trace id changed the encoding:\n%x\n%x", plain.Bytes(), traced.Bytes())
	}
	r := NewReader(&plain)
	if _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	got, err := r.ReadRecord()
	if err != nil {
		t.Fatal(err)
	}
	if got.TraceID != 0 || got.ParentSpan != 0 {
		t.Fatalf("untraced record decoded trace fields: %+v", got)
	}
}

// TestTracedRecordRoundTripProperty fuzzes the annotation across ids and
// parent spans (including -1, the "attach at wire parent" sentinel).
func TestTracedRecordRoundTripProperty(t *testing.T) {
	f := func(id uint64, traceID uint64, parent int16, raw []uint32, store, right bool) bool {
		toks := tokens.Dedup(append([]tokens.Rank{}, raw...))
		rec := &record.Record{ID: record.ID(id), Tokens: toks}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		if err := w.WriteRecordTraced(store, right, rec, traceID, int(parent)); err != nil {
			return false
		}
		if err := w.Flush(); err != nil {
			return false
		}
		r := NewReader(&buf)
		if _, err := r.Next(); err != nil {
			return false
		}
		got, err := r.ReadRecord()
		if err != nil {
			return false
		}
		if got.Store != store || got.Right != right || got.Rec.ID != rec.ID {
			return false
		}
		if traceID == 0 {
			return got.TraceID == 0 && got.ParentSpan == 0
		}
		return got.TraceID == traceID && got.ParentSpan == int(parent)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
