package wire

import (
	"bytes"
	"testing"

	"repro/internal/record"
	"repro/internal/tokens"
)

// TestUntracedEncodingUnchanged pins a Record frame byte for byte: flags
// (store and side), ID, time, token count and token deltas, the encoding
// every record has had since version 2.
func TestUntracedEncodingUnchanged(t *testing.T) {
	rec := &record.Record{ID: 7, Time: 1, Tokens: []tokens.Rank{4, 8, 15, 16, 23, 42}}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteRecordSide(true, true, rec); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	want := []byte{TypeRecord, 10, 0x03, 7, 2, 6, 4, 4, 7, 1, 7, 19}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("record frame\n got %x\nwant %x", buf.Bytes(), want)
	}
	r := NewReader(&buf)
	if _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	got, err := r.ReadRecord()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Store || !got.Right || got.Rec.ID != rec.ID || got.Rec.Time != rec.Time || len(got.Rec.Tokens) != len(rec.Tokens) {
		t.Fatalf("decoded %+v", got)
	}
}

// hostileRecordPayloads are Record payloads no writer produces: a flag
// bit beyond store, side and load, and bytes after the last token.
var hostileRecordPayloads = map[string][]byte{
	// A version 5 traced record: bit 2 (the load flag since version 12),
	// then trace id 9 and parent span 1 after the tokens.
	"flags 0x04":        {0x04, 7, 2, 1, 4, 9, 2},
	"flags 0x08":        {0x09, 7, 2, 1, 4},
	"flags 0x80":        {0x81, 7, 2, 1, 4},
	"one trailing byte": {0x01, 7, 2, 1, 4, 0},
}

// TestRecordRejectsHostileBytes: DecodeRecord refuses every hostile
// payload that a well-formed record differs from only there.
func TestRecordRejectsHostileBytes(t *testing.T) {
	if _, err := DecodeRecord([]byte{0x03, 7, 2, 1, 4}); err != nil {
		t.Fatalf("well-formed record refused: %v", err)
	}
	for name, body := range hostileRecordPayloads {
		if rec, err := DecodeRecord(body); err == nil {
			t.Errorf("%s: decoded %+v", name, rec)
		}
	}
}
