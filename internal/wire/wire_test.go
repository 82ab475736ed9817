package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/record"
	"repro/internal/tokens"
)

func roundTripFrames(t *testing.T, write func(*Writer) error) *Reader {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := write(w); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return NewReader(&buf)
}

func TestHelloRoundTrip(t *testing.T) {
	h := Hello{
		Version: Version, Task: 3, Workers: 8, Func: 1, Threshold: 0.85,
		Algorithm: 2, WindowKind: 1, WindowN: 5000, Strategy: 0,
		Bounds: []int{4, 9, 17, 300}, GroupThreshold: 0.9, MaxMembers: 32,
		OneByOne: true,
	}
	r := roundTripFrames(t, func(w *Writer) error { return w.WriteHello(h) })
	typ, err := r.Next()
	if err != nil || typ != TypeHello {
		t.Fatalf("next: %v %v", typ, err)
	}
	got, err := r.ReadHello()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, h) {
		t.Fatalf("hello mismatch:\ngot  %+v\nwant %+v", got, h)
	}
}

func TestHelloFTRoundTrip(t *testing.T) {
	h := Hello{
		Version: Version, Task: 1, Workers: 4, Func: 0, Threshold: 0.7,
		Strategy: 2, Bounds: []int{},
		FT: true, SessionID: 0xDEADBEEFCAFE,
	}
	r := roundTripFrames(t, func(w *Writer) error { return w.WriteHello(h) })
	if _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	got, err := r.ReadHello()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, h) {
		t.Fatalf("ft hello mismatch:\ngot  %+v\nwant %+v", got, h)
	}
}

func TestControlFramesRoundTrip(t *testing.T) {
	r := roundTripFrames(t, func(w *Writer) error {
		if err := w.WritePing(); err != nil {
			return err
		}
		if err := w.WritePong(); err != nil {
			return err
		}
		if err := w.WriteResumeAck(4096); err != nil {
			return err
		}
		// An empty ack: the credit field is mandatory.
		return w.flushFrame(TypeResumeAck)
	})
	for _, want := range []byte{TypePing, TypePong} {
		typ, err := r.Next()
		if err != nil || typ != want {
			t.Fatalf("control frame: got %v %v, want %v", typ, err, want)
		}
	}
	typ, err := r.Next()
	if err != nil || typ != TypeResumeAck {
		t.Fatalf("resume-ack frame: %v %v", typ, err)
	}
	credit, err := r.ReadResumeAck()
	if err != nil || credit != 4096 {
		t.Fatalf("resume-ack decoded as (%d, %v)", credit, err)
	}
	typ, err = r.Next()
	if err != nil || typ != TypeResumeAck {
		t.Fatalf("empty resume-ack frame: %v %v", typ, err)
	}
	if credit, err := r.ReadResumeAck(); err == nil {
		t.Fatalf("empty resume-ack decoded as %d", credit)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("want clean EOF, got %v", err)
	}
}

func TestResumeAckCreditForms(t *testing.T) {
	// A zero credit is a closed window, not "flow control off": it is an
	// ack like any other, and the extremes of the field survive.
	for _, c := range []uint64{0, 512, math.MaxUint64} {
		r := roundTripFrames(t, func(w *Writer) error { return w.WriteResumeAck(c) })
		if _, err := r.Next(); err != nil {
			t.Fatal(err)
		}
		credit, err := r.ReadResumeAck()
		if err != nil || credit != c {
			t.Fatalf("ack %d decoded as (%d, %v)", c, credit, err)
		}
	}
}

func TestHelloVersionRejected(t *testing.T) {
	// One protocol version: older and newer hellos are both refused.
	for _, v := range []int{0, Version - 1, Version + 1} {
		h := Hello{Version: v, Task: 1, Workers: 2, Threshold: 0.6, Bounds: []int{}}
		r := roundTripFrames(t, func(w *Writer) error { return w.WriteHello(h) })
		if _, err := r.Next(); err != nil {
			t.Fatal(err)
		}
		if _, err := r.ReadHello(); err == nil {
			t.Fatalf("version %d accepted", v)
		}
	}
}

func TestHelloV4FieldsRoundTrip(t *testing.T) {
	h := Hello{
		Version: Version, Task: 2, Workers: 4, Threshold: 0.8, Bounds: []int{10, 20},
		FT: true, SessionID: 42,
	}
	r := roundTripFrames(t, func(w *Writer) error { return w.WriteHello(h) })
	if _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	got, err := r.ReadHello()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, h) {
		t.Fatalf("v4 hello mismatch:\ngot  %+v\nwant %+v", got, h)
	}
}

// TestHelloRejectsUnknownFlagBits: every bit above bit 4 (CountOnly since
// version 11, the Durable flag of version 7) is refused, as DecodeRecord
// refuses unknown record flags.
func TestHelloRejectsUnknownFlagBits(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteHello(Hello{Version: Version, Threshold: 0.7, FT: true}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()
	// The flags byte precedes the one-byte session ID.
	flags := len(frame) - 2
	if frame[flags] != helloFT {
		t.Fatalf("flags byte %#02x at %d, want the FT bit alone", frame[flags], flags)
	}
	// Bits 0–2 and 4 are OneByOne, Bi, FT and CountOnly; bit 3 was the
	// Resume flag until version 12.
	for _, bit := range []int{3, 5, 6, 7} {
		bad := bytes.Clone(frame)
		bad[flags] |= 1 << bit
		r := NewReader(bytes.NewReader(bad))
		if _, err := r.Next(); err != nil {
			t.Fatal(err)
		}
		if h, err := r.ReadHello(); err == nil {
			t.Errorf("hello with flag bit %d decoded as %+v", bit, h)
		}
	}
}

// TestPlanHashCoversEveryField: each Hello field that describes the join,
// set alone to a non-zero value, survives a WriteHello/ReadHello round trip
// and moves PlanHash; the per-connection fields leave it alone.
func TestPlanHashCoversEveryField(t *testing.T) {
	base := Hello{Version: Version, Bounds: []int{}} // ReadHello decodes no bounds as empty
	perConn := map[string]bool{"Task": true, "FT": true, "SessionID": true}
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		if name == "Version" {
			continue // a Hello of another version does not decode
		}
		h := base
		switch f := reflect.ValueOf(&h).Elem().Field(i); f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(3)
		case reflect.Uint64:
			f.SetUint(3)
		case reflect.Float64:
			f.SetFloat(0.75)
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Slice:
			f.Set(reflect.ValueOf([]int{3}))
		default:
			t.Fatalf("field %s: kind %v has no test value", name, f.Kind())
		}
		r := roundTripFrames(t, func(w *Writer) error { return w.WriteHello(h) })
		if _, err := r.Next(); err != nil {
			t.Fatal(err)
		}
		got, err := r.ReadHello()
		if err != nil || !reflect.DeepEqual(got, h) {
			t.Errorf("field %s: decodes to %+v, %v; want %+v", name, got, err, h)
		}
		if moved := h.PlanHash() != base.PlanHash(); moved == perConn[name] {
			t.Errorf("field %s: plan hash moved = %v, want %v", name, moved, !perConn[name])
		}
	}
}

func TestFlowControlFramesRoundTrip(t *testing.T) {
	// Frame type values are the protocol: Credit keeps 13 with 11 and 12
	// retired.
	if TypeCredit != 13 {
		t.Fatalf("TypeCredit = %d, want 13", TypeCredit)
	}
	// A Credit carries its delta and the mark, the ID after the last probed
	// record: 0 while the worker has only loaded, and either field at its
	// extreme; a payload without the mark is refused.
	marks := [][2]uint64{{4096, 0}, {2048, 12345}, {0, math.MaxUint64}, {math.MaxUint64, 1}}
	r := roundTripFrames(t, func(w *Writer) error {
		for _, m := range marks {
			if err := w.WriteCredit(m[0], m[1]); err != nil {
				return err
			}
		}
		w.putUvarint(4096)
		return w.flushFrame(TypeCredit)
	})
	for _, m := range marks {
		typ, err := r.Next()
		if err != nil || typ != TypeCredit {
			t.Fatalf("credit frame: %v %v", typ, err)
		}
		if delta, next, err := r.ReadCredit(); err != nil || delta != m[0] || next != m[1] {
			t.Fatalf("credit %v decoded as (%d, %d, %v)", m, delta, next, err)
		}
	}
	if typ, err := r.Next(); err != nil || typ != TypeCredit {
		t.Fatalf("delta-only credit frame: %v %v", typ, err)
	}
	if delta, next, err := r.ReadCredit(); err == nil {
		t.Fatalf("a credit without its mark decoded as (%d, %d)", delta, next)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("want clean EOF, got %v", err)
	}
}

func TestRecordRoundTrip(t *testing.T) {
	rec := &record.Record{ID: 12345, Time: -7, Tokens: []tokens.Rank{1, 5, 9, 4_000_000_000}}
	// A record to probe, and loaded ones of either side, which are stored.
	want := []Record{{Store: true, Rec: rec}, {Store: true, Load: true, Rec: rec}, {Store: true, Right: true, Load: true, Rec: rec}}
	r := roundTripFrames(t, func(w *Writer) error {
		if err := w.WriteRecord(true, rec); err != nil {
			return err
		}
		if err := w.WriteLoad(false, rec); err != nil {
			return err
		}
		return w.WriteLoad(true, rec)
	})
	for _, rt := range want {
		typ, err := r.Next()
		if err != nil || typ != TypeRecord {
			t.Fatalf("next: %v %v", typ, err)
		}
		got, err := r.ReadRecord()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, rt) {
			t.Fatalf("record decoded as %+v, want %+v", got, rt)
		}
	}
}

func TestRecordRoundTripProperty(t *testing.T) {
	f := func(id uint64, tm int64, raw []uint32, store bool) bool {
		toks := tokens.Dedup(append([]tokens.Rank{}, raw...))
		rec := &record.Record{ID: record.ID(id), Time: tm, Tokens: toks}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		if err := w.WriteRecord(store, rec); err != nil {
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
		if got.Store != store || got.Rec.ID != rec.ID || got.Rec.Time != tm {
			return false
		}
		if len(got.Rec.Tokens) != len(toks) {
			return false
		}
		for i := range toks {
			if got.Rec.Tokens[i] != toks[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestResultAndStatsRoundTrip(t *testing.T) {
	res := Result{A: 7, B: 99, Sim: 0.875}
	st := Stats{Probes: 1, Stored: 2, Scanned: 3, Candidates: 4, Verified: 5,
		Results: 6, VerifySteps: 7, Postings: 8}
	r := roundTripFrames(t, func(w *Writer) error {
		if err := w.WriteResult(res); err != nil {
			return err
		}
		return w.WriteStats(st)
	})
	typ, _ := r.Next()
	if typ != TypeResult {
		t.Fatalf("type: %v", typ)
	}
	gotRes, err := r.ReadResult()
	if err != nil || gotRes != res {
		t.Fatalf("result: %+v %v", gotRes, err)
	}
	typ, _ = r.Next()
	if typ != TypeStats {
		t.Fatalf("type: %v", typ)
	}
	gotSt, err := r.ReadStats()
	if err != nil || gotSt != st {
		t.Fatalf("stats: %+v %v", gotSt, err)
	}
}

func TestEOFFrame(t *testing.T) {
	r := roundTripFrames(t, func(w *Writer) error { return w.WriteEOF() })
	typ, err := r.Next()
	if err != nil || typ != TypeEOF {
		t.Fatalf("eof: %v %v", typ, err)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("want clean io.EOF, got %v", err)
	}
}

func TestInterleavedStream(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var buf bytes.Buffer
	w := NewWriter(&buf)
	const n = 500
	for i := 0; i < n; i++ {
		toks := make([]tokens.Rank, 1+rng.Intn(20))
		for j := range toks {
			toks[j] = tokens.Rank(rng.Intn(1 << 20))
		}
		toks = tokens.Dedup(toks)
		if err := w.WriteRecord(i%2 == 0, &record.Record{ID: record.ID(i), Tokens: toks}); err != nil {
			t.Fatal(err)
		}
		if i%5 == 0 {
			if err := w.WriteResult(Result{A: record.ID(i), B: record.ID(i + 1), Sim: 0.5}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.WriteEOF(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	recs, results := 0, 0
	for {
		typ, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		if typ == TypeEOF {
			break
		}
		switch typ {
		case TypeRecord:
			if _, err := r.ReadRecord(); err != nil {
				t.Fatal(err)
			}
			recs++
		case TypeResult:
			if _, err := r.ReadResult(); err != nil {
				t.Fatal(err)
			}
			results++
		default:
			t.Fatalf("unexpected type %d", typ)
		}
	}
	if recs != n || results != n/5 {
		t.Fatalf("counts: %d records %d results", recs, results)
	}
}

func TestTruncatedFrameIsUnexpectedEOF(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteRecord(true, &record.Record{ID: 1, Tokens: []tokens.Rank{1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 1; cut < len(full); cut++ {
		r := NewReader(bytes.NewReader(full[:cut]))
		_, err := r.Next()
		if err == nil {
			// Header parsed; payload must still decode or the frame was
			// complete — but we cut it, so Next must have failed unless
			// cut == len(full).
			t.Fatalf("cut=%d: truncated frame accepted", cut)
		}
		if err == io.EOF {
			t.Fatalf("cut=%d: truncation reported as clean EOF", cut)
		}
	}
}

func TestGarbagePayloadRejected(t *testing.T) {
	// A record frame claiming many tokens but carrying none.
	var buf bytes.Buffer
	buf.WriteByte(TypeRecord)
	buf.WriteByte(3)    // payload length 3
	buf.WriteByte(1)    // store
	buf.WriteByte(1)    // id
	buf.WriteByte(0x7F) // time varint... then missing token count
	r := NewReader(&buf)
	if _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadRecord(); err == nil {
		t.Fatal("garbage record accepted")
	}
}

// allocBytes returns the bytes the heap handed out while f ran.
func allocBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestHostileCountsAreRejectedUnallocated: a count that the bytes left in
// its payload cannot back — every item takes at least one byte — is
// refused before it sizes an allocation.
func TestHostileCountsAreRejectedUnallocated(t *testing.T) {
	// 7 bytes: flags, ID, time, then MaxFrame tokens and none of them.
	rec := binary.AppendUvarint([]byte{1, 0, 0}, MaxFrame)
	// A Hello whose bounds count is 2^20, with no bounds behind it:
	// version, task, workers, func, threshold, algorithm, window kind,
	// window n, strategy, bounds count.
	hello := append([]byte{0, 0, 0, 0}, make([]byte, 8)...)
	hello = append(hello, 0, 0, 0, 0)
	hello = binary.AppendUvarint(hello, 1<<20)
	helloFrame := binary.AppendUvarint([]byte{TypeHello}, uint64(len(hello)))
	helloFrame = append(helloFrame, hello...)

	for name, decode := range map[string]func() error{
		"DecodeRecord": func() error {
			_, err := DecodeRecord(rec)
			return err
		},
		"ReadHello": func() error {
			r := NewReader(bytes.NewReader(helloFrame))
			if _, err := r.Next(); err != nil {
				t.Fatal(err)
			}
			_, err := r.ReadHello()
			return err
		},
	} {
		var err error
		if n := allocBytes(func() { err = decode() }); n >= 1<<20 {
			t.Errorf("%s allocated %d bytes for a hostile count", name, n)
		}
		if err == nil {
			t.Errorf("%s accepted a count its payload cannot hold", name)
		}
	}
}

// TestHostileFrameLengthIsNotPreallocated: a header that declares a
// MaxFrame body and then ends costs memory for the bytes that arrived, not
// for the length it claimed.
func TestHostileFrameLengthIsNotPreallocated(t *testing.T) {
	for _, sent := range []int{0, 100 << 10} {
		stream := binary.AppendUvarint([]byte{TypeRecord}, MaxFrame)
		stream = append(stream, make([]byte, sent)...)
		var err error
		n := allocBytes(func() { _, err = NewReader(bytes.NewReader(stream)).Next() })
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("%d body bytes sent: Next = %v, want io.ErrUnexpectedEOF", sent, err)
		}
		if n >= 1<<20 {
			t.Errorf("%d body bytes sent: allocated %d bytes for a declared %d-byte frame", sent, n, MaxFrame)
		}
	}
}

func TestDeltaEncodingIsCompact(t *testing.T) {
	// Dense ascending tokens must encode in ~1 byte each.
	toks := make([]tokens.Rank, 1000)
	for i := range toks {
		toks[i] = tokens.Rank(1_000_000 + i)
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteRecord(false, &record.Record{ID: 1, Tokens: toks}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() > 1100 {
		t.Fatalf("delta encoding not compact: %d bytes for 1000 dense tokens", buf.Len())
	}
}
