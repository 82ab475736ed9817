package wire

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
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
	// Flow-control frames: an ack, an empty ack (must fail to decode), a
	// credit grant with its mark, one marking no probe, and one without a
	// mark (must fail to decode).
	f.Add([]byte{TypeResumeAck, 2, 0x80, 0x20})
	f.Add([]byte{TypeResumeAck, 0})
	f.Add([]byte{TypeCredit, 3, 0x80, 0x10, 0x2A})
	f.Add([]byte{TypeCredit, 2, 0x80, 0x10, 0})
	f.Add([]byte{TypeCredit, 2, 0x80, 0x20})
	// Load records of either side.
	f.Add([]byte{TypeRecord, 5, 0x05, 7, 2, 1, 4})
	f.Add([]byte{TypeRecord, 5, 0x07, 7, 2, 1, 4})
	// Result frames: a probe's batch, then every hostile payload as a frame.
	buf.Reset()
	_ = w.WriteResults(100, []Result{{A: 99, B: 100, Sim: 0.9}, {A: 40, B: 100, Sim: 0.8}, {A: 100, B: 101, Sim: 1}})
	_ = w.Flush()
	f.Add(bytes.Clone(buf.Bytes()))
	for _, body := range hostileResultPayloads {
		f.Add(append([]byte{TypeResult, byte(len(body))}, body...))
	}
	for _, body := range hostileRecordPayloads {
		f.Add(append([]byte{TypeRecord, byte(len(body))}, body...))
	}
	// Count frames: a count between two Result frames, then every hostile
	// payload as a frame.
	buf.Reset()
	_ = w.WriteCount(3)
	_ = w.WriteResult(Result{A: 1, B: 2, Sim: 0.5})
	_ = w.WriteCount(1 << 33)
	_ = w.Flush()
	f.Add(bytes.Clone(buf.Bytes()))
	for _, body := range hostileCountPayloads {
		f.Add(append([]byte{TypeCount, byte(len(body))}, body...))
	}

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
				one, oneErr := r.ReadResult()
				rs, err := r.ReadResults(nil)
				if err == nil && len(rs) > len(r.buf)/minPairBytes {
					t.Fatalf("%d pairs out of a %d-byte payload", len(rs), len(r.buf))
				}
				if oneErr == nil && (err != nil || len(rs) != 1 || !sameResult(rs[0], one)) {
					t.Fatalf("ReadResult %+v disagrees with ReadResults %+v, %v", one, rs, err)
				}
			case TypeCount:
				if first, n, err := DecodeCount(r.buf); err == nil && n > math.MaxUint64-first {
					t.Fatalf("a count of %d from %d numbers past 2^64 - 1", n, first)
				}
			case TypeStats:
				_, _ = r.ReadStats()
			case TypeResumeAck:
				_, _ = r.ReadResumeAck()
			case TypeCredit:
				_, _, _ = r.ReadCredit()
			case TypeEOF:
				return
			default:
				return
			}
		}
	})
}

// FuzzResultBatchRoundTrip checks encode→decode identity for the pairs of
// one probe, numbered from first, over frames of at most four pairs. Each
// 10-byte chunk of raw is one partner: a mode byte, 8 bytes u, and the
// similarity's low byte. Mode picks the partner u mod 2^16 above or below
// the probe (wrapping past the ID range, which the encoder must refuse) or
// u itself. A batch whose every distance fits an int64 must come back pair
// for pair in the order it was written, which is by partner when it takes
// more than one frame, and numbered from first without a gap; any other
// batch must be refused, a one-frame batch whole.
func FuzzResultBatchRoundTrip(f *testing.F) {
	f.Add(uint64(0), uint64(100), []byte{0, 1, 0, 0, 0, 0, 0, 0, 0, 7, 1, 9, 0, 0, 0, 0, 0, 0, 0, 200})
	f.Add(uint64(0), uint64(1<<63), []byte{2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0})
	f.Add(uint64(0), uint64(3), []byte{1, 9, 0, 0, 0, 0, 0, 0, 0, 0})
	// A numbered probe of six partners, out of order, split over two frames.
	f.Add(uint64(1<<40), uint64(500), []byte{
		1, 9, 0, 0, 0, 0, 0, 0, 0, 1, 1, 2, 0, 0, 0, 0, 0, 0, 0, 2, 1, 40, 0, 0, 0, 0, 0, 0, 0, 3,
		1, 7, 0, 0, 0, 0, 0, 0, 0, 4, 1, 1, 0, 0, 0, 0, 0, 0, 0, 5, 1, 30, 0, 0, 0, 0, 0, 0, 0, 6})
	f.Fuzz(func(t *testing.T, first, probe uint64, raw []byte) {
		defer SetFramePairs(4)()
		var rs []Result
		fits := true
		for ; len(raw) >= 10; raw = raw[10:] {
			u := binary.LittleEndian.Uint64(raw[1:9])
			partner := u
			switch raw[0] % 3 {
			case 0:
				partner = probe + u%(1<<16)
			case 1:
				partner = probe - u%(1<<16)
			}
			if partner >= probe {
				fits = fits && partner-probe <= math.MaxInt64
			} else {
				fits = fits && probe-partner <= 1<<63
			}
			a, b := min(probe, partner), max(probe, partner)
			rs = append(rs, Result{A: record.ID(a), B: record.ID(b), Sim: math.Float64frombits(u&^0xff | uint64(raw[9]))})
		}
		first = min(first, math.MaxUint64-uint64(len(rs)))
		var buf bytes.Buffer
		w := NewWriter(&buf)
		w.SetResultNumber(first)
		err := w.WriteResults(record.ID(probe), rs)
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if !fits {
			if err == nil || len(rs) <= framePairs && buf.Len() != 0 {
				t.Fatalf("a batch with an out-of-reach partner: err %v, %d bytes written", err, buf.Len())
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		r := NewReader(&buf)
		var got []Result
		for {
			typ, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil || typ != TypeResult {
				t.Fatalf("frame %v %v", typ, err)
			}
			want := first + uint64(len(got))
			var at uint64
			if at, got, err = r.ReadNumberedResults(got); err != nil || at != want {
				t.Fatalf("frame numbered %d, %v; want %d", at, err, want)
			}
		}
		if len(got) != len(rs) {
			t.Fatalf("%d pairs back, sent %d", len(got), len(rs))
		}
		for i := range rs {
			if !sameResult(got[i], rs[i]) {
				t.Fatalf("pair %d: %+v, sent %+v", i, got[i], rs[i])
			}
			if len(rs) > framePairs && i > 0 && partner(rs[i], record.ID(probe)) < partner(rs[i-1], record.ID(probe)) {
				t.Fatalf("pair %d of a split probe is out of partner order: %+v after %+v", i, rs[i], rs[i-1])
			}
		}
	})
}

// sameResult compares two pairs with the similarity by its bits, so NaN
// equals itself.
func sameResult(a, b Result) bool {
	return a.A == b.A && a.B == b.B && math.Float64bits(a.Sim) == math.Float64bits(b.Sim)
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
