package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"reflect"
	"testing"

	"repro/internal/record"
)

// probePairs returns the pairs a probe with the given partners produces, as
// a worker hands them to WriteResults: each names its IDs in ascending order.
func probePairs(probe record.ID, partners ...record.ID) []Result {
	rs := make([]Result, len(partners))
	for i, p := range partners {
		a, b := probe, p
		if b < a {
			a, b = b, a
		}
		rs[i] = Result{A: a, B: b, Sim: 0.5 + float64(i)/100}
	}
	return rs
}

func TestResultBatchRoundTrip(t *testing.T) {
	batches := []struct {
		probe record.ID
		rs    []Result
	}{
		{7, probePairs(7, 6)},
		{100_000, probePairs(100_000, 99_999, 98_000, 50_001, 0)},
		{3, probePairs(3, 4, 1, 3)}, // a partner above the probe, and a self-pair
		{1 << 63, probePairs(1<<63, 0, math.MaxUint64)},
	}
	r := roundTripFrames(t, func(w *Writer) error {
		for _, b := range batches {
			if err := w.WriteResults(b.probe, b.rs); err != nil {
				return err
			}
		}
		return nil
	})
	var got []Result
	for _, b := range batches {
		typ, err := r.Next()
		if err != nil || typ != TypeResult {
			t.Fatalf("probe %d: frame %v %v", b.probe, typ, err)
		}
		if got, err = r.ReadResults(got[:0]); err != nil {
			t.Fatalf("probe %d: %v", b.probe, err)
		}
		if len(got) != len(b.rs) {
			t.Fatalf("probe %d: %d pairs, want %d", b.probe, len(got), len(b.rs))
		}
		for i := range got {
			if got[i] != b.rs[i] {
				t.Errorf("probe %d pair %d: %+v, want %+v", b.probe, i, got[i], b.rs[i])
			}
		}
		if _, err := r.ReadResult(); len(b.rs) != 1 && err == nil {
			t.Errorf("probe %d: ReadResult accepted a frame of %d pairs", b.probe, len(b.rs))
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("want clean EOF, got %v", err)
	}
}

func TestResultBatchPartnerOutOfReach(t *testing.T) {
	// A distance must fit a zigzag int64: 2^63 below the probe is the
	// farthest partner, 2^63 − 1 above it the farthest the other way.
	for _, c := range []struct {
		probe, partner record.ID
		ok             bool
	}{
		{1 << 63, 0, true},
		{1<<63 + 1, 0, false},
		{0, math.MaxInt64, true},
		{0, 1 << 63, false},
	} {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		err := w.WriteResults(c.probe, probePairs(c.probe, c.partner))
		if (err == nil) != c.ok {
			t.Errorf("probe %d partner %d: err %v, want ok=%v", c.probe, c.partner, err, c.ok)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if !c.ok && buf.Len() != 0 {
			t.Errorf("probe %d partner %d: a refused frame wrote %d bytes", c.probe, c.partner, buf.Len())
		}
	}
}

// TestWriteResultsSplitsOversizedProbes: a probe with more pairs than one
// frame holds goes out as several frames of that probe, which add up to
// its pairs in order.
func TestWriteResultsSplitsOversizedProbes(t *testing.T) {
	defer SetFramePairs(3)()
	const probe = 10
	rs := probePairs(probe, 1, 2, 3, 4, 5, 6, 7)
	r := roundTripFrames(t, func(w *Writer) error { return w.WriteResults(probe, rs) })
	var got []Result
	for i, want := range []int{3, 3, 1} {
		if typ, err := r.Next(); err != nil || typ != TypeResult {
			t.Fatalf("frame %d: %v %v", i, typ, err)
		}
		n := len(got)
		var err error
		if got, err = r.ReadResults(got); err != nil || len(got)-n != want {
			t.Fatalf("frame %d: %d pairs, %v; want %d", i, len(got)-n, err, want)
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("want clean EOF after 3 frames, got %v", err)
	}
	for i := range rs {
		if got[i] != rs[i] {
			t.Errorf("pair %d: %+v, want %+v", i, got[i], rs[i])
		}
	}
}

// TestSplitProbeFramesIgnorePairOrder: a probe split over frames makes the
// same frames, numbered alike, whatever order its pairs come in — the
// order a restored index finds them in differs from an uninterrupted one's.
func TestSplitProbeFramesIgnorePairOrder(t *testing.T) {
	defer SetFramePairs(3)()
	const probe = 100
	frames := func(partners ...record.ID) (out [][]Result) {
		r := roundTripFrames(t, func(w *Writer) error {
			w.SetResultNumber(40)
			return w.WriteResults(probe, probePairs(probe, partners...))
		})
		for want := uint64(40); ; {
			if typ, err := r.Next(); err == io.EOF {
				return out
			} else if err != nil || typ != TypeResult {
				t.Fatalf("frame %d: %v %v", len(out), typ, err)
			}
			first, rs, err := r.ReadNumberedResults(nil)
			if err != nil || first != want {
				t.Fatalf("frame %d: numbered %d, %v; want %d", len(out), first, err, want)
			}
			want += uint64(len(rs))
			for i := range rs {
				rs[i].Sim = 0 // probePairs numbers the similarity by position
			}
			out = append(out, rs)
		}
	}
	in, shuffled := frames(1, 2, 3, 50, 99, 101, 7000), frames(7000, 99, 2, 101, 1, 50, 3)
	if len(in) != 3 || !reflect.DeepEqual(in, shuffled) {
		t.Fatalf("pairs in order make frames %v, shuffled %v", in, shuffled)
	}
}

// TestResultFrameFitsMaxFrame: framePairs pairs at their largest encoding
// (a ten-byte probe, every partner 2^63 below it) fit one frame, and one
// pair more spills into a second frame instead of failing the write.
func TestResultFrameFitsMaxFrame(t *testing.T) {
	const probe = math.MaxUint64
	rs := make([]Result, framePairs+1)
	for i := range rs {
		rs[i] = Result{A: probe - 1<<63, B: probe, Sim: 1}
	}
	r := roundTripFrames(t, func(w *Writer) error { return w.WriteResults(probe, rs) })
	var got []Result
	for i, want := range []int{framePairs, 1} {
		if typ, err := r.Next(); err != nil || typ != TypeResult {
			t.Fatalf("frame %d: %v %v", i, typ, err)
		}
		var err error
		if got, err = r.ReadResults(got[:0]); err != nil || len(got) != want {
			t.Fatalf("frame %d: %d pairs, %v; want %d", i, len(got), err, want)
		}
		if got[0] != rs[0] {
			t.Fatalf("frame %d: %+v, want %+v", i, got[0], rs[0])
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("want clean EOF after 2 frames, got %v", err)
	}
}

// hostileResultPayloads are Result payloads a decoder must refuse: a count
// no payload of that size can hold, a truncated similarity, distances that
// leave the ID range, pair numbers that wrap, trailing bytes and overlong
// varints.
var hostileResultPayloads = map[string][]byte{
	"empty":                {},
	"number only":          {0},
	"count only":           {0, 5},
	"count 2^64-1":         {0, 5, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 2, 0, 0, 0, 0, 0, 0, 0, 0},
	"count 2, one pair":    {0, 5, 2, 2, 0, 0, 0, 0, 0, 0, 0, 0},
	"truncated similarity": {0, 5, 1, 2, 0, 0, 0, 0, 0, 0, 0},
	"truncated distance":   {0, 5, 1, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80},
	"partner below zero":   {0, 5, 1, 11, 0, 0, 0, 0, 0, 0, 0, 0}, // zigzag 11 = −6
	"partner past 2^64-1": {0, 0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01,
		1, 4, 0, 0, 0, 0, 0, 0, 0, 0}, // probe 2^64 − 2, distance +2
	"numbers past 2^64-1": {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01,
		5, 1, 2, 0, 0, 0, 0, 0, 0, 0, 0}, // pair 2^64 − 1 leaves no number for the next
	"trailing byte":    {0, 5, 1, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0},
	"overlong number":  {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 5, 0},
	"overlong probe":   {0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0},
	"overlong partner": {0, 5, 1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02, 0, 0, 0, 0, 0, 0, 0, 0},
}

func TestResultBatchRejectsHostileBytes(t *testing.T) {
	for name, body := range hostileResultPayloads {
		dst := make([]Result, 1, 4)
		_, got, err := DecodeResults(dst, body)
		if err == nil {
			t.Errorf("%s: decoded to %+v", name, got)
		}
		if len(got) != 1 {
			t.Errorf("%s: a failed decode left %d pairs in dst, want its original 1", name, len(got))
		}
		if _, err := DecodeResult(body); err == nil {
			t.Errorf("%s: DecodeResult accepted it", name)
		}
		// Refusing costs nothing either: no buffer is sized by the count.
		if n := testing.AllocsPerRun(20, func() { DecodeResults(dst[:0], body) }); n != 0 {
			t.Errorf("%s: refusing it allocates %v times", name, n)
		}
	}
	// A count of exactly what the bytes hold is fine; one more is not.
	fits := []byte{9, 5, 2, 2, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0}
	if first, rs, err := DecodeResults(nil, fits); err != nil || first != 9 || len(rs) != 2 || rs[0].B != 6 || rs[1].A != 4 {
		t.Fatalf("two-pair payload decoded to %d, %+v, %v", first, rs, err)
	}
}

// TestCountFramesShareTheResultNumbers: Count and Result frames written by
// one Writer number one result sequence, and a Count payload decodes to
// the number of its first result and its count.
func TestCountFramesShareTheResultNumbers(t *testing.T) {
	r := roundTripFrames(t, func(w *Writer) error {
		w.SetResultNumber(7)
		if err := w.WriteCount(3); err != nil {
			return err
		}
		if err := w.WriteResults(20, probePairs(20, 4, 9)); err != nil {
			return err
		}
		return w.WriteCount(1 << 40)
	})
	want := []struct {
		typ      byte
		first, n uint64
	}{{TypeCount, 7, 3}, {TypeResult, 10, 2}, {TypeCount, 12, 1 << 40}}
	for i, w := range want {
		typ, err := r.Next()
		if err != nil || typ != w.typ {
			t.Fatalf("frame %d: type %d, %v; want %d", i, typ, err, w.typ)
		}
		var first, n uint64
		if typ == TypeCount {
			first, n, err = DecodeCount(r.Payload())
		} else {
			var rs []Result
			first, rs, err = r.ReadNumberedResults(nil)
			n = uint64(len(rs))
		}
		if err != nil || first != w.first || n != w.n {
			t.Errorf("frame %d: results %d numbered from %d, %v; want %d from %d", i, n, first, err, w.n, w.first)
		}
	}
}

// TestCountRejectsHostileBytes: a Count payload that is truncated, holds a
// byte after its count, or numbers a result past 2^64 − 1 is refused.
func TestCountRejectsHostileBytes(t *testing.T) {
	for name, body := range hostileCountPayloads {
		if first, n, err := DecodeCount(body); err == nil {
			t.Errorf("%s: decoded to %d from %d", name, n, first)
		}
	}
	if first, n, err := DecodeCount(AppendCount(nil, math.MaxUint64-5, 5)); err != nil || first != math.MaxUint64-5 || n != 5 {
		t.Errorf("a count ending at 2^64 - 1 decoded to %d from %d, %v", n, first, err)
	}
}

// hostileCountPayloads are Count payloads DecodeCount must refuse.
var hostileCountPayloads = map[string][]byte{
	"empty":               {},
	"number only":         {4},
	"trailing byte":       {4, 2, 0},
	"numbers past 2^64-1": AppendCount(nil, math.MaxUint64-5, 6),
	"overlong count":      {0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
}

// TestReaderDropsALargeStagingBuffer: a run of 1 MiB frames reuses one
// staging buffer, and the small frame after them leaves the Reader holding
// at most 64 KiB of it.
func TestReaderDropsALargeStagingBuffer(t *testing.T) {
	// Dense tokens take a byte each: a 1 MiB Record frame.
	toks := make([]uint32, 1<<20)
	for i := range toks {
		toks[i] = uint32(i)
	}
	r := roundTripFrames(t, func(w *Writer) error {
		for i := 0; i < 2; i++ {
			if err := w.WriteRecord(false, &record.Record{ID: 1, Tokens: toks}); err != nil {
				return err
			}
		}
		return w.WriteCount(1)
	})
	var big *byte
	for i := 0; i < 2; i++ {
		if _, err := r.Next(); err != nil {
			t.Fatal(err)
		}
		if i == 1 && &r.buf[0] != big {
			t.Fatal("the second 1 MiB frame reallocated the staging buffer")
		}
		big = &r.buf[0]
	}
	if _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	if c := cap(r.buf); c > 64<<10 {
		t.Fatalf("after a 1 MiB frame and a small one the Reader stages %d bytes, want at most %d", c, 64<<10)
	}
}

// TestReaderNextGrowthIsAmortised: frames of rising size reallocate the
// staging buffer a logarithmic number of times, not once per new maximum.
func TestReaderNextGrowthIsAmortised(t *testing.T) {
	const frames = 2048
	var stream []byte
	for n := 1; n <= frames; n++ {
		stream = append(stream, TypeRecord)
		stream = binary.AppendUvarint(stream, uint64(n))
		stream = append(stream, make([]byte, n)...)
	}
	allocs := testing.AllocsPerRun(3, func() {
		r := NewReader(bytes.NewReader(stream))
		for {
			if _, err := r.Next(); err != nil {
				if !errors.Is(err, io.EOF) {
					t.Fatal(err)
				}
				return
			}
		}
	})
	// The Reader, its bufio buffer and the bytes.Reader, then one growth
	// per doubling up to the largest frame: 16. Growing to each new
	// maximum would cost 2 052.
	if limit := 2 * math.Log2(frames); allocs > limit {
		t.Fatalf("reading %d frames of rising size: %v allocs, want at most %v", frames, allocs, limit)
	}
}

// repeatReader serves one byte string over and over.
type repeatReader struct {
	b []byte
	i int
}

func (r *repeatReader) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		c := copy(p[n:], r.b[r.i:])
		n += c
		r.i = (r.i + c) % len(r.b)
	}
	return n, nil
}

// BenchmarkResultBatch encodes and decodes the frame of one AOL-like probe:
// 24 pairs (AOL's mean) with partners up to a 50 000-record window behind.
// Both directions run at 0 allocs/op; CI gates that.
func BenchmarkResultBatch(b *testing.B) {
	const probe = 1_000_000
	partners := make([]record.ID, 24)
	for i := range partners {
		partners[i] = record.ID(probe - 1 - i*2000)
	}
	rs := probePairs(probe, partners...)
	b.Run("encode", func(b *testing.B) {
		w := NewWriter(io.Discard)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := w.WriteResults(probe, rs); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(rs)), "ns/pair")
	})
	b.Run("decode", func(b *testing.B) {
		var frame bytes.Buffer
		w := NewWriter(&frame)
		if err := w.WriteResults(probe, rs); err != nil {
			b.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			b.Fatal(err)
		}
		r := NewReader(&repeatReader{b: frame.Bytes()})
		dst := make([]Result, 0, len(rs))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := r.Next(); err != nil {
				b.Fatal(err)
			}
			var err error
			if dst, err = r.ReadResults(dst[:0]); err != nil || len(dst) != len(rs) {
				b.Fatalf("decoded %d pairs, %v", len(dst), err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(rs)), "ns/pair")
	})
	// The same probe in a CountOnly session: one Count frame of 24.
	b.Run("count/encode", func(b *testing.B) {
		w := NewWriter(io.Discard)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := w.WriteCount(uint64(len(rs))); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("count/decode", func(b *testing.B) {
		var frame bytes.Buffer
		w := NewWriter(&frame)
		w.SetResultNumber(1 << 20)
		if err := w.WriteCount(uint64(len(rs))); err != nil {
			b.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			b.Fatal(err)
		}
		r := NewReader(&repeatReader{b: frame.Bytes()})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := r.Next(); err != nil {
				b.Fatal(err)
			}
			if _, n, err := DecodeCount(r.Payload()); err != nil || n != uint64(len(rs)) {
				b.Fatalf("decoded a count of %d, %v", n, err)
			}
		}
	})
}
