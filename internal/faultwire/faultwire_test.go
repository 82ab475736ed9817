package faultwire

import (
	"bytes"
	"errors"
	"io"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/record"
	"repro/internal/wire"
)

// memConn is an in-memory io.ReadWriteCloser: reads drain the preloaded
// input, writes accumulate in out.
type memConn struct {
	in     *bytes.Reader
	out    bytes.Buffer
	closed bool
}

func (m *memConn) Read(p []byte) (int, error) {
	if m.closed {
		return 0, io.ErrClosedPipe
	}
	if m.in == nil {
		return 0, io.EOF
	}
	return m.in.Read(p)
}

func (m *memConn) Write(p []byte) (int, error) {
	if m.closed {
		return 0, io.ErrClosedPipe
	}
	return m.out.Write(p)
}

func (m *memConn) Close() error {
	m.closed = true
	return nil
}

func rec(id int, toks ...uint32) *record.Record {
	return &record.Record{ID: record.ID(id), Tokens: toks}
}

// writeRecords pushes n records through a wrapped connection, returning
// the write error if any.
func writeRecords(c io.Writer, n int) error {
	w := wire.NewWriter(c)
	for i := 0; i < n; i++ {
		if err := w.WriteRecord(true, rec(i, 1, 2, 3)); err != nil {
			return err
		}
	}
	return w.Flush()
}

// countFrames parses the raw stream and counts frames per type.
func countFrames(t *testing.T, b []byte) map[byte]int {
	t.Helper()
	out := make(map[byte]int)
	for len(b) > 0 {
		fl := frameLen(b)
		if fl == 0 {
			t.Fatalf("trailing partial frame (%d bytes left)", len(b))
		}
		out[b[0]]++
		b = b[fl:]
	}
	return out
}

func TestPassthrough(t *testing.T) {
	inner := &memConn{}
	c := Wrap(inner, Config{})
	if err := writeRecords(c, 5); err != nil {
		t.Fatal(err)
	}
	got := countFrames(t, inner.out.Bytes())
	if got[wire.TypeRecord] != 5 || len(got) != 1 {
		t.Fatalf("passthrough frames = %v, want 5 records", got)
	}
}

func TestDuplicateRecordsOnly(t *testing.T) {
	inner := &memConn{}
	c := Wrap(inner, Config{DupPerMille: 1000})
	w := wire.NewWriter(c)
	// A ping (control frame) must never be duplicated even at 100%.
	if err := w.WritePing(); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteRecord(true, rec(7, 1, 2)); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got := countFrames(t, inner.out.Bytes())
	if got[wire.TypeRecord] != 2 {
		t.Fatalf("record frames = %d, want 2 (duplicated)", got[wire.TypeRecord])
	}
	if got[wire.TypePing] != 1 {
		t.Fatalf("ping frames = %d, want 1 (never duplicated)", got[wire.TypePing])
	}
}

func TestSeverAfterFrames(t *testing.T) {
	inner := &memConn{}
	c := Wrap(inner, Config{SeverAfterFrames: 3})
	err := writeRecords(c, 10)
	if !errors.Is(err, ErrSevered) {
		t.Fatalf("write error = %v, want ErrSevered", err)
	}
	if !inner.closed {
		t.Fatal("inner connection not closed on sever")
	}
	got := countFrames(t, inner.out.Bytes())
	if got[wire.TypeRecord] != 2 {
		t.Fatalf("frames before sever = %d, want 2", got[wire.TypeRecord])
	}
	// The severed state is sticky for writes; reads fall through to the
	// (here fully closed: memConn has no half-close) inner transport.
	if _, err := c.Write([]byte{0}); !errors.Is(err, ErrSevered) {
		t.Fatalf("post-sever write error = %v, want ErrSevered", err)
	}
	if _, err := c.Read(make([]byte, 1)); err == nil {
		t.Fatal("post-sever read on closed inner transport succeeded")
	}
}

// halfCloseConn adds CloseWrite to memConn.
type halfCloseConn struct {
	memConn
	wclosed bool
}

func (h *halfCloseConn) CloseWrite() error {
	h.wclosed = true
	return nil
}

func TestSeverHalfClosesWhenSupported(t *testing.T) {
	inner := &halfCloseConn{memConn: memConn{in: bytes.NewReader(nil)}}
	c := Wrap(inner, Config{SeverAfterFrames: 1})
	if err := writeRecords(c, 1); !errors.Is(err, ErrSevered) {
		t.Fatalf("write error = %v, want ErrSevered", err)
	}
	if !inner.wclosed {
		t.Fatal("sever did not use CloseWrite")
	}
	if inner.closed {
		t.Fatal("sever fully closed a half-closable transport")
	}
	// The read direction still drains: EOF from the preloaded reader, not
	// ErrSevered.
	if _, err := c.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
		t.Fatalf("post-sever read error = %v, want io.EOF", err)
	}
}

func TestReadSideDuplication(t *testing.T) {
	// Preload the inner connection with one result frame; at 100% dup the
	// wrapped reader must surface it twice.
	var raw bytes.Buffer
	w := wire.NewWriter(&raw)
	if err := w.WriteResult(wire.Result{A: 1, B: 2, Sim: 0.9}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	inner := &memConn{in: bytes.NewReader(raw.Bytes())}
	c := Wrap(inner, Config{DupPerMille: 1000})
	rd := wire.NewReader(c)
	for i := 0; i < 2; i++ {
		typ, err := rd.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if typ != wire.TypeResult {
			t.Fatalf("frame %d type = %d, want result", i, typ)
		}
		res, err := rd.ReadResult()
		if err != nil {
			t.Fatal(err)
		}
		if res.A != 1 || res.B != 2 {
			t.Fatalf("result = %+v", res)
		}
	}
	if _, err := rd.Next(); err == nil {
		t.Fatal("expected EOF after the duplicated frame")
	}
}

func TestDeterministicDecisions(t *testing.T) {
	run := func() []byte {
		inner := &memConn{}
		c := Wrap(inner, Config{Seed: 42, DupPerMille: 300})
		if err := writeRecords(c, 50); err != nil {
			t.Fatal(err)
		}
		return inner.out.Bytes()
	}
	if !bytes.Equal(run(), run()) {
		t.Fatal("same seed produced different fault schedules")
	}
}

func TestPartialWritesReassemble(t *testing.T) {
	// Frames split across many tiny Writes must still come out whole.
	var raw bytes.Buffer
	w := wire.NewWriter(&raw)
	for i := 0; i < 3; i++ {
		if err := w.WriteRecord(i%2 == 0, rec(i, 5, 6, 7, 8)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	inner := &memConn{}
	c := Wrap(inner, Config{})
	for _, b := range raw.Bytes() {
		if _, err := c.Write([]byte{b}); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(inner.out.Bytes(), raw.Bytes()) {
		t.Fatal("byte-at-a-time writes corrupted the stream")
	}
}

// TestCallsAreSerializedPerDirection: two goroutines writing whole frames
// and two reading at once, each pair through the direction's own lock,
// put every frame on the transport whole and drain every inbound byte
// once.
func TestCallsAreSerializedPerDirection(t *testing.T) {
	const perWriter = 100
	var frame, inbound bytes.Buffer
	if err := writeRecords(&frame, 1); err != nil {
		t.Fatal(err)
	}
	if err := writeRecords(&inbound, 2*perWriter); err != nil {
		t.Fatal(err)
	}
	inner := &memConn{in: bytes.NewReader(inbound.Bytes())}
	c := Wrap(inner, Config{})
	var (
		wg   sync.WaitGroup
		read atomic.Int64
	)
	for i := 0; i < 2; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for j := 0; j < perWriter; j++ {
				if _, err := c.Write(frame.Bytes()); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			buf := make([]byte, 64)
			for {
				n, err := c.Read(buf)
				read.Add(int64(n))
				if err != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := countFrames(t, inner.out.Bytes()); got[wire.TypeRecord] != 2*perWriter {
		t.Fatalf("outbound frames = %v, want %d records", got, 2*perWriter)
	}
	if read.Load() != int64(inbound.Len()) {
		t.Fatalf("read %d inbound bytes, want %d", read.Load(), inbound.Len())
	}
}
