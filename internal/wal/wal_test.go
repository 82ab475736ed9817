package wal

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func appendAll(t *testing.T, l *Log, payloads ...string) {
	t.Helper()
	for _, p := range payloads {
		if _, err := l.Append([]byte(p)); err != nil {
			t.Fatalf("Append(%q): %v", p, err)
		}
	}
}

// drain replays the directory of l and returns the payloads of records
// from on.
func drain(t *testing.T, l *Log, from uint64) []string {
	t.Helper()
	l.mu.Lock()
	dir := filepath.Dir(l.s.f.Name())
	l.mu.Unlock()
	var out []string
	idx := uint64(0)
	err := Replay(dir, func(payload []byte) error {
		if idx >= from {
			out = append(out, string(payload))
		}
		idx++
		return nil
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return out
}

// replayAll returns every payload Replay hands over, and its error.
func replayAll(dir string) ([]string, error) {
	var out []string
	err := Replay(dir, func(payload []byte) error {
		out = append(out, string(payload))
		return nil
	})
	return out, err
}

func TestAppendIterRoundTrip(t *testing.T) {
	l, err := Open(t.TempDir(), Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	want := []string{"alpha", "", "gamma", "delta"}
	appendAll(t, l, want...)
	got := drain(t, l, 0)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
	if tail := drain(t, l, 2); len(tail) != 2 || tail[0] != "gamma" {
		t.Fatalf("Iter(2) = %q, want [gamma delta]", tail)
	}
	if past := drain(t, l, 4); len(past) != 0 {
		t.Fatalf("Iter(next) returned %q, want empty", past)
	}
}

func TestReopenContinuesIndexing(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, "a", "b", "c")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if n := l.Next(); n != 3 {
		t.Fatalf("Next after reopen = %d, want 3", n)
	}
	idx, err := l.Append([]byte("d"))
	if err != nil || idx != 3 {
		t.Fatalf("Append after reopen = (%d, %v), want (3, nil)", idx, err)
	}
	got := drain(t, l, 0)
	if len(got) != 4 || got[3] != "d" {
		t.Fatalf("replay after reopen = %q", got)
	}
}

func TestTornFinalRecordTruncatedOnReopen(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, "keep-0", "keep-1", "doomed")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seg := onlySegment(t, dir)
	// Chop mid-payload of the final record, as a crash mid-write would.
	st, _ := os.Stat(seg)
	if err := os.Truncate(seg, st.Size()-3); err != nil {
		t.Fatal(err)
	}
	l, err = Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen with torn tail: %v", err)
	}
	defer l.Close()
	if n := l.Next(); n != 2 {
		t.Fatalf("Next after torn-tail truncation = %d, want 2", n)
	}
	got := drain(t, l, 0)
	if len(got) != 2 || got[1] != "keep-1" {
		t.Fatalf("replay after torn tail = %q", got)
	}
	// The torn record's index is reused: the log stays dense.
	if idx, err := l.Append([]byte("rewritten")); err != nil || idx != 2 {
		t.Fatalf("Append after truncation = (%d, %v), want (2, nil)", idx, err)
	}
	if got := drain(t, l, 2); len(got) != 1 || got[0] != "rewritten" {
		t.Fatalf("replay of rewritten tail = %q", got)
	}
}

func TestTornFinalChecksumTreatedAsTorn(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, "keep", "doomed")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seg := onlySegment(t, dir)
	// Flip the last payload byte: a complete frame with a bad checksum
	// at the very tail is indistinguishable from a torn write.
	flipByteAt(t, seg, -1)
	l, err = Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen with corrupt final record: %v", err)
	}
	defer l.Close()
	if n := l.Next(); n != 1 {
		t.Fatalf("Next = %d, want 1 (corrupt tail dropped)", n)
	}
}

func TestCorruptMidSegmentRejectedWithOffset(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, "zero", "one", "two")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seg := onlySegment(t, dir)
	// Record 1 starts after record 0's frame: varint(4) + crc(4) + "zero".
	frame0 := int64(1 + 4 + len("zero"))
	// Flip a payload byte of record 1 (its payload starts 5 bytes in).
	flipByteAt(t, seg, frame0+5)
	_, err = Open(dir, Options{})
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("reopen with mid-segment corruption: got %v, want CorruptError", err)
	}
	if ce.Index != 1 {
		t.Fatalf("CorruptError.Index = %d, want 1", ce.Index)
	}
	if ce.Offset != frame0 {
		t.Fatalf("CorruptError.Offset = %d, want %d", ce.Offset, frame0)
	}
	if ce.Segment != seg {
		t.Fatalf("CorruptError.Segment = %q, want %q", ce.Segment, seg)
	}
}

// TestIteratorReportsCorruption: damage that is not a torn tail stops a
// replay with a CorruptError, after the records before it.
func TestIteratorReportsCorruption(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendAll(t, l, "aaaa", "bbbb", "cccc")
	// Corrupt record 1's payload after open: Open has already scanned the
	// file, so only the replay sees it. Record 1's frame starts at 9.
	flipByteAt(t, onlySegment(t, dir), 9+5+1)
	got, err := replayAll(dir)
	var ce *CorruptError
	if !errors.As(err, &ce) || ce.Index != 1 || ce.Offset != 9 {
		t.Fatalf("replaying a corrupt log: got %v, want CorruptError at index 1, offset 9", err)
	}
	if len(got) != 1 || got[0] != "aaaa" {
		t.Fatalf("replay before the damage = %q, want [aaaa]", got)
	}
}

// TestIteratorSnapshotIsolation: a replay reads the records the file held
// when it started, not those appended while it runs.
func TestIteratorSnapshotIsolation(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendAll(t, l, "before")
	var got []string
	err = Replay(dir, func(payload []byte) error {
		got = append(got, string(payload))
		appendAll(t, l, "after")
		return nil
	})
	if err != nil || len(got) != 1 || got[0] != "before" {
		t.Fatalf("replay during appends = %q, %v; want [before]", got, err)
	}
}

// TestOpenRefusesSeveralFiles: a log is one file, so a directory holding
// another wal-*.seg (a segment of a rotated log) is refused by name, by
// Open and by Replay alike.
func TestOpenRefusesSeveralFiles(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, "a")
	l.Close()
	const extra = "wal-0000000000000001.seg"
	if err := os.WriteFile(filepath.Join(dir, extra), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	_, oerr := Open(dir, Options{})
	_, rerr := replayAll(dir)
	for name, err := range map[string]error{"Open": oerr, "Replay": rerr} {
		if err == nil || !strings.Contains(err.Error(), extra) || !strings.Contains(err.Error(), FileName) {
			t.Errorf("%s of a two-file directory = %v, want an error naming both files", name, err)
		}
	}
}

// TestReplayChangesNothing: reading a log creates no directory, truncates
// no torn tail and needs no write access.
func TestReplayChangesNothing(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "no-such-log")
	if got, err := replayAll(missing); err == nil {
		t.Fatalf("Replay of a missing directory = %q, want an error", got)
	}
	if _, err := os.Stat(missing); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("Replay of a missing directory created it: %v", err)
	}

	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, "keep-0", "keep-1", "doomed")
	l.Close()
	seg := onlySegment(t, dir)
	st, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	torn := st.Size() - 3
	if err := os.Truncate(seg, torn); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		path string
		mode os.FileMode
	}{{seg, 0o444}, {dir, 0o555}} {
		if err := os.Chmod(c.path, c.mode); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() { os.Chmod(dir, 0o755) }) //nolint:errcheck
	got, err := replayAll(dir)
	if err != nil || len(got) != 2 || got[1] != "keep-1" {
		t.Fatalf("Replay of a read-only torn log = %q, %v; want [keep-0 keep-1]", got, err)
	}
	st, err = os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != torn {
		t.Fatalf("Replay changed the log file: size %d, want %d", st.Size(), torn)
	}
}

func TestSyncPolicies(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want SyncPolicy
		ok   bool
	}{
		{"always", SyncAlways, true},
		{"interval", SyncInterval, true},
		{"", SyncInterval, true},
		{"never", SyncNever, true},
		{"sometimes", 0, false},
	} {
		got, err := ParseSyncPolicy(tc.in)
		if tc.ok != (err == nil) || (tc.ok && got != tc.want) {
			t.Errorf("ParseSyncPolicy(%q) = (%v, %v)", tc.in, got, err)
		}
	}
	// SyncAlways must keep every record durable: exercised for coverage
	// of the per-append fsync path.
	l, err := Open(t.TempDir(), Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, "durable")
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestClosedLogRejectsOps(t *testing.T) {
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if _, err := l.Append([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append after Close = %v, want ErrClosed", err)
	}
	if err := l.Sync(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Sync after Close = %v, want ErrClosed", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("double Close = %v", err)
	}
}

func TestAbsurdLengthIsCorruption(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, "fine")
	l.Close()
	seg := onlySegment(t, dir)
	f, err := os.OpenFile(seg, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	var huge [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(huge[:], MaxRecord+1)
	// A huge declared length followed by data: not a torn tail (the
	// frame is self-evidently invalid), and Open must refuse to guess.
	garbage := append(huge[:n], make([]byte, 64)...)
	if _, err := f.Write(garbage); err != nil {
		t.Fatal(err)
	}
	f.Close()
	_, err = Open(dir, Options{})
	var ce *CorruptError
	if !errors.As(err, &ce) || ce.Index != 1 {
		t.Fatalf("reopen with absurd length = %v, want CorruptError at 1", err)
	}
}

func onlySegment(t *testing.T, dir string) string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("want exactly one segment, got %v (%v)", segs, err)
	}
	return segs[0]
}

func flipByteAt(t *testing.T, path string, off int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if off < 0 {
		st, err := f.Stat()
		if err != nil {
			t.Fatal(err)
		}
		off += st.Size()
	}
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xFF
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
}
