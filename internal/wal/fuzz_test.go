package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// refFrame encodes one record the way the log format defines it, written
// out apart from Append.
func refFrame(payload []byte) []byte {
	b := binary.AppendUvarint(nil, uint64(len(payload)))
	b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(payload, castagnoli))
	return append(b, payload...)
}

// refParse reads b as a log file apart from scan: the payloads of its
// leading whole records with valid checksums, and the offset each ends at.
func refParse(b []byte) (payloads []string, ends []int64) {
	off := 0
	for {
		length, k := binary.Uvarint(b[off:])
		if k <= 0 || length > MaxRecord || uint64(len(b)-off-k) < 4+length {
			return payloads, ends
		}
		p := b[off+k+4 : off+k+4+int(length)]
		if crc32.Checksum(p, castagnoli) != binary.LittleEndian.Uint32(b[off+k:]) {
			return payloads, ends
		}
		off += k + 4 + int(length)
		payloads = append(payloads, string(p))
		ends = append(ends, int64(off))
	}
}

// writeLog makes dir a log directory whose file holds exactly b.
func writeLog(t *testing.T, dir string, b []byte) string {
	t.Helper()
	path := filepath.Join(dir, FileName)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

// checkReopen opens the log file holding b and requires what both readers
// must agree on: Replay returns the whole-record prefix or an error after
// a prefix of it, leaving the file as it was; Open fails exactly when
// Replay does, and otherwise truncates to that prefix and numbers on
// after it.
func checkReopen(t *testing.T, dir string, b []byte) {
	t.Helper()
	path := writeLog(t, dir, b)
	want, ends := refParse(b)
	got, rerr := replayAll(dir)
	if rerr == nil && !slices.Equal(got, want) || len(got) > len(want) || !slices.Equal(got, want[:len(got)]) {
		t.Fatalf("Replay = %q (%v), want the whole-record prefix %q", got, rerr, want)
	}
	if n := fileSize(t, path); n != int64(len(b)) {
		t.Fatalf("Replay changed the file size from %d to %d", len(b), n)
	}
	l, oerr := Open(dir, Options{Sync: SyncNever})
	if (oerr == nil) != (rerr == nil) {
		t.Fatalf("Open error %v, Replay error %v: the two readers disagree", oerr, rerr)
	}
	if oerr != nil {
		return
	}
	defer l.Close()
	if l.Next() != uint64(len(want)) {
		t.Fatalf("Open numbers on from %d, want %d", l.Next(), len(want))
	}
	valid := int64(0)
	if len(ends) > 0 {
		valid = ends[len(ends)-1]
	}
	if n := fileSize(t, path); n != valid {
		t.Fatalf("Open left %d bytes, want the %d of whole records", n, valid)
	}
	if got, err := replayAll(dir); err != nil || !slices.Equal(got, want) {
		t.Fatalf("Replay after Open = %q (%v), want %q", got, err, want)
	}
}

// FuzzWALReplay feeds arbitrary bytes to Open and Replay as a log file,
// round-trips payloads cut from the same bytes through Append, and
// truncates that log at every byte offset: each reopen must hold the
// longest whole-record prefix.
func FuzzWALReplay(f *testing.F) {
	valid := slices.Concat(refFrame([]byte("alpha")), refFrame(nil), refFrame(bytes.Repeat([]byte{7}, 200)))
	f.Add([]byte{})
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	flipped := bytes.Clone(valid)
	flipped[8] ^= 0xFF
	f.Add(flipped)
	f.Add(append(binary.AppendUvarint(nil, MaxRecord+1), make([]byte, 16)...))
	f.Add(append(binary.AppendUvarint(nil, MaxRecord), 1, 2, 3, 4))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkReopen(t, t.TempDir(), data)

		// Payloads cut from the input at zero bytes replay byte-identical.
		payloads := bytes.Split(data[:min(len(data), 64)], []byte{0})
		dir := t.TempDir()
		l, err := Open(dir, Options{Sync: SyncNever})
		if err != nil {
			t.Fatal(err)
		}
		var ends []int64
		for _, p := range payloads {
			if _, err := l.Append(p); err != nil {
				t.Fatal(err)
			}
			ends = append(ends, fileSize(t, filepath.Join(dir, FileName)))
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		got, err := replayAll(dir)
		if err != nil || len(got) != len(payloads) {
			t.Fatalf("replayed %d records (%v), appended %d", len(got), err, len(payloads))
		}
		for i, p := range payloads {
			if got[i] != string(p) {
				t.Fatalf("record %d replays as %q, appended %q", i, got[i], p)
			}
		}

		// A crash can cut the file anywhere: every cut reopens to the
		// records that ended before it.
		log, err := os.ReadFile(filepath.Join(dir, FileName))
		if err != nil {
			t.Fatal(err)
		}
		cutDir := t.TempDir()
		for cut := 0; cut <= len(log); cut++ {
			checkReopen(t, cutDir, log[:cut])
			whole := 0 // records Append finished before the cut
			for whole < len(ends) && ends[whole] <= int64(cut) {
				whole++
			}
			if got, _ := refParse(log[:cut]); len(got) != whole {
				t.Fatalf("log cut at %d holds %d whole records, want %d", cut, len(got), whole)
			}
		}
	})
}
