// Package wal is the coordinator's persistent ingest/replay log: one
// append-only file per log directory, each record framed as
//
//	[payload length: uvarint][crc32c of payload: 4 bytes LE][payload]
//
// Records are numbered densely from 0 in append order, and a log is read
// back whole, from record 0, by Replay. That is what makes a coordinator
// restart recoverable: the session's input is on disk, not in the dead
// process.
//
// Durability is a policy knob (always / interval / never), because fsync
// cost dominates ingest throughput. Open tolerates a torn final record —
// the tail a crash mid-write leaves behind — by truncating it; Replay
// skips it and changes nothing. Any other framing or checksum damage is
// corruption and is reported with the file, record index and byte offset
// rather than silently skipped.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// MaxRecord bounds one payload; larger frames indicate corruption.
const MaxRecord = 1 << 24

// FileName is the one file of a log directory. Open refuses a directory
// holding any other wal-*.seg file.
const FileName = "wal-0000000000000000.seg"

// syncEvery is the append count between fsyncs under SyncInterval.
const syncEvery = 256

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: log is closed")

// SyncPolicy selects when appends reach stable storage.
type SyncPolicy int

const (
	// SyncInterval fsyncs every 256 appends and on Close — the default:
	// bounded loss window, amortized cost.
	SyncInterval SyncPolicy = iota
	// SyncAlways fsyncs after every append: no acknowledged record is
	// ever lost, at one fsync per record.
	SyncAlways
	// SyncNever leaves flushing to the OS entirely (tests, scratch runs).
	SyncNever
)

// ParseSyncPolicy maps the CLI spelling to a policy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "interval", "":
		return SyncInterval, nil
	case "always":
		return SyncAlways, nil
	case "never":
		return SyncNever, nil
	}
	return 0, fmt.Errorf("wal: unknown sync policy %q (want always, interval or never)", s)
}

// String renders the policy in its ParseSyncPolicy spelling.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncNever:
		return "never"
	default:
		return "interval"
	}
}

// Options configures a log. The zero value is usable.
type Options struct {
	// Sync is the fsync policy.
	Sync SyncPolicy
}

// CorruptError reports an unreadable record that is not a torn tail:
// the log's contents past this point cannot be trusted.
type CorruptError struct {
	Segment string // log file path
	Index   uint64 // record index of the damaged record
	Offset  int64  // byte offset of the record's frame inside the file
	Reason  string
}

// Error formats the damage site: record index, file, byte offset.
func (e *CorruptError) Error() string {
	return fmt.Sprintf("wal: corrupt record %d at %s+%d: %s", e.Index, e.Segment, e.Offset, e.Reason)
}

// logState is the mutable state of a Log. It is owned wholesale by the
// Log's mutex — methods on logState assume the caller holds it.
type logState struct {
	f        *os.File
	o        Options
	next     uint64 // index of the next record
	unsynced int    // appends since the last fsync
	closed   bool
}

// Log is an append-only record log in one file. Safe for concurrent use.
type Log struct {
	mu sync.Mutex
	s  logState // guarded by mu
}

// logPath names the log file of dir, refusing a directory that holds any
// other wal-*.seg file: a log is one file.
func logPath(dir string) (string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", fmt.Errorf("wal: %w", err)
	}
	var segs []string
	foreign := false
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".seg") {
			segs = append(segs, name)
			foreign = foreign || name != FileName
		}
	}
	if foreign {
		return "", fmt.Errorf("wal: %s holds %s: a log is the one file %s", dir, strings.Join(segs, ", "), FileName)
	}
	return filepath.Join(dir, FileName), nil
}

// Open opens (or creates) the log in dir, creating dir if needed. A torn
// final record is truncated; a checksum or framing error anywhere before
// the tail fails the open with a CorruptError.
func Open(dir string, o Options) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	path, err := logPath(dir)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	n, valid, size, err := scan(f, nil)
	if err == nil && size > valid {
		if err = f.Truncate(valid); err != nil {
			err = fmt.Errorf("wal: truncating torn tail of %s: %w", path, err)
		}
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return &Log{s: logState{f: f, o: o, next: n}}, nil
}

// Replay hands the payload of every whole record of the log in dir to fn,
// in append order, and changes nothing on disk: a missing directory or log
// file is an error, and a torn tail ends the replay without being
// truncated. The payload is valid only until fn returns; an error from fn
// stops the replay and is returned. Records appended while Replay runs are
// not read.
func Replay(dir string, fn func(payload []byte) error) error {
	path, err := logPath(dir)
	if err != nil {
		return err
	}
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	_, _, _, err = scan(f, fn)
	return err
}

// countingReader counts consumed bytes so scan can report exact offsets.
type countingReader struct {
	r *bufio.Reader
	n int64
}

func (c *countingReader) ReadByte() (byte, error) {
	b, err := c.r.ReadByte()
	if err == nil {
		c.n++
	}
	return b, err
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

var errCRC = errors.New("checksum mismatch")

// readFrame reads one record frame from c into buf (grown as needed),
// verifying length bounds and the checksum; size is the file length. It
// returns the payload or an io.EOF/io.ErrUnexpectedEOF/crc error; the
// caller classifies torn vs corrupt. A frame the file ends inside is
// io.ErrUnexpectedEOF before its declared length sizes anything.
func readFrame(c *countingReader, buf []byte, size int64) ([]byte, error) {
	length, err := binary.ReadUvarint(c)
	if err != nil {
		return nil, err
	}
	if length > MaxRecord {
		return nil, fmt.Errorf("absurd record length %d", length)
	}
	if int64(length)+4 > size-c.n {
		return nil, io.ErrUnexpectedEOF
	}
	var crcb [4]byte
	if _, err := io.ReadFull(c, crcb[:]); err != nil {
		return nil, err
	}
	if uint64(cap(buf)) < length {
		buf = make([]byte, length)
	}
	buf = buf[:length]
	if _, err := io.ReadFull(c, buf); err != nil {
		return nil, err
	}
	if crc32.Checksum(buf, castagnoli) != binary.LittleEndian.Uint32(crcb[:]) {
		return nil, errCRC
	}
	return buf, nil
}

// scan reads the log file f from its start through a buffered reader,
// handing each record's payload to fn when it is non-nil. It returns the
// record count, the byte size of the whole-record prefix and the file
// size. An incomplete final frame, or a checksum mismatch on the very
// last frame, is a torn tail and ends the prefix; any other damage is a
// CorruptError.
func scan(f *os.File, fn func([]byte) error) (n uint64, valid, size int64, err error) {
	st, err := f.Stat()
	if err != nil {
		return 0, 0, 0, fmt.Errorf("wal: %w", err)
	}
	size = st.Size()
	c := &countingReader{r: bufio.NewReaderSize(io.LimitReader(f, size), 64<<10)}
	var buf []byte
	for {
		start := c.n
		payload, rerr := readFrame(c, buf, size)
		if rerr == io.EOF && c.n == start {
			return n, start, size, nil // clean end
		}
		if rerr != nil {
			if rerr == io.EOF || rerr == io.ErrUnexpectedEOF || (rerr == errCRC && c.n == size) {
				return n, start, size, nil
			}
			return n, start, size, &CorruptError{Segment: f.Name(), Index: n, Offset: start, Reason: rerr.Error()}
		}
		if fn != nil {
			if err := fn(payload); err != nil {
				return n, start, size, err
			}
		}
		buf = payload
		n++
	}
}

// Append writes one record and returns its index. Durability follows the
// sync policy; Sync forces it.
func (l *Log) Append(payload []byte) (uint64, error) {
	if len(payload) > MaxRecord {
		return 0, fmt.Errorf("wal: record of %d bytes exceeds MaxRecord", len(payload))
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	s := &l.s
	if s.closed {
		return 0, ErrClosed
	}
	var hdr [binary.MaxVarintLen64 + 4]byte
	n := binary.PutUvarint(hdr[:], uint64(len(payload)))
	binary.LittleEndian.PutUint32(hdr[n:], crc32.Checksum(payload, castagnoli))
	n += 4
	if _, err := s.f.Write(hdr[:n]); err != nil {
		return 0, fmt.Errorf("wal: %w", err)
	}
	if _, err := s.f.Write(payload); err != nil {
		return 0, fmt.Errorf("wal: %w", err)
	}
	idx := s.next
	s.next++
	s.unsynced++
	if s.o.Sync == SyncAlways || (s.o.Sync == SyncInterval && s.unsynced >= syncEvery) {
		if err := s.sync(); err != nil {
			return 0, err
		}
	}
	return idx, nil
}

func (s *logState) sync() error {
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	s.unsynced = 0
	return nil
}

// Sync forces the log to stable storage.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.s.closed {
		return ErrClosed
	}
	return l.s.sync()
}

// Next returns the index the next appended record will get — the count of
// records in the log.
func (l *Log) Next() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.s.next
}

// Close syncs and closes the log.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := &l.s
	if s.closed {
		return nil
	}
	s.closed = true
	if s.o.Sync != SyncNever {
		if err := s.f.Sync(); err != nil {
			s.f.Close()
			return fmt.Errorf("wal: %w", err)
		}
	}
	return s.f.Close()
}
