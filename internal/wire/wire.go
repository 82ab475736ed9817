// Package wire defines the binary protocol between the join coordinator
// and remote workers: length-delimited frames with a one-byte type,
// varint-encoded payloads, and delta-encoded token sets (tokens are sorted
// ascending, so gaps are small and compress well).
//
// Frame layout:
//
//	[type: 1 byte][payload length: uvarint][payload]
//
// The protocol is request/response-free on the data path: the coordinator
// streams Hello, Record... , EOF; the worker streams Result..., Stats, and
// closes. Both sides therefore run one reader and one writer goroutine
// with no locking. Fault-tolerant sessions (Hello flag FT) add control
// frames outside the data path: Ping/Pong liveness probes, the ResumeAck
// answer to the Hello, and the Credit flow-control frame.
package wire

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"repro/internal/record"
	"repro/internal/tokens"
)

// Frame types. Each constant declares its consumer with a handled-by
// marker; the wirestate analyzer verifies that every declared role has a
// matching arm in an annotated dispatch switch (or a wire-handled site).
const (
	TypeHello  byte = iota + 1 // handled-by: worker
	TypeRecord                 // handled-by: worker
	TypeResult                 // handled-by: coordinator
	// TypeEOF ends the coordinator's record stream; payload-free, the
	// worker reacts to the frame type alone. handled-by: worker
	TypeEOF
	TypeStats // handled-by: coordinator
	// TypeSnapshot carries an opaque checkpoint blob: coordinator→worker
	// right after Hello to seed the window, or worker→coordinator after
	// Stats when the coordinator ended the stream with TypeSnapshotReq.
	// handled-by: coordinator,worker
	TypeSnapshot
	// TypeSnapshotReq replaces TypeEOF when the coordinator wants the
	// worker's window state back; payload-free like TypeEOF.
	// handled-by: worker
	TypeSnapshotReq
	// TypePing is a coordinator→worker liveness probe; payload-free and
	// flushed immediately so it cannot sit in the write buffer.
	// handled-by: worker
	TypePing
	// TypePong is the worker's payload-free answer to TypePing, likewise
	// flushed immediately. handled-by: coordinator
	TypePong
	// TypeResumeAck answers an FT Hello: the worker reports the stream
	// cursor it restored from its checkpoint so the coordinator can replay
	// only the tail, and grants its initial record credit. Payload is two
	// uvarints — the next record ID the worker expects (0 = nothing
	// restored, replay all) and the credit window. handled-by: coordinator
	TypeResumeAck
	// Values 11 and 12 were the Pause and Resume frames of protocol
	// version 6, retired in version 7: record credit is the only flow
	// control, and a peer that sends either fails the session.
	_
	_
	// TypeCredit grants flow-control credit; payload is one uvarint
	// delta. Worker→coordinator it means "I processed n more records; send
	// n more". Coordinator→worker it acknowledges n more results as
	// received (and, in a durable run, persisted to the results log),
	// letting the worker drop them from its unacknowledged-result buffer.
	// Credits are per-connection and reset at each handshake.
	// handled-by: coordinator,worker
	TypeCredit
)

// Version is the protocol version carried in Hello, and the only one a
// peer accepts (ReadHello rejects any other). It covers the FT handshake
// (session ID, FT/Resume flags, the partition-plan hash, the two-field
// ResumeAck), the Ping/Pong/Credit frames, Result frames that carry every
// pair of one probe (version 5), Record frames whose flags are the store
// and side bits alone (version 6: the trace annotation is gone, and a
// decoder refuses any other bit), credit as the only flow control
// (version 7: the Pause and Resume frames are gone), and one FT protocol
// (version 8: every FT session acknowledges its results, the Durable flag
// is gone, and a decoder refuses any Hello flag bit it does not know), and
// numbered results (version 9: a Result frame carries the number of its
// first pair in the session's result sequence).
const Version = 9

// MaxFrame bounds a frame payload; larger frames indicate corruption.
const MaxFrame = 1 << 24

// ErrFrameTooLarge is returned when a frame exceeds MaxFrame.
var ErrFrameTooLarge = errors.New("wire: frame exceeds maximum size")

// Hello configures a worker for one join session.
type Hello struct {
	Version   int
	Task      int // this worker's task index
	Workers   int // total worker count
	Func      int // similarity.Func
	Threshold float64
	Algorithm int // local.Algorithm
	// Window: 0 unbounded, 1 count, 2 time; N is the size/span.
	WindowKind int
	WindowN    int64
	// Strategy: 0 length, 1 prefix, 2 broadcast. Bounds carries the
	// length partition for strategy 0.
	Strategy int
	Bounds   []int
	// Bundle config.
	GroupThreshold float64
	MaxMembers     int
	OneByOne       bool
	// Bi marks a two-stream session: records carry a side flag and match
	// only across sides.
	Bi bool
	// FT marks a fault-tolerant session: the coordinator may ping, record
	// IDs are strictly increasing per connection (so the worker can drop
	// duplicates), and the worker checkpoints its window for recovery.
	FT bool
	// Resume asks the worker to restore the checkpoint saved under
	// SessionID/Task before answering with a ResumeAck frame.
	Resume bool
	// SessionID names the run across reconnects; FT checkpoints are keyed
	// by it. Zero for non-FT sessions.
	SessionID uint64
	// PlanHash fingerprints the session's launch configuration (partition
	// plan, strategy, similarity parameters). A resuming worker compares it
	// against its checkpoint and rejects a mismatch — the checkpoint belongs
	// to a different plan and would replay wrong-range records. Zero for
	// non-FT sessions.
	PlanHash uint64
}

// The Hello flag bits; a decoder refuses any other. Bit 4 (16) was the
// Durable flag of protocol version 7.
const (
	helloOneByOne byte = 1 << iota
	helloBi
	helloFT
	helloResume
)

// Record is a routed record copy with its storage role and, for
// two-stream sessions, its side.
type Record struct {
	Store bool
	Right bool
	Rec   *record.Record
}

// The Record frame's flag bits; a decoder refuses any other.
const (
	recordStore byte = 1 << iota
	recordRight
)

// Result is one verified pair. A Result frame carries the pairs of one
// probe: the number of its first pair (a session numbers its pairs 0, 1,
// 2, … in the order it writes them), the probe's ID, then each partner as
// its distance from it, so a decoded pair names its IDs in ascending order
// (A ≤ B) whichever was the probe.
type Result struct {
	A, B record.ID
	Sim  float64
}

// Stats carries a worker's final work counters back to the coordinator.
type Stats struct {
	Probes, Stored, Scanned, Candidates, Verified, Results, VerifySteps, Postings uint64
}

// Writer frames and buffers outbound messages. Not safe for concurrent
// use.
type Writer struct {
	w       *bufio.Writer
	buf     []byte
	tmp     [binary.MaxVarintLen64]byte
	results uint64 // the number of the next result pair WriteResults writes
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriterSize(w, 64<<10)}
}

func (w *Writer) putUvarint(v uint64) {
	n := binary.PutUvarint(w.tmp[:], v)
	w.buf = append(w.buf, w.tmp[:n]...)
}

func (w *Writer) putVarint(v int64) {
	n := binary.PutVarint(w.tmp[:], v)
	w.buf = append(w.buf, w.tmp[:n]...)
}

func (w *Writer) putFloat(f float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
	w.buf = append(w.buf, b[:]...)
}

func (w *Writer) flushFrame(typ byte) error {
	if len(w.buf) > MaxFrame {
		return ErrFrameTooLarge
	}
	if err := w.w.WriteByte(typ); err != nil {
		return err
	}
	n := binary.PutUvarint(w.tmp[:], uint64(len(w.buf)))
	if _, err := w.w.Write(w.tmp[:n]); err != nil {
		return err
	}
	_, err := w.w.Write(w.buf)
	w.buf = w.buf[:0]
	return err
}

// WriteHello sends the session handshake.
func (w *Writer) WriteHello(h Hello) error {
	w.putUvarint(uint64(h.Version))
	w.putUvarint(uint64(h.Task))
	w.putUvarint(uint64(h.Workers))
	w.putUvarint(uint64(h.Func))
	w.putFloat(h.Threshold)
	w.putUvarint(uint64(h.Algorithm))
	w.putUvarint(uint64(h.WindowKind))
	w.putVarint(h.WindowN)
	w.putUvarint(uint64(h.Strategy))
	w.putUvarint(uint64(len(h.Bounds)))
	for _, b := range h.Bounds {
		w.putUvarint(uint64(b))
	}
	w.putFloat(h.GroupThreshold)
	w.putUvarint(uint64(h.MaxMembers))
	var flags byte
	if h.OneByOne {
		flags |= helloOneByOne
	}
	if h.Bi {
		flags |= helloBi
	}
	if h.FT {
		flags |= helloFT
	}
	if h.Resume {
		flags |= helloResume
	}
	w.buf = append(w.buf, flags)
	w.putUvarint(h.SessionID)
	w.putUvarint(h.PlanHash)
	return w.flushFrame(TypeHello)
}

// WriteRecord sends one routed record copy. Tokens must be sorted
// ascending (they are delta-encoded).
func (w *Writer) WriteRecord(store bool, r *record.Record) error {
	return w.WriteRecordSide(store, false, r)
}

// WriteRecordSide is WriteRecord with the two-stream side flag.
func (w *Writer) WriteRecordSide(store, right bool, r *record.Record) error {
	var flags byte
	if store {
		flags |= recordStore
	}
	if right {
		flags |= recordRight
	}
	w.buf = append(w.buf, flags)
	w.putUvarint(uint64(r.ID))
	w.putVarint(r.Time)
	w.putUvarint(uint64(len(r.Tokens)))
	prev := uint64(0)
	for _, t := range r.Tokens {
		w.putUvarint(uint64(t) - prev)
		prev = uint64(t)
	}
	return w.flushFrame(TypeRecord)
}

// WriteResult sends one verified pair: the one-pair case of WriteResults,
// with A as the probe.
func (w *Writer) WriteResult(res Result) error {
	return w.WriteResults(res.A, []Result{res})
}

// SetResultNumber sets the number WriteResults gives the next pair it
// writes; a Writer starts at 0.
func (w *Writer) SetResultNumber(n uint64) { w.results = n }

// WriteResults sends the pairs one probe produced as one Result frame, or
// as several when there are more than one frame holds (framePairs); a
// reader adds the frames up either way. A probe split over frames is first
// sorted in place by partner ID, so that its frames hold the same pairs
// whatever order they came in. Every pair must hold probe as its A or its
// B; a partner more than 2^63 IDs away from probe is an error, and the
// frame that would hold it is not sent.
func (w *Writer) WriteResults(probe record.ID, rs []Result) error {
	if len(rs) > framePairs {
		slices.SortFunc(rs, func(x, y Result) int { return cmp.Compare(partner(x, probe), partner(y, probe)) })
	}
	for {
		chunk := rs[:min(len(rs), framePairs)]
		var err error
		if w.buf, err = appendResults(w.buf, w.results, probe, chunk); err != nil {
			w.buf = w.buf[:0]
			return err
		}
		if err := w.flushFrame(TypeResult); err != nil {
			return err
		}
		w.results += uint64(len(chunk))
		if rs = rs[len(chunk):]; len(rs) == 0 {
			return nil
		}
	}
}

// WriteProbes sends rs, the pairs of successive probes of a self-join, as
// WriteResults sends each probe's: a probe's pairs are a run of pairs with
// the same B, since a pair is found while probing its later record.
func (w *Writer) WriteProbes(rs []Result) error {
	for len(rs) > 0 {
		n := 1
		for n < len(rs) && rs[n].B == rs[0].B {
			n++
		}
		if err := w.WriteResults(rs[0].B, rs[:n]); err != nil {
			return err
		}
		rs = rs[n:]
	}
	return nil
}

// partner is the ID r pairs with probe.
func partner(r Result, probe record.ID) record.ID {
	if r.B == probe {
		return r.A
	}
	return r.B
}

// Result-frame decode errors. They are values, not built per call, so the
// decode loop allocates nothing even on hostile bytes.
var (
	errResultTruncated = errors.New("wire: truncated result frame")
	errResultCount     = errors.New("wire: result pair count exceeds the payload")
	errResultTrailing  = errors.New("wire: bytes after the last result pair")
	errResultNotOne    = errors.New("wire: result frame does not hold exactly one pair")
	errResultNumber    = errors.New("wire: result numbers past 2^64-1")
	errPartnerRange    = errors.New("wire: result partner ID outside the ID range")
)

// minPairBytes is the smallest encoded pair: a one-byte distance and the
// similarity.
const minPairBytes = 1 + 8

// maxPairBytes is the largest encoded pair: a ten-byte distance and the
// similarity.
const maxPairBytes = binary.MaxVarintLen64 + 8

// framePairs caps the pairs of one Result frame so that its payload stays
// within MaxFrame even at maxPairBytes a pair behind a ten-byte number,
// probe and count. A variable only so that tests can split a probe's pairs
// without a million of them.
var framePairs = (MaxFrame - 3*binary.MaxVarintLen64) / maxPairBytes

// appendResults appends a Result payload to b: first (the number of the
// first pair), probe and the pair count as uvarints, then per pair the
// zigzag distance from probe to the partner and the similarity as 8
// little-endian bytes.
func appendResults(b []byte, first uint64, probe record.ID, rs []Result) ([]byte, error) {
	b = binary.AppendUvarint(b, first)
	b = binary.AppendUvarint(b, uint64(probe))
	b = binary.AppendUvarint(b, uint64(len(rs)))
	for _, r := range rs {
		partner := partner(r, probe)
		// Zigzag: distance d ≥ 0 is 2d, distance −m is 2m − 1 (which wraps
		// to 2^64 − 1 for m = 2^63, the farthest partner below).
		var zz uint64
		if partner >= probe {
			d := uint64(partner - probe)
			if d > math.MaxInt64 {
				return b, errPartnerRange
			}
			zz = d << 1
		} else {
			m := uint64(probe - partner)
			if m > 1<<63 {
				return b, errPartnerRange
			}
			zz = m<<1 - 1
		}
		b = binary.AppendUvarint(b, zz)
		u := math.Float64bits(r.Sim)
		b = append(b, byte(u), byte(u>>8), byte(u>>16), byte(u>>24),
			byte(u>>32), byte(u>>40), byte(u>>48), byte(u>>56))
	}
	return b, nil
}

// WriteEOF signals end of stream.
func (w *Writer) WriteEOF() error {
	if err := w.flushFrame(TypeEOF); err != nil {
		return err
	}
	return w.Flush()
}

// WriteStats sends the worker's final counters.
func (w *Writer) WriteStats(s Stats) error {
	for _, v := range []uint64{s.Probes, s.Stored, s.Scanned, s.Candidates,
		s.Verified, s.Results, s.VerifySteps, s.Postings} {
		w.putUvarint(v)
	}
	if err := w.flushFrame(TypeStats); err != nil {
		return err
	}
	return w.Flush()
}

// WriteSnapshot sends an opaque checkpoint blob.
func (w *Writer) WriteSnapshot(blob []byte) error {
	w.buf = append(w.buf, blob...)
	if err := w.flushFrame(TypeSnapshot); err != nil {
		return err
	}
	return w.Flush()
}

// WriteSnapshotReq ends the record stream like WriteEOF but asks the
// worker to append its window snapshot after the stats frame.
func (w *Writer) WriteSnapshotReq() error {
	if err := w.flushFrame(TypeSnapshotReq); err != nil {
		return err
	}
	return w.Flush()
}

// WritePing sends a liveness probe and flushes it to the connection so the
// peer sees it immediately.
func (w *Writer) WritePing() error {
	if err := w.flushFrame(TypePing); err != nil {
		return err
	}
	return w.Flush()
}

// WritePong answers a ping; flushed like WritePing.
func (w *Writer) WritePong() error {
	if err := w.flushFrame(TypePong); err != nil {
		return err
	}
	return w.Flush()
}

// WriteResumeAck answers an FT Hello: nextID is the first record ID the
// worker has NOT yet seen (0 when no checkpoint was restored) and credit
// the initial record-credit window. Flushed so the coordinator can start
// its replay without waiting for buffer pressure.
func (w *Writer) WriteResumeAck(nextID, credit uint64) error {
	w.putUvarint(nextID)
	w.putUvarint(credit)
	if err := w.flushFrame(TypeResumeAck); err != nil {
		return err
	}
	return w.Flush()
}

// WriteCredit grants delta units of flow-control credit; flushed so the
// peer can act on it immediately.
func (w *Writer) WriteCredit(delta uint64) error {
	w.putUvarint(delta)
	if err := w.flushFrame(TypeCredit); err != nil {
		return err
	}
	return w.Flush()
}

// Flush drains the buffered writer to the connection.
func (w *Writer) Flush() error { return w.w.Flush() }

// Reader parses inbound frames. Not safe for concurrent use.
type Reader struct {
	r   *bufio.Reader
	buf []byte
}

// NewReader wraps r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReaderSize(r, 64<<10)}
}

// Next reads the next frame, returning its type and leaving the payload
// staged for the matching Read* call. io.EOF is returned at a clean
// connection end.
func (r *Reader) Next() (byte, error) {
	typ, err := r.r.ReadByte()
	if err != nil {
		return 0, err
	}
	n, err := binary.ReadUvarint(r.r)
	if err != nil {
		return 0, frameErr(err)
	}
	if n > MaxFrame {
		return 0, ErrFrameTooLarge
	}
	// The body is read into the buffer in place; the buffer grows only as
	// the body arrives, doubling each time the bytes read so far fill it.
	// A frame that fits takes one read and no allocation. A header that
	// declares a large frame costs memory only for bytes the peer really
	// sent, and frames of rising size (a probe's pairs) do not reallocate
	// at every new largest frame.
	r.buf = r.buf[:0]
	for len(r.buf) < int(n) {
		if len(r.buf) == cap(r.buf) {
			r.buf = slices.Grow(r.buf, min(max(cap(r.buf), 4<<10), MaxFrame-len(r.buf)))
		}
		m, err := io.ReadFull(r.r, r.buf[len(r.buf):min(cap(r.buf), int(n))])
		r.buf = r.buf[:len(r.buf)+m]
		if err != nil {
			return 0, frameErr(err)
		}
	}
	return typ, nil
}

// Rest returns the stream after the last frame Next read: the bytes the
// Reader buffered ahead, then the rest of the source. It lets frames
// prefix a stream that another decoder reads on.
func (r *Reader) Rest() io.Reader { return r.r }

// frameErr converts an EOF mid-frame into ErrUnexpectedEOF so that callers
// can distinguish clean stream end (io.EOF from Next's first byte) from a
// truncated frame.
func frameErr(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

type payload struct {
	b []byte
	i int
}

func (p *payload) uvarint() (uint64, error) {
	v, n := binary.Uvarint(p.b[p.i:])
	if n <= 0 {
		return 0, errors.New("wire: truncated uvarint")
	}
	p.i += n
	return v, nil
}

func (p *payload) varint() (int64, error) {
	v, n := binary.Varint(p.b[p.i:])
	if n <= 0 {
		return 0, errors.New("wire: truncated varint")
	}
	p.i += n
	return v, nil
}

func (p *payload) float() (float64, error) {
	if p.i+8 > len(p.b) {
		return 0, errors.New("wire: truncated float")
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(p.b[p.i:]))
	p.i += 8
	return v, nil
}

func (p *payload) byte() (byte, error) {
	if p.i >= len(p.b) {
		return 0, errors.New("wire: truncated byte")
	}
	b := p.b[p.i]
	p.i++
	return b, nil
}

// ReadHello decodes a staged Hello frame.
func (r *Reader) ReadHello() (Hello, error) {
	p := payload{b: r.buf}
	var h Hello
	var err error
	get := func() uint64 {
		if err != nil {
			return 0
		}
		var v uint64
		v, err = p.uvarint()
		return v
	}
	h.Version = int(get())
	h.Task = int(get())
	h.Workers = int(get())
	h.Func = int(get())
	if err == nil {
		h.Threshold, err = p.float()
	}
	h.Algorithm = int(get())
	h.WindowKind = int(get())
	if err == nil {
		h.WindowN, err = p.varint()
	}
	h.Strategy = int(get())
	nb := int(get())
	if err != nil {
		return h, err
	}
	// Each bound takes at least one byte: a count the payload cannot hold
	// must not size an allocation.
	if nb < 0 || nb > len(p.b)-p.i {
		return h, fmt.Errorf("wire: bounds count %d exceeds the %d bytes left", nb, len(p.b)-p.i)
	}
	h.Bounds = make([]int, nb)
	for i := range h.Bounds {
		h.Bounds[i] = int(get())
	}
	if err == nil {
		h.GroupThreshold, err = p.float()
	}
	h.MaxMembers = int(get())
	if err != nil {
		return h, err
	}
	ob, err := p.byte()
	if err != nil {
		return h, err
	}
	h.OneByOne = ob&helloOneByOne != 0
	h.Bi = ob&helloBi != 0
	h.FT = ob&helloFT != 0
	h.Resume = ob&helloResume != 0
	if h.SessionID, err = p.uvarint(); err != nil {
		return h, err
	}
	if h.Version != Version {
		return h, fmt.Errorf("wire: protocol version %d, want %d", h.Version, Version)
	}
	if ob&^(helloOneByOne|helloBi|helloFT|helloResume) != 0 {
		return h, fmt.Errorf("wire: hello flags %#02x set an unknown bit", ob)
	}
	if h.PlanHash, err = p.uvarint(); err != nil {
		return h, err
	}
	return h, nil
}

// ReadResumeAck decodes a staged ResumeAck frame into the worker's next
// expected record ID and its initial record credit. A payload missing
// either field is a decode error.
func (r *Reader) ReadResumeAck() (nextID, credit uint64, err error) {
	p := payload{b: r.buf}
	if nextID, err = p.uvarint(); err != nil {
		return 0, 0, err
	}
	if credit, err = p.uvarint(); err != nil {
		return 0, 0, err
	}
	return nextID, credit, nil
}

// ReadCredit decodes a staged Credit frame's delta.
func (r *Reader) ReadCredit() (uint64, error) {
	p := payload{b: r.buf}
	return p.uvarint()
}

// Frame splits one whole frame held in memory, as a Writer framed it, into
// its type and payload, a view of frame. A log of frames replays through
// it and the Decode* functions without a buffered Reader per entry.
func Frame(frame []byte) (typ byte, body []byte, err error) {
	if len(frame) == 0 {
		return 0, nil, io.ErrUnexpectedEOF
	}
	n, k := binary.Uvarint(frame[1:])
	if k <= 0 {
		return 0, nil, errors.New("wire: truncated frame length")
	}
	if n > MaxFrame {
		return 0, nil, ErrFrameTooLarge
	}
	body = frame[1+k:]
	if uint64(len(body)) != n {
		return 0, nil, fmt.Errorf("wire: frame declares %d payload bytes, holds %d", n, len(body))
	}
	return frame[0], body, nil
}

// ReadRecord decodes a staged Record frame.
func (r *Reader) ReadRecord() (Record, error) {
	return DecodeRecord(r.buf)
}

// DecodeRecord decodes the payload of a Record frame. Flag bits other
// than store and side, and bytes after the last token, are errors.
func DecodeRecord(body []byte) (Record, error) {
	p := payload{b: body}
	st, err := p.byte()
	if err != nil {
		return Record{}, err
	}
	if st&^(recordStore|recordRight) != 0 {
		return Record{}, fmt.Errorf("wire: record flags %#02x set an unknown bit", st)
	}
	id, err := p.uvarint()
	if err != nil {
		return Record{}, err
	}
	t, err := p.varint()
	if err != nil {
		return Record{}, err
	}
	n, err := p.uvarint()
	if err != nil {
		return Record{}, err
	}
	// Each token delta takes at least one byte: a count the payload cannot
	// hold must not size an allocation.
	if n > uint64(len(p.b)-p.i) {
		return Record{}, fmt.Errorf("wire: token count %d exceeds the %d bytes left", n, len(p.b)-p.i)
	}
	toks := make([]tokens.Rank, n)
	prev := uint64(0)
	for i := range toks {
		d, err := p.uvarint()
		if err != nil {
			return Record{}, err
		}
		prev += d
		if prev > math.MaxUint32 {
			return Record{}, fmt.Errorf("wire: token overflows rank: %d", prev)
		}
		toks[i] = tokens.Rank(prev)
	}
	if p.i != len(p.b) {
		return Record{}, fmt.Errorf("wire: %d bytes after the last token", len(p.b)-p.i)
	}
	return Record{
		Store: st&recordStore != 0,
		Right: st&recordRight != 0,
		Rec:   &record.Record{ID: record.ID(id), Time: t, Tokens: toks},
	}, nil
}

// ReadResult decodes a staged Result frame that holds exactly one pair.
func (r *Reader) ReadResult() (Result, error) {
	return DecodeResult(r.buf)
}

// ReadResults appends the pairs of a staged Result frame to dst.
func (r *Reader) ReadResults(dst []Result) ([]Result, error) {
	_, dst, err := DecodeResults(dst, r.buf)
	return dst, err
}

// ReadNumberedResults appends the pairs of a staged Result frame to dst
// and returns the number of its first pair too.
func (r *Reader) ReadNumberedResults(dst []Result) (uint64, []Result, error) {
	return DecodeResults(dst, r.buf)
}

// Payload returns the staged frame's payload. It is a view of the Reader's
// buffer, valid until the next call to Next.
func (r *Reader) Payload() []byte { return r.buf }

// DecodeResult decodes the payload of a Result frame that holds exactly
// one pair; any other count is an error.
func DecodeResult(body []byte) (Result, error) {
	if _, _, n, _, err := resultHeader(body); err == nil && n != 1 {
		return Result{}, errResultNotOne
	}
	var one [1]Result
	_, rs, err := DecodeResults(one[:0], body)
	if err != nil {
		return Result{}, err
	}
	return rs[0], nil
}

// DecodeResults appends the pairs of a Result payload to dst and returns
// the number of its first pair. On an error dst comes back at its original
// length.
func DecodeResults(dst []Result, body []byte) (uint64, []Result, error) {
	first, probe, n, i, err := resultHeader(body)
	if err != nil {
		return 0, dst, err
	}
	start := len(dst)
	for ; n > 0; n-- {
		var res Result
		if res, i, err = resultPair(body, i, probe); err != nil {
			return 0, dst[:start], err
		}
		dst = append(dst, res)
	}
	if i != len(body) {
		return 0, dst[:start], errResultTrailing
	}
	return first, dst, nil
}

// resultHeader reads a Result payload's first number, probe ID and pair
// count, and the offset of its first pair. A count the remaining bytes
// cannot hold, or one that numbers a pair past 2^64 − 1, is an error here,
// before anything is sized by it.
func resultHeader(body []byte) (first, probe uint64, n, i int, err error) {
	var v [3]uint64
	for k := range v {
		x, m := binary.Uvarint(body[i:])
		if m <= 0 {
			return 0, 0, 0, 0, errResultTruncated
		}
		v[k], i = x, i+m
	}
	first, probe, count := v[0], v[1], v[2]
	if count > uint64((len(body)-i)/minPairBytes) {
		return 0, 0, 0, 0, errResultCount
	}
	if count > math.MaxUint64-first {
		return 0, 0, 0, 0, errResultNumber
	}
	return first, probe, int(count), i, nil
}

// resultPair decodes the pair at body[i:] of probe's frame and returns the
// offset after it. A distance that lands outside [0, 2^64) is an error.
func resultPair(body []byte, i int, probe uint64) (Result, int, error) {
	zz, m := binary.Uvarint(body[i:])
	if m <= 0 || len(body)-i-m < 8 {
		return Result{}, i, errResultTruncated
	}
	i += m
	var partner uint64
	if zz&1 == 0 {
		partner = probe + zz>>1
		if partner < probe {
			return Result{}, i, errPartnerRange
		}
	} else {
		m := zz>>1 + 1
		if m > probe {
			return Result{}, i, errPartnerRange
		}
		partner = probe - m
	}
	f := body[i : i+8]
	u := uint64(f[0]) | uint64(f[1])<<8 | uint64(f[2])<<16 | uint64(f[3])<<24 |
		uint64(f[4])<<32 | uint64(f[5])<<40 | uint64(f[6])<<48 | uint64(f[7])<<56
	a, b := probe, partner
	if b < a {
		a, b = b, a
	}
	return Result{A: record.ID(a), B: record.ID(b), Sim: math.Float64frombits(u)}, i + 8, nil
}

// ReadSnapshot returns a copy of a staged Snapshot frame's blob.
func (r *Reader) ReadSnapshot() []byte {
	return append([]byte(nil), r.buf...)
}

// ReadStats decodes a staged Stats frame.
func (r *Reader) ReadStats() (Stats, error) {
	p := payload{b: r.buf}
	var s Stats
	for _, dst := range []*uint64{&s.Probes, &s.Stored, &s.Scanned, &s.Candidates,
		&s.Verified, &s.Results, &s.VerifySteps, &s.Postings} {
		v, err := p.uvarint()
		if err != nil {
			return s, err
		}
		*dst = v
	}
	return s, nil
}
