package remote

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/local"
	"repro/internal/record"
	"repro/internal/tokens"
	"repro/internal/window"
	"repro/internal/wire"
)

// flowWorkload returns n identical records under a count window of 4, so
// that every record past the fourth emits 4 results, and how many results
// a session emits for each record, counted by a local replay.
func flowWorkload(n int) (Session, []*record.Record, []int) {
	sess := testSession(0.7, "broadcast", nil)
	sess.Window = window.Count{N: 4}
	recs := make([]*record.Record, n)
	for i := range recs {
		recs[i] = &record.Record{ID: record.ID(i), Time: int64(i), Tokens: []tokens.Rank{1, 2, 3}}
	}
	j := local.New(sess.Algorithm, local.Options{Params: sess.Params, Window: sess.Window})
	per := make([]int, n)
	for i, r := range recs {
		j.Step(r, true, func(local.Match) { per[i]++ })
	}
	return sess, recs, per
}

// fakeCoord is the coordinator end of one worker session over net.Pipe:
// it sends what the test tells it to and acknowledges nothing on its own.
type fakeCoord struct {
	w       *wire.Writer
	acks    chan [2]uint64 // ResumeAck: next ID, credit
	grants  chan uint64    // each record-credit grant
	results chan int       // the result count of each Result or Count frame
	counts  chan uint64    // the first result number of each Count frame
	stats   chan struct{}
	session chan error // the worker session's return
}

// startFlowSession runs HandleSessionOpts on one end of a pipe and sends h
// from the other.
func startFlowSession(t *testing.T, h wire.Hello, o WorkerOpts) *fakeCoord {
	t.Helper()
	checkNoLeaks(t)
	srv, cli := net.Pipe()
	// The reader must never block on the test: a blocked reader stops the
	// pipe, and with it the worker. The tests send at most 40 000 records,
	// so there are fewer grants than 1<<10 and Result or Count frames than
	// 1<<16.
	c := &fakeCoord{
		w:       wire.NewWriter(cli),
		acks:    make(chan [2]uint64, 1),
		grants:  make(chan uint64, 1<<10),
		results: make(chan int, 1<<16),
		counts:  make(chan uint64, 1<<16),
		stats:   make(chan struct{}, 1),
		session: make(chan error, 1),
	}
	go func() {
		err := HandleSessionOpts(context.Background(), srv, srv, o)
		srv.Close()
		c.session <- err
	}()
	readDone := make(chan struct{})
	go func() {
		defer close(readDone)
		rd := wire.NewReader(cli)
		var batch []wire.Result
		for {
			typ, err := rd.Next()
			if err != nil {
				return
			}
			switch typ {
			case wire.TypeResumeAck:
				next, credit, err := rd.ReadResumeAck()
				if err != nil {
					return
				}
				c.acks <- [2]uint64{next, credit}
			case wire.TypeCredit:
				n, err := rd.ReadCredit()
				if err != nil {
					return
				}
				c.grants <- n
			case wire.TypeResult:
				if batch, err = readResults(rd, batch[:0]); err != nil {
					return
				}
				c.results <- len(batch)
			case wire.TypeCount:
				first, n, err := wire.DecodeCount(rd.Payload())
				if err != nil {
					return
				}
				c.counts <- first
				c.results <- int(n)
			case wire.TypeStats:
				c.stats <- struct{}{}
			}
		}
	}()
	t.Cleanup(func() {
		cli.Close()
		srv.Close()
		<-readDone
	})
	if err := c.w.WriteHello(h); err != nil {
		t.Fatal(err)
	}
	if err := c.w.Flush(); err != nil {
		t.Fatal(err)
	}
	return c
}

// durableHello is the hello of an FT session over sess, which buffers its
// results until they are acknowledged as a durable one did before protocol
// version 8.
func durableHello(t *testing.T, sess Session, resume bool) wire.Hello {
	t.Helper()
	checkNoLeaks(t)
	h, err := sess.hello(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	h.FT, h.Resume = true, resume
	h.SessionID = 0xF10
	return h
}

func (c *fakeCoord) resumeAck(t *testing.T) (next, credit uint64) {
	t.Helper()
	select {
	case a := <-c.acks:
		return a[0], a[1]
	case err := <-c.session:
		t.Fatalf("session ended before its resume ack: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("no resume ack")
	}
	return 0, 0
}

// awaitResults adds up Result and Count frames until want results have
// arrived.
func (c *fakeCoord) awaitResults(t *testing.T, got *int, want int, why string) {
	t.Helper()
	for *got < want {
		select {
		case n := <-c.results:
			*got += n
		case <-time.After(10 * time.Second):
			t.Fatalf("%d of %d results on the wire: %s", *got, want, why)
		}
	}
}

// awaitGrant returns the next record-credit grant, or false when none
// arrives within d.
func (c *fakeCoord) awaitGrant(d time.Duration) (uint64, bool) {
	select {
	case g := <-c.grants:
		return g, true
	case <-time.After(d):
		return 0, false
	}
}

// finish ends the record stream and requires a clean session end.
func (c *fakeCoord) finish(t *testing.T) {
	t.Helper()
	if err := c.w.WriteEOF(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-c.stats:
	case <-time.After(10 * time.Second):
		t.Fatal("no stats after EOF")
	}
	if err := <-c.session; err != nil {
		t.Fatalf("session: %v", err)
	}
}

// TestUnackedBufferBound tries to overrun a durable session's unacked
// buffer: the coordinator spends every record credit it gets and never
// acknowledges a result. The worker must stop granting credit, consume at
// most workerRecordWindow records once its buffer reaches unackedHigh, and
// have flushed every result, so that one acknowledgement brings the
// withheld window back without a heartbeat. A CountOnly session, whose
// results are one number, buffers nothing and is never held back.
func TestUnackedBufferBound(t *testing.T) {
	t.Run("count-only=false", testUnackedBufferBound)
	t.Run("count-only=true", testCountingNeverWithholds)
}

func testUnackedBufferBound(t *testing.T) {
	const limit = 40000
	sess, recs, per := flowWorkload(limit)
	cum := make([]int, limit+1) // cum[n]: results of the first n records
	maxPer, cross := 0, 0
	for i, n := range per {
		cum[i+1] = cum[i] + n
		maxPer = max(maxPer, n)
		if cross == 0 && cum[i+1] >= unackedHigh {
			cross = i + 1
		}
	}
	mon := &Monitor{}
	h := durableHello(t, sess, false)
	c := startFlowSession(t, h, WorkerOpts{Mon: mon, Logf: silentLogf, CheckpointDir: t.TempDir()})
	_, credit := c.resumeAck(t)
	if credit != workerRecordWindow {
		t.Fatalf("fresh session granted %d records, want %d", credit, workerRecordWindow)
	}

	sent, received := 0, 0
	for {
		for drained := false; !drained; {
			select {
			case g := <-c.grants:
				credit += g
			default:
				drained = true
			}
		}
		if n := min(int(credit), limit-sent); n > 0 {
			for _, r := range recs[sent : sent+n] {
				if err := c.w.WriteRecord(true, r); err != nil {
					t.Fatal(err)
				}
			}
			if err := c.w.Flush(); err != nil {
				t.Fatal(err)
			}
			credit -= uint64(n)
			sent += n
			continue
		}
		if sent == limit {
			t.Fatalf("the worker granted credit for all %d records: it never withheld", limit)
		}
		c.awaitResults(t, &received, cum[sent], "a worker out of grants must have flushed its results")
		g, ok := c.awaitGrant(300 * time.Millisecond)
		if !ok {
			break
		}
		credit += g
	}

	if sent-cross > workerRecordWindow {
		t.Errorf("the worker consumed %d records after its buffer reached %d, want at most %d",
			sent-cross, unackedHigh, workerRecordWindow)
	}
	bound := unackedHigh + workerRecordWindow*maxPer
	t.Logf("%d records sent, buffer at %d after record %d, %d results unacked of a bound of %d",
		sent, unackedHigh, cross, cum[sent], bound)
	if peak := mon.UnackedResults.Load(); peak != int64(cum[sent]) || peak > int64(bound) {
		t.Errorf("unacked gauge peaked at %d (results emitted %d), want at most %d", peak, cum[sent], bound)
	}

	// One acknowledgement of everything received: the worker is back under
	// unackedLow and returns the whole withheld window at once.
	if err := c.w.WriteCredit(uint64(received)); err != nil {
		t.Fatal(err)
	}
	g, ok := c.awaitGrant(10 * time.Second)
	if !ok {
		t.Fatal("no credit grant after acknowledging every result")
	}
	if g != workerRecordWindow {
		t.Errorf("grant after the acknowledgement = %d, want the withheld %d", g, workerRecordWindow)
	}
	if n := mon.UnackedResults.Load(); n != 0 {
		t.Errorf("unacked gauge %d after acknowledging every result", n)
	}
	c.finish(t)
}

// testCountingNeverWithholds sends a counting session 40 000 records, far
// past unackedHigh results, and acknowledges none of them: the worker must
// return the credit of every half window, keep its unacked gauge at 0,
// and count every result.
func testCountingNeverWithholds(t *testing.T) { neverWithholds(t, true) }

// TestCollectingWithoutCheckpointNeverWithholds: a collecting FT session
// on a worker without a CheckpointDir writes no checkpoint, so a reconnect
// restarts it from its first record and the coordinator drops every
// replayed result by its number. It buffers no pair and never withholds
// credit, however many results go unacknowledged.
func TestCollectingWithoutCheckpointNeverWithholds(t *testing.T) { neverWithholds(t, false) }

// neverWithholds sends 40 000 records, far past unackedHigh results, to a
// session on a worker without a CheckpointDir, counting or collecting, and
// acknowledges none of its results: the worker must return the credit of
// every half window, keep its unacked gauge at 0, and send every result.
func neverWithholds(t *testing.T, countOnly bool) {
	const limit = 40000
	sess, recs, per := flowWorkload(limit)
	want := 0
	for _, n := range per {
		want += n
	}
	mon := &Monitor{}
	h := durableHello(t, sess, false)
	h.CountOnly = countOnly
	c := startFlowSession(t, h, WorkerOpts{Mon: mon, Logf: silentLogf})
	_, credit := c.resumeAck(t)
	if credit != workerRecordWindow {
		t.Fatalf("fresh session granted %d records, want %d", credit, workerRecordWindow)
	}
	for sent := 0; sent < limit; {
		if credit == 0 {
			g, ok := c.awaitGrant(10 * time.Second)
			if !ok {
				t.Fatalf("the worker withheld credit after %d records, no result acknowledged", sent)
			}
			credit += g
			continue
		}
		n := min(int(credit), limit-sent)
		for _, r := range recs[sent : sent+n] {
			if err := c.w.WriteRecord(true, r); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.w.Flush(); err != nil {
			t.Fatal(err)
		}
		credit -= uint64(n)
		sent += n
		if g := mon.UnackedResults.Load(); g != 0 {
			t.Fatalf("unacked gauge %d after %d records (count-only %v)", g, sent, countOnly)
		}
	}
	c.finish(t)
	received := 0
	c.awaitResults(t, &received, want, "a finished session must have sent every result")
	if received != want {
		t.Errorf("%d results received, want %d", received, want)
	}
	if g := mon.UnackedResults.Load(); g != 0 {
		t.Errorf("unacked gauge %d after the session (count-only %v)", g, countOnly)
	}
}

// TestResumeAtUnackedBoundGrantsNoCredit: a session restored with
// unackedHigh unacked results answers the resume with zero record credit,
// flushes the re-sent results, and grants the window once they are
// acknowledged; one result fewer gets the full window. A CountOnly
// session's checkpoint holds its next result number alone, whose results
// it re-sends as one Count from 0, and it gets the full window however
// large that number is.
func TestResumeAtUnackedBoundGrantsNoCredit(t *testing.T) {
	sess, _, _ := flowWorkload(0)
	for _, tc := range []struct {
		unacked   int
		credit    uint64
		countOnly bool
	}{{unackedHigh - 1, workerRecordWindow, false}, {unackedHigh, 0, false},
		{unackedHigh - 1, workerRecordWindow, true}, {unackedHigh, workerRecordWindow, true}} {
		name := fmt.Sprint(tc.unacked)
		if tc.countOnly {
			name += "-count-only"
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			h := durableHello(t, sess, true)
			h.CountOnly = tc.countOnly
			meta := &checkpoint.SessionMeta{PlanHash: h.PlanHash(), Acked: uint64(tc.unacked)}
			if !tc.countOnly {
				meta.Acked, meta.Unacked = 0, make([]wire.Result, tc.unacked)
				for i := range meta.Unacked {
					meta.Unacked[i] = wire.Result{A: record.ID(i), B: record.ID(i + 1), Sim: 1}
				}
			}
			j := local.New(sess.Algorithm, local.Options{Params: sess.Params, Window: sess.Window})
			err := writeCheckpointFile(checkpointPath(dir, h.SessionID, 0), checkpoint.Cursor{NextID: 10, NextTime: 10}, j, meta)
			if err != nil {
				t.Fatal(err)
			}
			mon := &Monitor{}
			c := startFlowSession(t, h, WorkerOpts{Mon: mon, Logf: silentLogf, CheckpointDir: dir})
			next, credit := c.resumeAck(t)
			if next != 10 || credit != tc.credit {
				t.Fatalf("resume ack = (next %d, credit %d), want (10, %d)", next, credit, tc.credit)
			}
			received := 0
			if tc.credit == 0 {
				c.awaitResults(t, &received, tc.unacked, "a session withholding credit must flush its re-sent results")
				if n := mon.UnackedResults.Load(); n != int64(tc.unacked) {
					t.Errorf("unacked gauge %d after the re-send, want %d", n, tc.unacked)
				}
				if err := c.w.WriteCredit(uint64(received)); err != nil {
					t.Fatal(err)
				}
				if g, ok := c.awaitGrant(10 * time.Second); !ok || g != workerRecordWindow {
					t.Fatalf("grant after acknowledging the re-sent results = %d (%v), want %d", g, ok, workerRecordWindow)
				}
				if n := mon.UnackedResults.Load(); n != 0 {
					t.Errorf("unacked gauge %d after acknowledging the re-sent results", n)
				}
			}
			c.finish(t)
			if tc.countOnly {
				// No record was sent, so the re-sent Count is the only one.
				if len(c.counts) != 1 {
					t.Fatalf("%d Count frames from a resumed counting session, want 1", len(c.counts))
				}
				if first, n := <-c.counts, <-c.results; first != 0 || n != tc.unacked {
					t.Errorf("re-sent Count of %d results from %d, want %d from 0", n, first, tc.unacked)
				}
				if n := mon.UnackedResults.Load(); n != 0 {
					t.Errorf("unacked gauge %d in a resumed counting session", n)
				}
			}
			if mon.SessionsResumed.Load() != 1 {
				t.Error("the session did not resume from the checkpoint")
			}
		})
	}
}

// TestRetiredFlowFramesFailTheSession: every frame type a role does not
// consume fails its session with an error naming the type, on the worker
// (as its first frame, carrying a valid Hello, and after its Hello), on
// the plain coordinator (Run) and on the FT coordinator (RunFT): a frame
// the peer never sends, types 11 and 12 (the Pause and Resume of protocol
// version 6), and the unassigned bytes 0 and 255. A dispatch loop that
// skipped an unknown frame would leave the session waiting, so each
// session must fail within a bound.
func TestRetiredFlowFramesFailTheSession(t *testing.T) {
	sess := testSession(0.7, "broadcast", nil)
	recs := []*record.Record{{ID: 0, Tokens: []tokens.Rank{1, 2}}}
	all := []byte{0, 255}
	for typ := wire.TypeHello; typ <= wire.TypeCredit; typ++ {
		all = append(all, typ)
	}
	// worker runs one FT worker session over a pipe that carries raw.
	var hello bytes.Buffer
	w := wire.NewWriter(&hello)
	if err := w.WriteHello(durableHello(t, sess, false)); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	worker := func(t *testing.T, raw []byte) error {
		srv, cli := net.Pipe()
		t.Cleanup(func() { cli.Close() })
		go io.Copy(io.Discard, cli) //nolint:errcheck
		go cli.Write(raw)           //nolint:errcheck
		return returnsWithin(t, 5*time.Second, func() error {
			defer srv.Close()
			return HandleSessionOpts(context.Background(), srv, srv, WorkerOpts{Logf: silentLogf})
		})
	}
	roles := []struct {
		name     string
		consumes []byte
		session  func(t *testing.T, typ byte) error
	}{
		{"worker", []byte{wire.TypeRecord, wire.TypeEOF, wire.TypeSnapshot, wire.TypeSnapshotReq, wire.TypePing, wire.TypeCredit}, func(t *testing.T, typ byte) error {
			return worker(t, append(slices.Clone(hello.Bytes()), typ, 0))
		}},
		// A session's first frame must be a Hello, whatever it carries.
		{"handshake", []byte{wire.TypeHello}, func(t *testing.T, typ byte) error {
			frame := slices.Clone(hello.Bytes())
			frame[0] = typ
			return worker(t, frame)
		}},
		{"run", []byte{wire.TypeResult, wire.TypeStats}, func(t *testing.T, typ byte) error {
			conn := rogueWorker(t, typ)
			return returnsWithin(t, 5*time.Second, func() error {
				_, err := Run(context.Background(), []io.ReadWriter{conn}, sess, recs, false)
				return err
			})
		}},
		{"coordinator", []byte{wire.TypeResumeAck, wire.TypeResult, wire.TypeCredit, wire.TypePong, wire.TypeStats}, func(t *testing.T, typ byte) error {
			dial := func(context.Context, int) (io.ReadWriteCloser, error) { return rogueWorker(t, typ), nil }
			ft := fastFT(0xF11)
			ft.Retry.MaxAttempts = 0
			return returnsWithin(t, 5*time.Second, func() error {
				_, err := RunFT(context.Background(), dial, 1, sess, recs, Opts{}, ft)
				return err
			})
		}},
	}
	for _, role := range roles {
		for _, typ := range all {
			if slices.Contains(role.consumes, typ) {
				continue
			}
			t.Run(fmt.Sprintf("%s/%d", role.name, typ), func(t *testing.T) {
				checkNoLeaks(t)
				if err := role.session(t, typ); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("frame type %d", typ)) {
					t.Fatalf("%s session after a type-%d frame: %v", role.name, typ, err)
				}
			})
		}
	}
}

// rogueWorker is one connection, over net.Pipe, to a worker that answers
// the hello (an FT one with a resume ack from scratch), sends one empty
// frame of type typ, and then drops whatever the coordinator sends until
// the test ends.
func rogueWorker(t *testing.T, typ byte) io.ReadWriteCloser {
	srv, cli := net.Pipe()
	done := make(chan struct{})
	t.Cleanup(func() { cli.Close(); <-done })
	go func() {
		defer close(done)
		defer srv.Close()
		rd := wire.NewReader(srv)
		if typ, err := rd.Next(); err != nil || typ != wire.TypeHello {
			return
		}
		h, err := rd.ReadHello()
		if err != nil {
			return
		}
		if h.FT && wire.NewWriter(srv).WriteResumeAck(0, workerRecordWindow) != nil {
			return
		}
		if _, err := srv.Write([]byte{typ, 0}); err != nil {
			return
		}
		io.Copy(io.Discard, rd.Rest()) //nolint:errcheck
	}()
	return cli
}
