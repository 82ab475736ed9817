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

	"repro/internal/record"
	"repro/internal/tokens"
	"repro/internal/wire"
)

// ftHello is the hello of an FT session over sess, for task 0 of 1.
func ftHello(t *testing.T, sess Session) wire.Hello {
	t.Helper()
	checkNoLeaks(t)
	h, err := sess.hello(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	h.FT, h.SessionID = true, 0xF10
	return h
}

// TestCreditMarksTheLastProbe: an FT worker's Credit frames name the ID
// after the last record it probed, 0 while it has only loaded, and each
// follows every result of the probes it covers: the coordinator's mark.
// Six loaded records and six probed ones, all alike, go to a worker whose
// credit returns every 4 records.
func TestCreditMarksTheLastProbe(t *testing.T) {
	setRecordWindow(t, 8)
	h := ftHello(t, testSession(0.9, "broadcast", nil))
	srv, cli := net.Pipe()
	defer cli.Close()
	done := make(chan error, 1)
	go func() {
		defer srv.Close()
		done <- HandleSessionOpts(context.Background(), srv, srv, WorkerOpts{Logf: silentLogf})
	}()
	// Each Credit as (results before it, its mark), in order.
	marks := make(chan [2]uint64, 8)
	go func() {
		defer close(marks)
		rd := wire.NewReader(cli)
		var results uint64
		for {
			typ, err := rd.Next()
			if err != nil || typ == wire.TypeStats {
				return
			}
			switch typ {
			case wire.TypeResult:
				rs, err := readResults(rd, nil)
				if err != nil {
					t.Errorf("result frame: %v", err)
					return
				}
				results += uint64(len(rs))
			case wire.TypeCredit:
				_, next, err := rd.ReadCredit()
				if err != nil {
					t.Errorf("credit frame: %v", err)
					return
				}
				marks <- [2]uint64{results, next}
			}
		}
	}()
	w := wire.NewWriter(cli)
	if err := w.WriteHello(h); err != nil {
		t.Fatal(err)
	}
	for id := record.ID(0); id < 12; id++ {
		r := &record.Record{ID: id, Time: int64(id), Tokens: matchToks}
		var err error
		if id < 6 {
			err = w.WriteLoad(false, r)
		} else {
			err = w.WriteRecord(true, r)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := w.WriteEOF(); err != nil {
		t.Fatal(err)
	}
	var got [][2]uint64
	for m := range marks {
		got = append(got, m)
	}
	if err := <-done; err != nil {
		t.Fatalf("session: %v", err)
	}
	// Record i meets the i records before it: probes 6 and 7 find 13
	// results, 8 to 11 another 38.
	want := [][2]uint64{{0, 0}, {13, 8}, {51, 12}}
	if !slices.Equal(got, want) {
		t.Errorf("credits as (results before, mark) = %v, want %v", got, want)
	}
}

// TestRetiredFlowFramesFailTheSession: every frame type a role does not
// consume fails its session with an error naming the type, on the worker
// (as its first frame, carrying a valid Hello, and after its Hello), on
// the plain coordinator (Run) and on the FT coordinator (RunFT): a frame
// the peer never sends, types 11 and 12 (the Pause and Resume of protocol
// version 6), a coordinator's Credit (the result acknowledgement of
// protocol version 11), and the unassigned bytes 0 and 255. So do a Hello
// with the Resume bit of version 11, and a load record after a probed
// one. A dispatch loop that skipped an unknown frame would leave the
// session waiting, so each session must fail within a bound.
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
	if err := w.WriteHello(ftHello(t, sess)); err != nil {
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
		{"worker", []byte{wire.TypeRecord, wire.TypeEOF, wire.TypePing}, func(t *testing.T, typ byte) error {
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

	// The Hello's flags byte sits before its session ID, 0xF10, two bytes.
	resume := slices.Clone(hello.Bytes())
	resume[len(resume)-3] |= 1 << 3
	var load bytes.Buffer
	w = wire.NewWriter(&load)
	w.WriteRecord(true, recs[0])                                                    //nolint:errcheck
	w.WriteLoad(false, &record.Record{ID: 1, Time: 1, Tokens: []tokens.Rank{1, 2}}) //nolint:errcheck
	w.Flush()                                                                       //nolint:errcheck
	for name, tc := range map[string]struct {
		raw  []byte
		want string
	}{
		"resume-bit":       {resume, "unknown bit"},
		"load-after-probe": {append(slices.Clone(hello.Bytes()), load.Bytes()...), "load record 1 after probed record 0"},
	} {
		t.Run("worker/"+name, func(t *testing.T) {
			checkNoLeaks(t)
			if err := worker(t, tc.raw); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("worker session: %v, want %q", err, tc.want)
			}
		})
	}
}

// rogueWorker is one connection, over net.Pipe, to a worker that answers
// the hello (an FT one with a resume ack), sends one empty
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
		if h.FT && wire.NewWriter(srv).WriteResumeAck(workerRecordWindow) != nil {
			return
		}
		if _, err := srv.Write([]byte{typ, 0}); err != nil {
			return
		}
		io.Copy(io.Discard, srv) //nolint:errcheck
	}()
	return cli
}
