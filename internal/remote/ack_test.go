package remote

import (
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultwire"
	"repro/internal/obs"
	"repro/internal/record"
	"repro/internal/window"
	"repro/internal/wire"
	"repro/internal/workload"
)

var errTailDropped = errors.New("tail dropped")

// tailDrop sits on the coordinator side of one connection. It passes the
// inbound frames up to the k-th Result (or Count) frame, then drops every
// inbound frame until, after a dropped result (or at once, with atCredit),
// it has dropped a Credit frame, the worker's mark past it, or a Pong,
// which a worker that has run out of record credit answers, and then
// closes the connection: the frames a worker transmitted but the
// coordinator never read, which a TCP reset loses.
type tailDrop struct {
	io.ReadWriteCloser
	k        int
	atCredit bool

	in, out  []byte // inbound bytes not yet split into frames; frames passed up
	results  int    // Result or Count frames passed up
	dropping bool
	dropped  int  // Result or Count frames dropped
	marked   bool // a Credit or Pong frame was dropped after a result
}

func (c *tailDrop) Read(p []byte) (int, error) {
	for len(c.out) == 0 {
		if c.marked {
			c.Close()
			return 0, errTailDropped
		}
		var buf [4096]byte
		n, err := c.ReadWriteCloser.Read(buf[:])
		c.in = append(c.in, buf[:n]...)
		for {
			size := 0
			if len(c.in) >= 2 {
				if plen, k := binary.Uvarint(c.in[1:]); k > 0 && len(c.in) >= 1+k+int(plen) {
					size = 1 + k + int(plen)
				}
			}
			if size == 0 {
				break
			}
			typ := c.in[0]
			switch {
			case c.dropping:
				switch typ {
				case wire.TypeResult, wire.TypeCount:
					c.dropped++
				case wire.TypeCredit, wire.TypePong:
					c.marked = c.marked || c.dropped > 0 || c.atCredit
				}
			default:
				c.out = append(c.out, c.in[:size]...)
				if typ == wire.TypeResult || typ == wire.TypeCount {
					if c.results++; c.results == c.k {
						c.dropping = true
					}
				}
			}
			c.in = c.in[size:]
		}
		if err != nil {
			if len(c.out) > 0 {
				break
			}
			return 0, err
		}
	}
	n := copy(p, c.out)
	c.out = c.out[n:]
	return n, nil
}

// TestRunFTTailLossRecovered: results a worker wrote before a Credit frame
// that the coordinator never read, lost with the connection, must still
// reach the result set. The coordinator's mark stays before them, and the
// reconnected worker probes their records again.
func TestRunFTTailLossRecovered(t *testing.T) {
	setRecordWindow(t, 16)
	recs := workload.NewGenerator(workload.UniformSmall(23)).Generate(1500)
	const tau = 0.6
	want := singleNodePairs(recs, tau, window.Unbounded{})
	k := 2
	sess := testSession(tau, "length", boundsFor(recs, tau, k))
	workers := make([]*ftWorker, k)
	for i := range workers {
		workers[i] = startFTWorker(t)
	}
	var (
		attempts [2]atomic.Int64
		tail     *tailDrop
	)
	dial := func(ctx context.Context, task int) (io.ReadWriteCloser, error) {
		var d net.Dialer
		c, err := d.DialContext(ctx, "tcp", workers[task].addr)
		if err != nil {
			return nil, err
		}
		// Throttle the stream so the worker keeps stepping records, and
		// granting credit, while its frames are dropped.
		conn := faultwire.Wrap(c, faultwire.Config{DelayPerMille: 1000, Delay: 50 * time.Microsecond})
		if task == 0 && attempts[task].Add(1) == 1 {
			tail = &tailDrop{ReadWriteCloser: conn, k: 10}
			return tail, nil
		}
		return conn, nil
	}
	sum, err := RunFT(context.Background(), dial, k, sess, recs, Opts{CollectPairs: true}, fastFT(0x7A11))
	if err != nil {
		t.Fatal(err)
	}
	if tail == nil || !tail.marked || tail.dropped == 0 {
		t.Fatalf("no Result frame and Credit after it were dropped (%+v): the run did not exercise a lost tail", tail)
	}
	t.Logf("%d Result frames dropped after the %d-th; %d reconnects", tail.dropped, tail.k, sum.Reconnects)
	requireParity(t, sum.Pairs, want, "tail loss")
}

// fakeWorker is one connection, over net.Pipe, to a worker that answers
// the hello (an FT one with a resume ack), writes the Result
// frames send writes, and then hangs up if hangUp is set, or else drops
// whatever the coordinator sends until the coordinator hangs up.
func fakeWorker(send func(w *wire.Writer), hangUp bool) io.ReadWriteCloser {
	srv, cli := net.Pipe()
	go func() {
		defer srv.Close()
		rd := wire.NewReader(srv)
		if typ, err := rd.Next(); err != nil || typ != wire.TypeHello {
			return
		}
		h, err := rd.ReadHello()
		if err != nil {
			return
		}
		drained := make(chan struct{})
		go func() {
			defer close(drained)
			io.Copy(io.Discard, srv) //nolint:errcheck
		}()
		w := wire.NewWriter(srv)
		if h.FT {
			w.WriteResumeAck(workerRecordWindow) //nolint:errcheck
		}
		send(w)
		if w.Flush() == nil && !hangUp {
			<-drained
		}
	}()
	return cli
}

// probeResults writes probe's pairs with each partner, numbered from first.
func probeResults(w *wire.Writer, first uint64, probe record.ID, partners ...record.ID) {
	rs := make([]wire.Result, len(partners))
	for i, p := range partners {
		rs[i] = wire.Result{A: p, B: probe, Sim: 1}
	}
	w.SetResultNumber(first)
	w.WriteResults(probe, rs) //nolint:errcheck
}

// TestResultNumberGapFailsTheSession: a Result frame numbered past the
// next result its connection owes fails plain Run and an FT attempt.
func TestResultNumberGapFailsTheSession(t *testing.T) {
	checkNoLeaks(t)
	sess := testSession(0.7, "broadcast", nil)
	recs := []*record.Record{{ID: 0, Tokens: []uint32{1, 2}}, {ID: 1, Time: 1, Tokens: []uint32{1, 2}}}
	gap := func(w *wire.Writer) {
		probeResults(w, 0, 1, 0)
		probeResults(w, 5, 2, 0)
	}
	const want = "numbered from 5, want 1"
	t.Run("plain", func(t *testing.T) {
		conn := fakeWorker(gap, false)
		defer conn.Close()
		if _, err := Run(context.Background(), []io.ReadWriter{conn}, sess, recs, false); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("plain run over a numbering gap: %v, want %q", err, want)
		}
	})
	t.Run("ft", func(t *testing.T) {
		dial := func(context.Context, int) (io.ReadWriteCloser, error) { return fakeWorker(gap, false), nil }
		ft := fastFT(0x6A9)
		ft.Retry.MaxAttempts = 0
		if _, err := RunFT(context.Background(), dial, 1, sess, recs, Opts{}, ft); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("ft run over a numbering gap: %v, want %q", err, want)
		}
	})
}

// TestResultStraddlingHaveFailsTheAttempt: a reconnected worker's frame
// that starts below the results its task has collected and ends above them
// cannot come from the task's one result sequence, and fails the attempt.
// With no Credit read, the task's mark is at its start, so the second
// connection's numbers count from result 0.
func TestResultStraddlingHaveFailsTheAttempt(t *testing.T) {
	checkNoLeaks(t)
	var attempts atomic.Int64
	dial := func(context.Context, int) (io.ReadWriteCloser, error) {
		switch attempts.Add(1) {
		case 1: // results 0 and 1, then the connection breaks
			return fakeWorker(func(w *wire.Writer) { probeResults(w, 0, 2, 0, 1) }, true), nil
		case 2: // results 0 to 3: two collected, one not
			return fakeWorker(func(w *wire.Writer) { probeResults(w, 0, 3, 0, 1, 2) }, false), nil
		}
		return nil, errors.New("injected: worker gone")
	}
	recs := make([]*record.Record, 4)
	for i := range recs {
		recs[i] = &record.Record{ID: record.ID(i), Time: int64(i), Tokens: []uint32{1, 2}}
	}
	journal := obs.NewJournal(64)
	ft := fastFT(0x57AD)
	ft.Retry.MaxAttempts = 1
	// Bounded: a coordinator that took the frame would wait for Stats from
	// attempt 2's worker forever.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := RunFT(ctx, dial, 1, testSession(0.7, "broadcast", nil), recs, Opts{Journal: journal}, ft); err == nil {
		t.Fatal("the run finished")
	}
	const want = "sent results 0 to 3, 2 collected"
	var retries []string
	for _, ev := range journal.Recent(64) {
		if ev.Type == "retry" {
			if strings.Contains(ev.Msg, want) {
				return
			}
			retries = append(retries, ev.Msg)
		}
	}
	t.Fatalf("no attempt failed with %q; retries: %q", want, retries)
}
