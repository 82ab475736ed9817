package remote

import (
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"os"
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
// inbound frames up to the k-th Result frame, then drops every inbound
// frame until the worker's checkpoint count has risen past its value when
// the dropping began, and then closes the connection: the frames a worker
// transmitted but the coordinator never read, which a TCP reset loses.
type tailDrop struct {
	io.ReadWriteCloser
	k     int
	ckpts *atomic.Uint64 // the worker's Monitor.CheckpointsWritten

	in, out  []byte // inbound bytes not yet split into frames; frames passed up
	results  int    // Result frames passed up
	dropping bool
	base     uint64 // *ckpts when the dropping began
	dropped  int    // Result frames dropped
}

func (c *tailDrop) Read(p []byte) (int, error) {
	for len(c.out) == 0 {
		if c.dropping && c.ckpts.Load() > c.base {
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
				if typ == wire.TypeResult {
					c.dropped++
				}
			default:
				c.out = append(c.out, c.in[:size]...)
				if typ == wire.TypeResult {
					if c.results++; c.results == c.k {
						c.dropping, c.base = true, c.ckpts.Load()
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

// TestRunFTTailLossRecovered: results a worker wrote before a checkpoint
// that the coordinator never read, lost with the connection, must still
// reach the result set. The checkpoint holds them as unacknowledged and
// the resumed worker re-sends them.
func TestRunFTTailLossRecovered(t *testing.T) {
	recs := workload.NewGenerator(workload.UniformSmall(23)).Generate(1500)
	const tau = 0.6
	want := singleNodePairs(recs, tau, window.Unbounded{})
	k := 2
	sess := testSession(tau, "length", boundsFor(recs, tau, k))
	workers := make([]*ftWorker, k)
	for i := range workers {
		workers[i] = startFTWorker(t, t.TempDir(), time.Millisecond)
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
		// checkpointing, while its frames are dropped.
		conn := faultwire.Wrap(c, faultwire.Config{DelayPerMille: 1000, Delay: 50 * time.Microsecond})
		if task == 0 && attempts[task].Add(1) == 1 {
			tail = &tailDrop{ReadWriteCloser: conn, k: 10, ckpts: &workers[0].mon.CheckpointsWritten}
			return tail, nil
		}
		return conn, nil
	}
	sum, err := RunFT(context.Background(), dial, k, sess, recs, Opts{CollectPairs: true}, fastFT(0x7A11))
	if err != nil {
		t.Fatal(err)
	}
	if tail == nil || !tail.dropping || tail.dropped == 0 {
		t.Fatalf("no Result frame was dropped (%+v): the run did not exercise a lost tail", tail)
	}
	t.Logf("%d Result frames dropped after the %d-th; %d reconnects", tail.dropped, tail.k, sum.Reconnects)
	requireParity(t, sum.Pairs, want, "tail loss")
}

// TestRunFTFreshRunIgnoresStaleCheckpoint: a fresh run under the session
// ID of an earlier, cancelled run on the same workers must not restore
// that run's checkpoints, whether its plan is the same or not.
func TestRunFTFreshRunIgnoresStaleCheckpoint(t *testing.T) {
	recs := workload.NewGenerator(workload.UniformSmall(37)).Generate(1500)
	const tau = 0.7
	want := singleNodePairs(recs, tau, window.Unbounded{})
	const k = 2
	bounds := boundsFor(recs, tau, k)
	other := append([]int(nil), bounds...)
	if other[0] < other[1] {
		other[0]++
	} else {
		other[0]--
	}
	for _, tc := range []struct {
		name   string
		bounds []int
	}{{"same plan", bounds}, {"other bounds", other}} {
		t.Run(tc.name, func(t *testing.T) {
			const sid = 0x57A1E
			dirs := make([]string, k)
			workers := make([]*ftWorker, k)
			for i := range workers {
				dirs[i] = t.TempDir()
				workers[i] = startFTWorker(t, dirs[i], time.Millisecond)
			}
			addr := func(task int) string { return workers[task].addr }

			// Run 1, throttled, is cancelled once every worker has stepped
			// 300 records and checkpointed.
			slow := func(ctx context.Context, task int) (io.ReadWriteCloser, error) {
				c, err := tcpDialer(addr)(ctx, task)
				if err != nil {
					return nil, err
				}
				return faultwire.Wrap(c, faultwire.Config{DelayPerMille: 1000, Delay: 100 * time.Microsecond}), nil
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			done := make(chan error, 1)
			go func() {
				_, err := RunFT(ctx, slow, k, testSession(tau, "length", bounds), recs, Opts{CollectPairs: true}, fastFT(sid))
				done <- err
			}()
			for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
				ready := true
				for _, w := range workers {
					ready = ready && w.mon.RecordsSeen.Load() >= 300 && w.mon.CheckpointsWritten.Load() > 0
				}
				if ready {
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("run 1's workers never checkpointed")
				}
			}
			cancel()
			if err := <-done; err == nil {
				t.Fatal("run 1 finished before it was cancelled")
			}
			// Run 1's sessions save their checkpoints as they end.
			for i, w := range workers {
				for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
					if w.mon.SessionsStarted.Load() == w.mon.SessionsFinished.Load()+w.mon.SessionsFailed.Load() {
						break
					}
					if time.Now().After(deadline) {
						t.Fatalf("worker %d: run 1's session never ended", i)
					}
				}
				if _, err := os.Stat(checkpointPath(dirs[i], sid, i)); err != nil {
					t.Fatalf("worker %d holds no checkpoint of run 1: %v", i, err)
				}
			}

			// Run 2 is fresh and fault-free.
			sum, err := RunFT(context.Background(), tcpDialer(addr), k, testSession(tau, "length", tc.bounds), recs,
				Opts{CollectPairs: true}, fastFT(sid))
			if err != nil {
				t.Fatal(err)
			}
			requireParity(t, sum.Pairs, want, tc.name)
			for i, w := range workers {
				if n := w.mon.SessionsResumed.Load(); n != 0 {
					t.Errorf("worker %d resumed %d sessions from a checkpoint", i, n)
				}
			}
		})
	}
}

// fakeWorker is one connection, over net.Pipe, to a worker that answers
// the hello (an FT one with a resume ack from scratch), writes the Result
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
			io.Copy(io.Discard, rd.Rest()) //nolint:errcheck
		}()
		w := wire.NewWriter(srv)
		if h.FT {
			w.WriteResumeAck(0, workerRecordWindow) //nolint:errcheck
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
func TestResultStraddlingHaveFailsTheAttempt(t *testing.T) {
	checkNoLeaks(t)
	var attempts atomic.Int64
	dial := func(context.Context, int) (io.ReadWriteCloser, error) {
		switch attempts.Add(1) {
		case 1: // results 0 and 1, then the connection breaks
			return fakeWorker(func(w *wire.Writer) { probeResults(w, 0, 2, 0, 1) }, true), nil
		case 2: // results 1 to 3: one collected, two not
			return fakeWorker(func(w *wire.Writer) { probeResults(w, 1, 3, 0, 1) }, false), nil
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
	const want = "sent results 1 to 3, 2 collected"
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
