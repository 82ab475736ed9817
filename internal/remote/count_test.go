package remote

import (
	"context"
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

// TestCountingMatchesCollecting drains one stream collecting pairs and
// counting them (Hello.CountOnly), through plain Run under each strategy,
// RunBi, RunFT, RunFT
// under seeded severs and duplicates with a worker killed and restarted
// mid-run, and a durable RunFT killed and resumed from its state
// directory. Every case must reach the results of a collecting plain Run.
// A small record window moves the marks, so the recoveries replay windows.
func TestCountingMatchesCollecting(t *testing.T) {
	setRecordWindow(t, 32)
	recs := workload.NewGenerator(workload.UniformSmall(83)).Generate(1200)
	const (
		tau = 0.7
		k   = 3
	)
	sess := testSession(tau, "length", boundsFor(recs, tau, k))
	sess.Window = window.Count{N: 128}
	want := uint64(len(chaosBaseline(t, k, sess, recs)))
	if want == 0 {
		t.Fatal("degenerate stream: no results")
	}
	// check requires want results and, when collecting, as many pairs.
	check := func(t *testing.T, sum *RunSummary, collect bool, want uint64) {
		t.Helper()
		if sum.Results != want {
			t.Errorf("collect=%v: %d results, want %d", collect, sum.Results, want)
		}
		if pairs := uint64(len(sum.Pairs)); collect && pairs != want || !collect && pairs != 0 {
			t.Errorf("collect=%v: %d pairs for %d results", collect, pairs, want)
		}
	}
	modes := []bool{true, false}

	t.Run("run", func(t *testing.T) {
		// Prefix routing replicates records and arbitrates each pair
		// through Emits, so its counting workers keep an emit callback;
		// length and broadcast workers count with a nil emit.
		for _, strategy := range []string{"length", "prefix", "broadcast"} {
			ss := sess
			if ss.Strategy = strategy; strategy != "length" {
				ss.Bounds = nil
			}
			for _, collect := range modes {
				sum, err := Run(context.Background(), asRW(startWorkers(t, k)), ss, recs, collect)
				if err != nil {
					t.Fatal(err)
				}
				check(t, sum, collect, want)
			}
		}
	})

	t.Run("bi", func(t *testing.T) {
		bs := sess
		bs.Bi = true
		brs := make([]BiRecord, len(recs))
		for i, r := range recs {
			brs[i] = BiRecord{Rec: r, Right: i%2 == 1}
		}
		var totals [2]uint64
		for i, collect := range modes {
			sum, err := RunBi(context.Background(), asRW(startWorkers(t, k)), bs, brs, Opts{CollectPairs: collect})
			if err != nil {
				t.Fatal(err)
			}
			check(t, sum, collect, sum.Results)
			totals[i] = sum.Results
		}
		if totals[0] == 0 || totals[0] != totals[1] {
			t.Errorf("bi: %d results collecting, %d counting", totals[0], totals[1])
		}
	})

	t.Run("ft", func(t *testing.T) {
		for i, collect := range modes {
			workers := make([]*ftWorker, k)
			for w := range workers {
				workers[w] = startFTWorker(t)
			}
			dial := tcpDialer(func(task int) string { return workers[task].addr })
			sum, err := RunFT(context.Background(), dial, k, sess, recs, Opts{CollectPairs: collect}, fastFT(0xC0+uint64(i)))
			if err != nil {
				t.Fatal(err)
			}
			check(t, sum, collect, want)
		}
	})

	t.Run("ft-faults", func(t *testing.T) {
		for i, collect := range modes {
			sid := 0xFA17 + uint64(i)
			var addrs [k]atomic.Value
			workers := make([]*ftWorker, k)
			for w := range workers {
				workers[w] = startFTWorker(t)
				addrs[w].Store(workers[w].addr)
			}
			var attempts [k]atomic.Int64
			dial := func(ctx context.Context, task int) (io.ReadWriteCloser, error) {
				var d net.Dialer
				c, err := d.DialContext(ctx, "tcp", addrs[task].Load().(string))
				if err != nil {
					return nil, err
				}
				n := attempts[task].Add(1)
				cfg := faultwire.Config{
					Seed:          sid ^ uint64(task)<<16 ^ uint64(n),
					SeverPerMille: 2,
					DupPerMille:   20,
					DelayPerMille: 50,
					Delay:         100 * time.Microsecond,
				}
				if n == 1 {
					cfg.SeverAfterFrames = 80
				}
				return faultwire.Wrap(c, cfg), nil
			}
			ft := fastFT(sid)
			ft.Retry.MaxAttempts = 100
			done := make(chan error, 1)
			var sum *RunSummary
			go func() {
				var err error
				sum, err = RunFT(context.Background(), dial, k, sess, recs, Opts{CollectPairs: collect}, ft)
				done <- err
			}()
			// Kill worker 1 once it has stepped a third of its records, and
			// start a fresh one in its place.
			for deadline := time.Now().Add(10 * time.Second); workers[1].mon.RecordsSeen.Load() < 150; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("worker 1 made no progress")
				}
			}
			workers[1].kill()
			workers[1] = startFTWorker(t)
			addrs[1].Store(workers[1].addr)
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			check(t, sum, collect, want)
			if resumed := loaded(workers); sum.Reconnects < k || resumed == 0 {
				t.Errorf("collect=%v: %d reconnects, %d sessions loaded a window: the faults did not bite", collect, sum.Reconnects, resumed)
			}
		}
	})

	t.Run("durable-resume", func(t *testing.T) {
		for i, collect := range modes {
			workers := make([]*ftWorker, k)
			addrs := make([]string, k)
			for w := range workers {
				workers[w] = startFTWorker(t)
				addrs[w] = workers[w].addr
			}
			state := t.TempDir()
			ft := fastFT(0xD0 + uint64(i))
			ft.Durable = &Durable{StateDir: state, Workers: addrs}
			slow := func(ctx context.Context, task int) (io.ReadWriteCloser, error) {
				c, err := tcpDialer(func(task int) string { return addrs[task] })(ctx, task)
				if err != nil {
					return nil, err
				}
				return faultwire.Wrap(c, faultwire.Config{DelayPerMille: 400, Delay: time.Millisecond}), nil
			}
			ctx, kill := context.WithCancel(context.Background())
			done := make(chan error, 1)
			go func() {
				_, err := RunFT(ctx, slow, k, sess, recs, Opts{CollectPairs: collect}, ft)
				done <- err
			}()
			for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(2 * time.Millisecond) {
				var seen uint64
				for _, w := range workers {
					seen += w.mon.RecordsSeen.Load()
				}
				if seen >= 300 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("fleet made no progress before the kill")
				}
			}
			kill()
			<-done

			logRecs, err := ReadIngestLog(state)
			if err != nil {
				t.Fatal(err)
			}
			ft.Durable.Resume = true
			sum, err := RunFT(context.Background(), tcpDialer(func(task int) string { return addrs[task] }),
				k, sess, logRecs, Opts{CollectPairs: collect}, ft)
			if err != nil {
				t.Fatal(err)
			}
			check(t, sum, collect, uint64(len(chaosBaseline(t, k, sess, logRecs))))
			if _, logged, err := readResultsLog(state); err != nil || logged != sum.Results {
				t.Errorf("collect=%v: the results log numbers %d results, %v; the run found %d", collect, logged, err, sum.Results)
			}
			if loaded(workers) == 0 {
				t.Errorf("collect=%v: no worker loaded a window replayed across the coordinator restart", collect)
			}
		}
	})
}

// countWorker is one connection, over net.Pipe, to a CountOnly worker
// that answers the hello (an FT one with a resume ack), runs
// send, and then hangs up if hangUp is set, or else drops records until
// the coordinator's EOF and answers it with Stats.
func countWorker(send func(w *wire.Writer), hangUp bool) io.ReadWriteCloser {
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
		w := wire.NewWriter(srv)
		if h.FT {
			w.WriteResumeAck(workerRecordWindow) //nolint:errcheck
		}
		send(w)
		if w.Flush() != nil || hangUp {
			return
		}
		for {
			typ, err := rd.Next()
			if err != nil {
				return
			}
			if typ == wire.TypeEOF {
				w.WriteStats(wire.Stats{}) //nolint:errcheck
				return
			}
		}
	}()
	return cli
}

// counts writes a Count frame of n results numbered from first.
func counts(w *wire.Writer, first, n uint64) {
	w.SetResultNumber(first)
	w.WriteCount(n) //nolint:errcheck
}

// TestCountSkippingAheadFailsTheSession: a Count frame numbered past the
// results the coordinator has fails plain Run, and fails an FT attempt
// whether it skips past its connection's last frame or is a connection's
// first frame and not numbered 0.
func TestCountSkippingAheadFailsTheSession(t *testing.T) {
	checkNoLeaks(t)
	sess := testSession(0.7, "broadcast", nil)
	recs := []*record.Record{{ID: 0, Tokens: []uint32{1, 2}}, {ID: 1, Time: 1, Tokens: []uint32{1, 2}}}
	gap := func(w *wire.Writer) {
		counts(w, 0, 1)
		counts(w, 5, 1)
	}
	const want = "numbered from 5, want 1"
	t.Run("plain", func(t *testing.T) {
		conn := countWorker(gap, false)
		defer conn.Close()
		if _, err := Run(context.Background(), []io.ReadWriter{conn}, sess, recs, false); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("plain run over a count gap: %v, want %q", err, want)
		}
	})
	for name, tc := range map[string]struct {
		send func(w *wire.Writer)
		want string
	}{
		"ft":             {gap, want},
		"ft-first-frame": {func(w *wire.Writer) { counts(w, 3, 2) }, "numbered from 3, want 0"},
	} {
		t.Run(name, func(t *testing.T) {
			dial := func(context.Context, int) (io.ReadWriteCloser, error) { return countWorker(tc.send, false), nil }
			ft := fastFT(0x6A9)
			ft.Retry.MaxAttempts = 0
			if _, err := RunFT(context.Background(), dial, 1, sess, recs, Opts{}, ft); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("ft run over a count that skips ahead: %v, want %q", err, tc.want)
			}
		})
	}
}

// TestCountStraddlingHaveFailsTheAttempt: a reconnected worker's Count
// that starts below the results its task has and ends above them cannot
// come from the task's one result sequence, whose frames a replay repeats,
// and fails the attempt; a durable run logs none of it.
func TestCountStraddlingHaveFailsTheAttempt(t *testing.T) {
	checkNoLeaks(t)
	var attempts atomic.Int64
	dial := func(context.Context, int) (io.ReadWriteCloser, error) {
		switch attempts.Add(1) {
		case 1: // results 0 and 1, then the connection breaks
			return countWorker(func(w *wire.Writer) { counts(w, 0, 2) }, true), nil
		case 2: // results 0 to 4 as one count: two collected, three not
			return countWorker(func(w *wire.Writer) { counts(w, 0, 5) }, false), nil
		}
		return nil, errors.New("injected: worker gone")
	}
	recs := make([]*record.Record, 4)
	for i := range recs {
		recs[i] = &record.Record{ID: record.ID(i), Time: int64(i), Tokens: []uint32{1, 2}}
	}
	state := t.TempDir()
	journal := obs.NewJournal(64)
	ft := fastFT(0x57AD)
	ft.Retry.MaxAttempts = 1
	ft.Durable = &Durable{StateDir: state}
	// Bounded: a coordinator that took the frame would wait for Stats from
	// attempt 2's worker forever.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := RunFT(ctx, dial, 1, testSession(0.7, "broadcast", nil), recs, Opts{Journal: journal}, ft); err == nil {
		t.Fatal("the run finished")
	}
	const want = "sent results 0 to 5, 2 collected"
	failed := false
	for _, ev := range journal.Recent(64) {
		failed = failed || ev.Type == "retry" && strings.Contains(ev.Msg, want)
	}
	if !failed {
		t.Errorf("no attempt failed with %q", want)
	}
	if _, logged, err := readResultsLog(state); err != nil || logged != 2 {
		t.Errorf("the results log numbers %d results, %v; want 2", logged, err)
	}
}

// TestCountFrameInACollectingSessionFails: a worker that answers a Hello
// asking for pairs with a Count frame fails the session, whose caller
// would otherwise miss pairs.
func TestCountFrameInACollectingSessionFails(t *testing.T) {
	checkNoLeaks(t)
	conn := countWorker(func(w *wire.Writer) { counts(w, 0, 1) }, false)
	defer conn.Close()
	recs := []*record.Record{{ID: 0, Tokens: []uint32{1, 2}}}
	const want = "count frame in a session that collects pairs"
	if _, err := Run(context.Background(), []io.ReadWriter{conn}, testSession(0.7, "broadcast", nil), recs, true); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("collecting run over a count frame: %v, want %q", err, want)
	}
}

// TestCountingLogResumesOnlyUnderItsLaunchHello: a durable run that counts
// logs a Result frame as the count it adds, so its log resumes; a resume
// whose Opts.CollectPairs differs from the launch's is refused before any
// dial, for its Hello is not the one the log was written under.
func TestCountingLogResumesOnlyUnderItsLaunchHello(t *testing.T) {
	checkNoLeaks(t)
	recs := []*record.Record{{ID: 0, Tokens: []uint32{1, 2}}, {ID: 1, Time: 1, Tokens: []uint32{1, 2}}, {ID: 2, Time: 2, Tokens: []uint32{1, 2}}}
	sess := testSession(0.7, "broadcast", nil)
	state := t.TempDir()
	ft := fastFT(0xC01)
	ft.Durable = &Durable{StateDir: state}
	launch := func(context.Context, int) (io.ReadWriteCloser, error) {
		return countWorker(func(w *wire.Writer) {
			probeResults(w, 0, 2, 0, 1)
			counts(w, 2, 1)
		}, false), nil
	}
	sum, err := RunFT(context.Background(), launch, 1, sess, recs, Opts{}, ft)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Results != 3 {
		t.Fatalf("launch: %d results, want 3", sum.Results)
	}
	if _, logged, err := readResultsLog(state); err != nil || logged != 3 {
		t.Fatalf("the results log numbers %d results, %v; want 3", logged, err)
	}

	ft.Durable.Resume = true
	var dials atomic.Int64
	resume := func(context.Context, int) (io.ReadWriteCloser, error) {
		dials.Add(1)
		return countWorker(func(*wire.Writer) {}, false), nil
	}
	if sum, err = RunFT(context.Background(), resume, 1, sess, recs, Opts{}, ft); err != nil {
		t.Fatal(err)
	}
	if sum.Results != 3 || dials.Load() == 0 {
		t.Fatalf("resume: %d results over %d dials, want 3 over at least 1", sum.Results, dials.Load())
	}
	dials.Store(0)
	const want = "differs from the launch's"
	if _, err := RunFT(context.Background(), resume, 1, sess, recs, Opts{CollectPairs: true}, ft); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("a collecting resume of a counting run: %v, want %q", err, want)
	}
	if n := dials.Load(); n != 0 {
		t.Errorf("the refused resume dialled %d times", n)
	}
}
