package remote

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math"
	"net"
	"strings"
	"sync"
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

// fastFT returns FT settings tuned for tests: tight heartbeats, quick
// retries, generous budget.
func fastFT(sessionID uint64) FT {
	return FT{
		Retry:             RetryPolicy{MaxAttempts: 20, Base: time.Millisecond, Cap: 20 * time.Millisecond, Seed: sessionID},
		HeartbeatInterval: 10 * time.Millisecond,
		HeartbeatTimeout:  300 * time.Millisecond,
		SessionID:         sessionID,
	}
}

// setRecordWindow lowers the workers' record credit window to n for the
// rest of the test, so that Credit frames move a task's mark every n/2
// records. Call it before starting any worker.
func setRecordWindow(t *testing.T, n uint64) {
	old := workerRecordWindow
	workerRecordWindow = n
	t.Cleanup(func() { workerRecordWindow = old })
}

// ftWorker is a restartable FT worker over loopback TCP.
type ftWorker struct {
	addr string
	mon  *Monitor
	stop context.CancelFunc
	done chan struct{}
}

// loaded sums the sessions of workers that loaded a replayed window.
func loaded(workers []*ftWorker) uint64 {
	var n uint64
	for _, w := range workers {
		n += w.mon.SessionsResumed.Load()
	}
	return n
}

func startFTWorker(t *testing.T) *ftWorker {
	t.Helper()
	checkNoLeaks(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	w := &ftWorker{addr: ln.Addr().String(), mon: &Monitor{}, stop: cancel, done: make(chan struct{})}
	go func() {
		defer close(w.done)
		ServeWorkerOpts(ctx, ln, WorkerOpts{Logf: silentLogf, Mon: w.mon}) //nolint:errcheck
	}()
	t.Cleanup(func() { cancel(); <-w.done })
	return w
}

// kill stops the worker and waits for its sessions to end.
func (w *ftWorker) kill() {
	w.stop()
	<-w.done
}

// tcpDialer dials the address addr returns for the task at call time.
func tcpDialer(addr func(task int) string) Dialer {
	return func(ctx context.Context, task int) (io.ReadWriteCloser, error) {
		var d net.Dialer
		return d.DialContext(ctx, "tcp", addr(task))
	}
}

func pairSet(pairs []record.Pair) map[record.Pair]bool {
	out := make(map[record.Pair]bool, len(pairs))
	for _, p := range pairs {
		out[record.Pair{First: p.First, Second: p.Second}] = true
	}
	return out
}

func requireParity(t *testing.T, got []record.Pair, want map[record.Pair]bool, label string) {
	t.Helper()
	gs := pairSet(got)
	if len(gs) != len(got) {
		t.Errorf("%s: %d duplicate pairs escaped the coordinator dedup", label, len(got)-len(gs))
	}
	for p := range want {
		if !gs[p] {
			t.Errorf("%s: missing pair %v", label, p)
		}
	}
	for p := range gs {
		if !want[record.Pair{First: p.First, Second: p.Second}] {
			t.Errorf("%s: extra pair %v", label, p)
		}
	}
}

// TestRunFTMatchesSingleNode is the fault-free gate: RunFT without any
// injected faults must reproduce the single-node result set for every
// strategy, with zero retries.
func TestRunFTMatchesSingleNode(t *testing.T) {
	recs := workload.NewGenerator(workload.UniformSmall(17)).Generate(400)
	const tau = 0.7
	want := make(map[record.Pair]bool)
	for p := range singleNodePairs(recs, tau, window.Unbounded{}) {
		want[record.Pair{First: p.First, Second: p.Second}] = true
	}
	for si, strat := range []string{"length", "prefix", "broadcast"} {
		k := 3
		sess := testSession(tau, strat, nil)
		if strat == "length" {
			sess.Bounds = boundsFor(recs, tau, k)
		}
		workers := make([]*ftWorker, k)
		for i := range workers {
			workers[i] = startFTWorker(t)
		}
		var tr connTracker
		dial := tr.dial(tcpDialer(func(task int) string { return workers[task].addr }))
		sum, err := RunFT(context.Background(), dial, k, sess, recs,
			Opts{CollectPairs: true}, fastFT(uint64(0xF00+si)))
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		tr.check(t, true)
		requireParity(t, sum.Pairs, want, strat)
		if sum.Retries != 0 || sum.Reconnects != 0 {
			t.Errorf("%s: clean run reported retries=%d reconnects=%d",
				strat, sum.Retries, sum.Reconnects)
		}
		if sum.Records != uint64(len(recs)) {
			t.Errorf("%s: records = %d, want %d", strat, sum.Records, len(recs))
		}
	}
}

// TestRunFTCancelledMidSession cancels an FT run whose worker answered
// the handshake and then went silent: RunFT must return the cancellation
// within a bound, and only after every goroutine of the attempt is done
// with the connection.
func TestRunFTCancelledMidSession(t *testing.T) {
	checkNoLeaks(t)
	var tr connTracker
	dial := tr.dial(func(context.Context, int) (io.ReadWriteCloser, error) {
		return fakeWorker(func(*wire.Writer) {}, false), nil
	})
	recs := workload.NewGenerator(workload.UniformSmall(3)).Generate(50)
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(50*time.Millisecond, cancel)
	err := returnsWithin(t, 5*time.Second, func() error {
		_, err := RunFT(ctx, dial, 2, testSession(0.7, "broadcast", nil), recs, Opts{}, fastFT(0xCA7))
		return err
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunFT = %v, want context.Canceled", err)
	}
	tr.check(t, false)
}

// connTracker records how a run uses the connections its dialer opens.
type connTracker struct {
	mu    sync.Mutex
	conns []*trackedConn
	ended atomic.Bool // set once the run has returned
}

// trackedConn counts a connection's closes and running reads, and notes
// any call that starts after the run has returned. A read that fails once
// the connection is closed lingers before it returns, so a reader nobody
// waits for is still in it when the run returns.
type trackedConn struct {
	io.ReadWriteCloser
	ended   *atomic.Bool
	closes  atomic.Int32
	reading atomic.Int32
	late    atomic.Bool
}

func (c *trackedConn) touch() {
	if c.ended.Load() {
		c.late.Store(true)
	}
}

func (c *trackedConn) Read(p []byte) (int, error) {
	c.touch()
	c.reading.Add(1)
	defer c.reading.Add(-1)
	n, err := c.ReadWriteCloser.Read(p)
	if err != nil && c.closes.Load() > 0 {
		time.Sleep(200 * time.Millisecond)
	}
	return n, err
}

func (c *trackedConn) Write(p []byte) (int, error) {
	c.touch()
	return c.ReadWriteCloser.Write(p)
}

func (c *trackedConn) Close() error {
	c.touch()
	c.closes.Add(1)
	return c.ReadWriteCloser.Close()
}

// dial wraps d so that every connection it opens is tracked.
func (tr *connTracker) dial(d Dialer) Dialer {
	return func(ctx context.Context, task int) (io.ReadWriteCloser, error) {
		conn, err := d(ctx, task)
		if err != nil {
			return nil, err
		}
		c := &trackedConn{ReadWriteCloser: conn, ended: &tr.ended}
		tr.mu.Lock()
		tr.conns = append(tr.conns, c)
		tr.mu.Unlock()
		return c, nil
	}
}

// check marks the run returned, then fails t if a read of a connection is
// still running or, within the next 300 ms, anything calls a connection.
// With closedOnce, every connection must also have been closed exactly
// once.
func (tr *connTracker) check(t *testing.T, closedOnce bool) {
	t.Helper()
	tr.ended.Store(true)
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for i, c := range tr.conns {
		if n := c.reading.Load(); n != 0 {
			t.Errorf("connection %d: %d reads still running after the run returned", i, n)
		}
	}
	time.Sleep(300 * time.Millisecond)
	for i, c := range tr.conns {
		if c.late.Load() {
			t.Errorf("connection %d was used after the run returned", i)
		}
		if n := c.closes.Load(); closedOnce && n != 1 {
			t.Errorf("connection %d closed %d times, want once", i, n)
		}
	}
}

// TestRunFTReconnectResume severs each worker's first connection
// mid-stream; the coordinator must reconnect, replay the worker's window
// from its mark, and still produce the exact result set.
func TestRunFTReconnectResume(t *testing.T) {
	setRecordWindow(t, 16)
	recs := workload.NewGenerator(workload.UniformSmall(23)).Generate(600)
	const tau = 0.7
	want := make(map[record.Pair]bool)
	for p := range singleNodePairs(recs, tau, window.Unbounded{}) {
		want[record.Pair{First: p.First, Second: p.Second}] = true
	}
	k := 3
	sess := testSession(tau, "length", boundsFor(recs, tau, k))
	workers := make([]*ftWorker, k)
	for i := range workers {
		workers[i] = startFTWorker(t)
	}
	var attempts [3]atomic.Int64
	dial := func(ctx context.Context, task int) (io.ReadWriteCloser, error) {
		var d net.Dialer
		c, err := d.DialContext(ctx, "tcp", workers[task].addr)
		if err != nil {
			return nil, err
		}
		if attempts[task].Add(1) == 1 {
			// First connection dies after 60 outbound frames.
			return faultwire.Wrap(c, faultwire.Config{SeverAfterFrames: 60}), nil
		}
		return c, nil
	}
	sum, err := RunFT(context.Background(), dial, k, sess, recs,
		Opts{CollectPairs: true}, fastFT(0xA11))
	if err != nil {
		t.Fatal(err)
	}
	requireParity(t, sum.Pairs, want, "reconnect")
	if sum.Reconnects != uint64(k) {
		t.Errorf("reconnects = %d, want %d (one per worker)", sum.Reconnects, k)
	}
	if loaded(workers) == 0 {
		t.Error("no worker session loaded a replayed window")
	}
}

// TestRunFTHeartbeatDetectsHang connects to a worker that accepts the
// connection and then goes silent. The watchdog must sever it and, with no
// retry budget, fail the run promptly.
func TestRunFTHeartbeatDetectsHang(t *testing.T) {
	checkNoLeaks(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			// Swallow frames forever, never answer.
			go io.Copy(io.Discard, c) //nolint:errcheck
		}
	}()
	recs := workload.NewGenerator(workload.UniformSmall(5)).Generate(50)
	sess := testSession(0.7, "broadcast", nil)
	ft := FT{
		Retry:             RetryPolicy{MaxAttempts: 0},
		HeartbeatInterval: 10 * time.Millisecond,
		HeartbeatTimeout:  80 * time.Millisecond,
		SessionID:         0xDEAD,
	}
	dial := tcpDialer(func(int) string { return ln.Addr().String() })
	start := time.Now()
	_, err = RunFT(context.Background(), dial, 1, sess, recs, Opts{}, ft)
	if err == nil {
		t.Fatal("run over a hung worker succeeded")
	}
	if !strings.Contains(err.Error(), "dead after") {
		t.Fatalf("error = %v, want a dead-worker report", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("hang detection took %v", elapsed)
	}
}

// deadInbound passes a connection through until the coordinator writes
// after its Hello, which it does only once the ResumeAck is in, and from
// then on blocks every read until Close while writes still go through.
type deadInbound struct {
	net.Conn
	writes atomic.Int32
	closed chan struct{}
	once   sync.Once
}

func (c *deadInbound) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

func (c *deadInbound) Read(p []byte) (int, error) {
	if c.writes.Load() < 2 {
		return c.Conn.Read(p)
	}
	<-c.closed
	return 0, net.ErrClosed
}

func (c *deadInbound) Close() error {
	c.once.Do(func() { close(c.closed) })
	return c.Conn.Close()
}

// TestRunFTSeversDeadInbound: after the handshake, a connection whose
// inbound side is dead while its writes, pings included, still succeed
// is severed once a ping has gone unanswered past the timeout. The stream
// outruns the worker's credit, so the coordinator parks and pings before
// EOF, where the deadline would be disarmed.
func TestRunFTSeversDeadInbound(t *testing.T) {
	setRecordWindow(t, 64)
	w := startFTWorker(t)
	recs := workload.NewGenerator(workload.UniformSmall(5)).Generate(500)
	sess := testSession(0.7, "broadcast", nil)
	ft := FT{
		Retry:             RetryPolicy{MaxAttempts: 0},
		HeartbeatInterval: 10 * time.Millisecond,
		HeartbeatTimeout:  80 * time.Millisecond,
		SessionID:         0xDEAD1,
	}
	tcp := tcpDialer(func(int) string { return w.addr })
	dial := func(ctx context.Context, task int) (io.ReadWriteCloser, error) {
		c, err := tcp(ctx, task)
		if err != nil {
			return nil, err
		}
		return &deadInbound{Conn: c.(net.Conn), closed: make(chan struct{})}, nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	start := time.Now()
	_, err := RunFT(ctx, dial, 1, sess, recs, Opts{}, ft)
	if err == nil || !strings.Contains(err.Error(), "dead after 1 attempts") {
		t.Fatalf("error = %v, want the worker dead after its one attempt", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("severing the dead inbound side took %v", elapsed)
	}
}

// TestRunFTDeadWorkerWithoutDegradedFails: a worker that stays
// unreachable past its retry budget fails the run, which names it dead.
func TestRunFTDeadWorkerWithoutDegradedFails(t *testing.T) {
	checkNoLeaks(t)
	recs := workload.NewGenerator(workload.UniformSmall(3)).Generate(100)
	sess := testSession(0.7, "broadcast", nil)
	dial := func(ctx context.Context, task int) (io.ReadWriteCloser, error) {
		return nil, errors.New("injected: refused")
	}
	ft := fastFT(0xFA11)
	ft.Retry.MaxAttempts = 1
	_, err := RunFT(context.Background(), dial, 2, sess, recs, Opts{}, ft)
	if err == nil {
		t.Fatal("run with an unreachable worker succeeded")
	}
	if !strings.Contains(err.Error(), "dead after") {
		t.Fatalf("error = %v, want dead-worker report", err)
	}
}

// TestRunFTKilledWorkerRejoins is the recovery acceptance test: a worker
// process is stopped mid-run, and a fresh process, which holds nothing of
// the first, must rejoin, load its window from the coordinator's replay,
// and the run finish exactly.
func TestRunFTKilledWorkerRejoins(t *testing.T) {
	setRecordWindow(t, 64)
	recs := workload.NewGenerator(workload.UniformSmall(41)).Generate(3000)
	const tau = 0.75
	want := make(map[record.Pair]bool)
	for p := range singleNodePairs(recs, tau, window.Unbounded{}) {
		want[record.Pair{First: p.First, Second: p.Second}] = true
	}
	first := startFTWorker(t)

	var addr atomic.Value
	addr.Store(first.addr)
	dial := func(ctx context.Context, task int) (io.ReadWriteCloser, error) {
		var d net.Dialer
		c, err := d.DialContext(ctx, "tcp", addr.Load().(string))
		if err != nil {
			return nil, err
		}
		// Throttle the stream so the kill lands mid-run.
		return faultwire.Wrap(c, faultwire.Config{DelayPerMille: 1000, Delay: 100 * time.Microsecond}), nil
	}
	sess := testSession(tau, "broadcast", nil)
	ft := fastFT(0x4E40)
	ft.Retry = RetryPolicy{MaxAttempts: 50, Base: 2 * time.Millisecond, Cap: 20 * time.Millisecond}

	type result struct {
		sum *RunSummary
		err error
	}
	done := make(chan result, 1)
	go func() {
		sum, err := RunFT(context.Background(), dial, 1, sess, recs, Opts{CollectPairs: true}, ft)
		done <- result{sum, err}
	}()

	// Wait for real progress, then kill the worker process.
	deadline := time.Now().Add(10 * time.Second)
	for first.mon.RecordsSeen.Load() < 500 {
		if time.Now().After(deadline) {
			t.Fatal("worker made no progress")
		}
		time.Sleep(time.Millisecond)
	}
	first.kill()
	second := startFTWorker(t)
	addr.Store(second.addr)

	res := <-done
	if res.err != nil {
		t.Fatal(res.err)
	}
	requireParity(t, res.sum.Pairs, want, "rejoin")
	if res.sum.Reconnects == 0 {
		t.Error("no reconnect recorded")
	}
	if second.mon.SessionsResumed.Load() == 0 {
		t.Error("restarted worker loaded no replayed window")
	}
	if res.sum.ReplayedRecords >= uint64(len(recs)) {
		t.Errorf("replayed %d of %d records — the mark did not shorten the replay",
			res.sum.ReplayedRecords, len(recs))
	}
}

// TestRunFTValidation covers the rejected configurations and inputs, each
// refused before any worker is dialled.
func TestRunFTValidation(t *testing.T) {
	checkNoLeaks(t)
	var dials atomic.Int64
	dial := func(ctx context.Context, task int) (io.ReadWriteCloser, error) {
		dials.Add(1)
		return nil, errors.New("must not dial")
	}
	recs := []*record.Record{}
	// Adjacent IDs swapped: a worker's replay filter would drop every
	// record at or below the last ID it saw. Adjacent times swapped: a
	// window replay would miss a record live at its mark.
	swapped := workload.NewGenerator(workload.UniformSmall(17)).Generate(400)
	backwards := workload.NewGenerator(workload.UniformSmall(17)).Generate(400)
	for i := 0; i+1 < len(swapped); i += 2 {
		swapped[i].ID, swapped[i+1].ID = swapped[i+1].ID, swapped[i].ID
		backwards[i].Time, backwards[i+1].Time = backwards[i+1].Time, backwards[i].Time
	}
	cases := []struct {
		name string
		run  func() error
	}{
		{"zero workers", func() error {
			_, err := RunFT(context.Background(), dial, 0, testSession(0.7, "broadcast", nil), recs, Opts{}, FT{})
			return err
		}},
		{"bi session", func() error {
			s := testSession(0.7, "broadcast", nil)
			s.Bi = true
			_, err := RunFT(context.Background(), dial, 1, s, recs, Opts{}, FT{})
			return err
		}},
		{"snapshot opts", func() error {
			_, err := RunFT(context.Background(), dial, 1, testSession(0.7, "broadcast", nil), recs, Opts{Snapshot: true}, FT{})
			return err
		}},
		{"bad strategy", func() error {
			_, err := RunFT(context.Background(), dial, 1, testSession(0.7, "nope", nil), recs, Opts{}, FT{})
			return err
		}},
		{"ids not increasing", func() error {
			_, err := RunFT(context.Background(), dial, 2, testSession(0.7, "broadcast", nil), swapped, Opts{}, FT{})
			return err
		}},
		{"times decreasing", func() error {
			_, err := RunFT(context.Background(), dial, 2, testSession(0.7, "broadcast", nil), backwards, Opts{}, FT{})
			return err
		}},
	}
	for _, tc := range cases {
		if err := tc.run(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if n := dials.Load(); n != 0 {
		t.Errorf("dialled %d times; every case must be refused before dialling", n)
	}
}

// TestNegativeWindowRefused: a session with a negative window size is
// refused by the coordinator's own Hello check, plain and FT alike, before
// any worker is dialled or written to.
func TestNegativeWindowRefused(t *testing.T) {
	checkNoLeaks(t)
	recs := workload.NewGenerator(workload.UniformSmall(5)).Generate(50)
	sess := testSession(0.7, "broadcast", nil)
	sess.Window = window.Count{N: -5}
	var sink bytes.Buffer
	if _, err := RunWithOpts(context.Background(), []io.ReadWriter{&sink}, sess, recs, Opts{}); err == nil {
		t.Error("RunWithOpts accepted a negative window")
	}
	if sink.Len() != 0 {
		t.Errorf("RunWithOpts wrote %d bytes before refusing", sink.Len())
	}
	var dials atomic.Int64
	dial := func(context.Context, int) (io.ReadWriteCloser, error) {
		dials.Add(1)
		return nil, errors.New("must not dial")
	}
	if _, err := RunFT(context.Background(), dial, 1, sess, recs, Opts{}, fastFT(0x5EF)); err == nil {
		t.Error("RunFT accepted a negative window")
	}
	if n := dials.Load(); n != 0 {
		t.Errorf("RunFT dialled %d times before refusing", n)
	}
}

// gathered reads the unlabeled series name from reg, -1 when it is not
// registered.
func gathered(reg *obs.Registry, name string) float64 {
	for _, f := range reg.Gather() {
		if f.Desc.Name == name && len(f.Samples) == 1 {
			return f.Samples[0].Value
		}
	}
	return -1
}

// TestFTSeriesDescribeTheLatestRun runs RunFT twice on one registry: the
// first run's dialer fails task 0's first attempt, the second run is
// clean. The coord_* series follow the latest run, and each summary counts
// its own run only.
func TestFTSeriesDescribeTheLatestRun(t *testing.T) {
	recs := workload.NewGenerator(workload.UniformSmall(11)).Generate(200)
	sess := testSession(0.7, "broadcast", nil)
	const k = 2
	workers := make([]*ftWorker, k)
	for i := range workers {
		workers[i] = startFTWorker(t)
	}
	tcp := tcpDialer(func(task int) string { return workers[task].addr })
	reg := obs.NewRegistry()

	var failed atomic.Bool
	flaky := func(ctx context.Context, task int) (io.ReadWriteCloser, error) {
		if task == 0 && failed.CompareAndSwap(false, true) {
			return nil, errors.New("injected: first attempt refused")
		}
		return tcp(ctx, task)
	}
	ft := fastFT(0x1A7E)
	ft.Registry = reg
	sum1, err := RunFT(context.Background(), flaky, k, sess, recs, Opts{}, ft)
	if err != nil {
		t.Fatal(err)
	}
	if sum1.Retries < 1 {
		t.Fatalf("first run: %d retries, want at least 1", sum1.Retries)
	}
	if got := gathered(reg, "coord_retries_total"); got != float64(sum1.Retries) {
		t.Errorf("first run: coord_retries_total = %v, summary %d", got, sum1.Retries)
	}

	ft.SessionID = 0x1A7F
	sum2, err := RunFT(context.Background(), tcp, k, sess, recs, Opts{}, ft)
	if err != nil {
		t.Fatal(err)
	}
	if sum2.Retries != 0 {
		t.Errorf("second run: %d retries, want 0", sum2.Retries)
	}
	if got := gathered(reg, "coord_retries_total"); got != 0 {
		t.Errorf("second run: coord_retries_total = %v, want 0", got)
	}
}

// TestDialClosesPartialConns is the regression gate for Dial's partial
// failure path: when a later address fails, connections already opened
// must be closed, not leaked.
func TestDialClosesPartialConns(t *testing.T) {
	checkNoLeaks(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	// Second address: a listener we close immediately — connection refused.
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr().String()
	dead.Close()

	_, err = Dial(context.Background(), []string{ln.Addr().String(), deadAddr}, time.Second)
	if err == nil {
		t.Fatal("Dial succeeded with an unreachable address")
	}
	select {
	case c := <-accepted:
		c.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
		if _, rerr := c.Read(make([]byte, 1)); rerr != io.EOF {
			t.Errorf("accepted conn read = %v, want EOF (closed by Dial)", rerr)
		}
		c.Close()
	case <-time.After(5 * time.Second):
		t.Fatal("first address was never dialed")
	}
}

// TestRetryPolicyBackoff pins the backoff envelope: exponential growth
// from Base, jitter within [d/2, d), capped at Cap, deterministic per
// (seed, attempt, seq).
func TestRetryPolicyBackoff(t *testing.T) {
	checkNoLeaks(t)
	p := RetryPolicy{MaxAttempts: 5, Base: 10 * time.Millisecond, Cap: 80 * time.Millisecond, Seed: 7}
	for attempt := 1; attempt <= 6; attempt++ {
		raw := p.Base * (1 << (attempt - 1))
		if raw > p.Cap {
			raw = p.Cap
		}
		d := p.backoff(attempt, 3)
		if d < raw/2 || d >= raw {
			t.Errorf("attempt %d: backoff %v outside [%v, %v)", attempt, d, raw/2, raw)
		}
		if d2 := p.backoff(attempt, 3); d2 != d {
			t.Errorf("attempt %d: backoff not deterministic (%v vs %v)", attempt, d, d2)
		}
	}
	if (RetryPolicy{}).backoff(1, 0) != 0 {
		t.Error("zero policy should not pause")
	}

	// Cap 0 means no cap: the doubling must stop before it overflows, so
	// every late attempt still pauses, and no longer than the one before.
	uncapped := RetryPolicy{MaxAttempts: 100, Base: 50 * time.Millisecond, Seed: 7}
	var prevFloor time.Duration
	for attempt := 1; attempt <= 70; attempt++ {
		d := uncapped.backoff(attempt, 3)
		if d <= 0 {
			t.Fatalf("uncapped attempt %d: backoff %v, want > 0", attempt, d)
		}
		floor := uncapped.Base
		for i := 1; i < attempt && floor <= math.MaxInt64/2; i++ {
			floor *= 2
		}
		floor /= 2
		if d < floor || floor < prevFloor {
			t.Fatalf("uncapped attempt %d: backoff %v, floor %v after %v", attempt, d, floor, prevFloor)
		}
		prevFloor = floor
	}
}

// TestRunFTCancelDuringBackoff requires a cancelled run to stop waiting
// out its retry backoff: every dial fails, the first backoff lasts at
// least Base/2 (30 s), and cancelling the context once the manager has
// journaled the failed attempt — the last thing it does before it waits —
// must make RunFT return context.Canceled before half that backoff, a
// bound no interruptible wait comes near and no uninterruptible one meets.
func TestRunFTCancelDuringBackoff(t *testing.T) {
	checkNoLeaks(t)
	dial := func(ctx context.Context, task int) (io.ReadWriteCloser, error) {
		return nil, errors.New("connection refused")
	}
	ft := FT{Retry: RetryPolicy{MaxAttempts: 100, Base: time.Minute, Cap: 2 * time.Minute, Seed: 1}}
	journal := obs.NewJournal(0)
	recs := workload.NewGenerator(workload.UniformSmall(3)).Generate(50)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := RunFT(ctx, dial, 1, testSession(0.7, "broadcast", nil), recs, Opts{Journal: journal}, ft)
		done <- err
	}()
	retried := func() bool {
		for _, ev := range journal.Snapshot().Events {
			if ev.Type == "retry" {
				return true
			}
		}
		return false
	}
	for deadline := time.Now().Add(5 * time.Second); !retried(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("no failed attempt journaled within 5s")
		}
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("RunFT = %v, want context.Canceled", err)
		}
	case <-time.After(ft.Retry.Base / 4):
		t.Fatal("RunFT still running Base/4 after cancel; the backoff was not interrupted")
	}
}
