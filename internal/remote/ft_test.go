package remote

import (
	"context"
	"errors"
	"io"
	"math"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultwire"
	"repro/internal/obs"
	"repro/internal/record"
	"repro/internal/window"
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

// ftWorker is a restartable FT worker over loopback TCP.
type ftWorker struct {
	addr string
	mon  *Monitor
	stop context.CancelFunc
	done chan struct{}
}

func startFTWorker(t *testing.T, dir string, interval time.Duration) *ftWorker {
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
		ServeWorkerOpts(ctx, ln, WorkerOpts{ //nolint:errcheck
			Logf:               silentLogf,
			Mon:                w.mon,
			CheckpointDir:      dir,
			CheckpointInterval: interval,
		})
	}()
	t.Cleanup(func() { cancel(); <-w.done })
	return w
}

// kill stops the worker and waits for its drain (checkpoint included).
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
			workers[i] = startFTWorker(t, t.TempDir(), time.Millisecond)
		}
		dial := tcpDialer(func(task int) string { return workers[task].addr })
		sum, err := RunFT(context.Background(), dial, k, sess, recs,
			Opts{CollectPairs: true}, fastFT(uint64(0xF00+si)))
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
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

// TestRunFTReconnectResume severs each worker's first connection
// mid-stream; the coordinator must reconnect, resume from the worker's
// checkpoint, and still produce the exact result set.
func TestRunFTReconnectResume(t *testing.T) {
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
		workers[i] = startFTWorker(t, t.TempDir(), time.Millisecond)
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
	var resumed uint64
	for _, w := range workers {
		resumed += w.mon.SessionsResumed.Load()
	}
	if resumed == 0 {
		t.Error("no worker session resumed from a checkpoint")
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

// TestRunFTKilledWorkerRejoins is the checkpoint-recovery acceptance
// test: a worker process is stopped mid-run and a fresh process restarted
// over the same checkpoint directory must rejoin, resume, and the run
// finish exactly.
func TestRunFTKilledWorkerRejoins(t *testing.T) {
	recs := workload.NewGenerator(workload.UniformSmall(41)).Generate(3000)
	const tau = 0.75
	want := make(map[record.Pair]bool)
	for p := range singleNodePairs(recs, tau, window.Unbounded{}) {
		want[record.Pair{First: p.First, Second: p.Second}] = true
	}
	dir := t.TempDir()
	first := startFTWorker(t, dir, time.Millisecond)

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
	second := startFTWorker(t, dir, time.Millisecond)
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
		t.Error("restarted worker did not resume from the checkpoint")
	}
	if res.sum.ReplayedRecords >= uint64(len(recs)) {
		t.Errorf("replayed %d of %d records — checkpoint did not shorten the replay",
			res.sum.ReplayedRecords, len(recs))
	}
}

// TestRunFTValidation covers the rejected configurations.
func TestRunFTValidation(t *testing.T) {
	checkNoLeaks(t)
	dial := func(ctx context.Context, task int) (io.ReadWriteCloser, error) {
		return nil, errors.New("must not dial")
	}
	recs := []*record.Record{}
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
	}
	for _, tc := range cases {
		if err := tc.run(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
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
