package remote

import (
	"context"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultwire"
	"repro/internal/window"
	"repro/internal/workload"
)

// startParallelFTWorker is startFTWorker with a verifier pool per session:
// the chaos variant for intra-worker parallelism.
func startParallelFTWorker(t *testing.T, dir string, interval time.Duration, par int) *ftWorker {
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
			Parallelism:        par,
		})
	}()
	t.Cleanup(func() { cancel(); <-w.done })
	return w
}

// TestChaosParallelVerifyParity reruns the seeded-fault chaos gate with
// every worker verifying on a 4-goroutine pool. The baseline is a
// fault-free sequential run, so the test pins both properties at once:
// parallel verification changes no results, and checkpoint/restore under
// faults composes with the pool (torn sessions rebuild their joiner — and
// its pool — from the checkpoint without leaking the old one).
func TestChaosParallelVerifyParity(t *testing.T) {
	const chaosSeed = 0x9A417
	recs := workload.NewGenerator(workload.UniformSmall(97)).Generate(1000)
	const tau = 0.7
	k := 2
	sess := testSession(tau, "length", boundsFor(recs, tau, k))
	sess.Window = window.Count{N: 128}
	want := chaosBaseline(t, k, sess, recs)

	workers := make([]*ftWorker, k)
	for i := range workers {
		workers[i] = startParallelFTWorker(t, t.TempDir(), 2*time.Millisecond, 4)
	}
	var attempts [2]atomic.Int64
	dial := func(ctx context.Context, task int) (io.ReadWriteCloser, error) {
		var d net.Dialer
		c, err := d.DialContext(ctx, "tcp", workers[task].addr)
		if err != nil {
			return nil, err
		}
		n := attempts[task].Add(1)
		cfg := faultwire.Config{
			Seed:          chaosSeed ^ uint64(task)<<16 ^ uint64(n),
			SeverPerMille: 2,
			DupPerMille:   20,
			DelayPerMille: 5,
			Delay:         200 * time.Microsecond,
		}
		if n == 1 {
			cfg.SeverAfterFrames = 80
		}
		return faultwire.Wrap(c, cfg), nil
	}
	ft := FT{
		Retry:             RetryPolicy{MaxAttempts: 100, Base: time.Millisecond, Cap: 20 * time.Millisecond, Seed: chaosSeed},
		HeartbeatInterval: 10 * time.Millisecond,
		HeartbeatTimeout:  500 * time.Millisecond,
		SessionID:         chaosSeed,
	}
	sum, err := RunFT(context.Background(), dial, k, sess, recs, Opts{CollectPairs: true}, ft)
	if err != nil {
		t.Fatal(err)
	}
	requireParity(t, sum.Pairs, want, "parallel-verify chaos")
	if sum.Reconnects < uint64(k) {
		t.Errorf("reconnects = %d, want at least %d (anchored severs)", sum.Reconnects, k)
	}
	var ckpts uint64
	for _, w := range workers {
		ckpts += w.mon.CheckpointsWritten.Load()
	}
	if ckpts == 0 {
		t.Error("no checkpoints written under chaos")
	}
	t.Logf("parallel-verify chaos: reconnects=%d retries=%d replayed=%d worker_ckpts=%d",
		sum.Reconnects, sum.Retries, sum.ReplayedRecords, ckpts)
}
