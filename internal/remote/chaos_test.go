package remote

import (
	"context"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultwire"
	"repro/internal/record"
	"repro/internal/window"
	"repro/internal/workload"
)

// chaosBaseline runs the same session fault-free over plain Run and
// returns its result set — the ground truth the chaotic run must match
// exactly. Run (not the single-node joiner) is the right baseline: it has
// identical per-worker stream semantics, including windowed eviction.
func chaosBaseline(t *testing.T, k int, sess Session, recs []*record.Record) map[record.Pair]bool {
	t.Helper()
	conns := startWorkers(t, k)
	sum, err := Run(context.Background(), asRW(conns), sess, recs, true)
	if err != nil {
		t.Fatalf("baseline run: %v", err)
	}
	return pairSet(sum.Pairs)
}

// TestChaosSeededFaultParity is the acceptance gate for the fault
// injection harness: a run with seeded severs, duplicated frames and
// delays on every connection must produce exactly the fault-free result
// set. Each worker's first connection is severed deterministically
// mid-stream; every connection additionally carries probabilistic faults
// from the fixed seed. Windows are bounded, and a small record window moves
// the marks, so window replays run through real eviction state.
func TestChaosSeededFaultParity(t *testing.T) {
	setRecordWindow(t, 32)
	const chaosSeed = 0xC4405
	recs := workload.NewGenerator(workload.UniformSmall(83)).Generate(1200)
	const tau = 0.7
	for _, strat := range []string{"length", "broadcast"} {
		strat := strat
		t.Run(strat, func(t *testing.T) {
			k := 3
			sess := testSession(tau, strat, nil)
			sess.Window = window.Count{N: 128}
			if strat == "length" {
				sess.Bounds = boundsFor(recs, tau, k)
			}
			want := chaosBaseline(t, k, sess, recs)

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
				n := attempts[task].Add(1)
				cfg := faultwire.Config{
					// Fresh sub-seed per attempt so a retried connection
					// doesn't replay the exact fault schedule that killed
					// its predecessor.
					Seed:          chaosSeed ^ uint64(task)<<16 ^ uint64(n),
					SeverPerMille: 2,
					DupPerMille:   20,
					DelayPerMille: 5,
					Delay:         200 * time.Microsecond,
				}
				if n == 1 {
					// Deterministic anchor: the first connection always
					// dies mid-stream.
					cfg.SeverAfterFrames = 80
				}
				return faultwire.Wrap(c, cfg), nil
			}
			ft := FT{
				Retry:             RetryPolicy{MaxAttempts: 100, Base: time.Millisecond, Cap: 20 * time.Millisecond, Seed: chaosSeed},
				HeartbeatInterval: 10 * time.Millisecond,
				HeartbeatTimeout:  500 * time.Millisecond,
				SessionID:         chaosSeed ^ uint64(len(strat)),
			}
			sum, err := RunFT(context.Background(), dial, k, sess, recs, Opts{CollectPairs: true}, ft)
			if err != nil {
				t.Fatal(err)
			}
			requireParity(t, sum.Pairs, want, strat)
			if sum.Reconnects < uint64(k) {
				t.Errorf("reconnects = %d, want at least %d (anchored severs)", sum.Reconnects, k)
			}
			var dups uint64
			for _, w := range workers {
				dups += w.mon.DuplicateRecords.Load()
			}
			loads := loaded(workers)
			if loads == 0 || sum.ReplayedRecords == 0 {
				t.Errorf("%d sessions loaded a window and %d records were replayed under chaos, want both above 0", loads, sum.ReplayedRecords)
			}
			if dups == 0 {
				t.Error("duplicate filter never fired despite injected duplicates")
			}
			t.Logf("%s: reconnects=%d retries=%d replayed=%d worker_loads=%d worker_dups=%d",
				strat, sum.Reconnects, sum.Retries, sum.ReplayedRecords, loads, dups)
		})
	}
}
