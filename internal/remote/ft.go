// The coordinator: Run, RunWithOpts, RunBi and RunFT drive one session
// loop (ftRunner.attempt), which survives worker crashes, hangs and flaky
// transports. Each worker gets a manager goroutine owning its connection
// lifecycle: heartbeat-based failure detection, bounded reconnection with
// exponential backoff, and resume from the worker's checkpoint cursor. A
// worker that exhausts the retry budget (none for the three that take
// connections) is declared dead, and the run fails.
//
// Exactness: a resumed worker restores its window from the checkpoint, and
// the coordinator re-routes the caller's records from the worker's cursor
// (the plan is fixed for the run, so a task's records are the stream's
// records its route includes), so the worker's window state is identical
// to an uninterrupted run, and its duplicate filter drops the re-sent
// records it already processed. The coordinator keeps no per-record
// state: the IDs of recs must strictly increase, which is what lets a
// cursor name a position in them. The checkpoint also holds every
// result the coordinator had not acknowledged, which the worker re-sends,
// so a result lost with a broken connection is never lost for good. A
// worker without a checkpoint (no CheckpointDir, or a bi session) resumes
// at cursor 0: its window restarts empty and every result is replayed.
//
// Result dedup is one counter per task, because a task's results are one
// fixed sequence however often its worker is interrupted:
//
//   - A pair (A, B), a bi session's too, is emitted while probing
//     B = max(A, B).
//   - Restores are exact, so the task's records fix the pairs of every
//     probe, hence each probe's pair count and its frames. A probe is one
//     Result frame or, past the frame cap, its pairs sorted by partner and
//     cut at the cap (wire.Writer.WriteResults), whatever order the index
//     found them in.
//   - The worker numbers its pairs 0, 1, 2, … per session ID and task, in
//     emission order and across connections; a frame carries the number of
//     its first pair.
//   - The coordinator acknowledges whole frames, so the worker's acked count
//     always falls on a frame boundary, and its unacked tail, re-sent and
//     checkpointed one probe's pairs to a frame (wire.Writer.WriteProbes),
//     splits into the frames first sent.
//
// So a connection's first frame is numbered at the worker's acked count,
// and sets the connection's expected counter, which every later frame must
// match; a frame wholly below it is a duplicate the transport injected and
// is dropped. The task's have counter counts the pairs collected: an
// in-order frame below it is a replay, acknowledged but not collected, and
// one that starts at it is new. A frame that skips past expected, or that
// straddles or skips past have, breaks the argument above and fails the
// attempt.
//
// A run that does not collect pairs asks for counts (Hello.CountOnly): a
// Count frame per probe stands for its Result frames in the same numbering,
// and the argument holds but for one step. A count-only checkpoint keeps
// only the next result number, which a restored worker re-sends as one
// Count from 0, so frame boundaries do not survive: a Count that straddles
// have replays its part below have and adds the rest. Skipping past
// expected or have still fails the attempt.
package remote

import (
	"context"
	"fmt"
	"io"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/dispatch"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/record"
	"repro/internal/wire"
)

// Dialer opens a transport to worker task. RunFT calls it once per
// connection attempt; wrap it to inject faults or route through
// non-TCP transports.
type Dialer func(ctx context.Context, task int) (io.ReadWriteCloser, error)

// FT configures fault tolerance for RunFT.
type FT struct {
	// Retry bounds reconnection attempts per worker. Zero value means no
	// retries: the first transport failure declares the worker dead.
	Retry RetryPolicy
	// HeartbeatInterval paces coordinator pings on idle connections and
	// watchdog checks. Zero defaults to one second.
	HeartbeatInterval time.Duration
	// HeartbeatTimeout is the silence span after which a connection is
	// considered hung and severed (progress on either direction counts as
	// life). Zero defaults to five heartbeat intervals.
	HeartbeatTimeout time.Duration
	// SessionID keys worker-side checkpoints. Reconnects within the run
	// resume from them; a task's first hello asks to resume only under
	// Durable.Resume, so a fresh run never restores a checkpoint an earlier
	// run left under the same ID. Runs sharing the workers at the same time
	// need distinct IDs.
	SessionID uint64
	// Registry, when set, publishes the run's fault counts as the coord_*
	// series. A later run registered on it rebinds them, so the registry
	// describes the most recent run.
	Registry *obs.Registry
	// Durable enables persistent session state (ingest/results logs plus a
	// manifest under Durable.StateDir) making the run resumable after a
	// coordinator crash. Requires a non-zero SessionID.
	Durable *Durable
}

// ftRunner owns one run of the coordinator.
type ftRunner struct {
	k int
	// hello is the run's task-0 Hello, FT flag and session ID set; strat
	// is the routing strategy built from it.
	hello   wire.Hello
	strat   dispatch.Strategy
	ft      FT
	dial    Dialer
	journal *obs.Journal
	collect bool
	start   time.Time
	cancel  context.CancelFunc
	durable *durableState

	// recs is the caller's record stream, right each record's side in a bi
	// session (nil otherwise); ingested is how many of them the write
	// loops may send.
	recs     []*record.Record
	right    []bool
	ingested atomic.Int64
	// seed holds each task's window snapshot, sent after the ResumeAck;
	// snaps, when the caller asked for them, each worker's, after Stats.
	seed, snaps [][]byte
	notify      []chan struct{} // per-worker wakeups, capacity 1
	// recv holds each task's results: its have counter and, when
	// collecting, its pairs; stats holds its worker's final Stats. Only the
	// task's manager and the reader of its current attempt touch them, and
	// an attempt waits for its reader before it returns.
	recv  []received
	stats []wire.Stats

	// fatal is the first error that aborted the run. RunFT reads it after
	// every manager has returned.
	fatal     error
	fatalOnce sync.Once

	wg     sync.WaitGroup
	tuples atomic.Uint64
	bytes  atomic.Uint64

	// The run's fault counts: failed connection attempts, reconnections,
	// records re-sent, result pairs received again, workers declared dead,
	// and the time from a worker's first failure to its reconnection.
	retries, reconnects, replayed, dupResults, dead atomic.Uint64
	recovery                                        metrics.SyncLatency
}

// publish binds reg's coord_* series to the run's fault counts.
func (f *ftRunner) publish(reg *obs.Registry) {
	counter := func(name, help string, c *atomic.Uint64) {
		reg.CounterFunc(name, help, func() float64 { return float64(c.Load()) })
	}
	counter("coord_retries_total",
		"Failed worker connection attempts, including the first.", &f.retries)
	counter("coord_reconnects_total",
		"Successful worker reconnections after a transport failure.", &f.reconnects)
	counter("coord_replayed_records_total",
		"Records re-sent to workers during recovery.", &f.replayed)
	counter("coord_duplicate_results_total",
		"Result pairs received again and not collected: replays and transport duplicates.", &f.dupResults)
	reg.GaugeFunc("coord_dead_workers",
		"Workers declared dead after exhausting the retry budget.",
		func() float64 { return float64(f.dead.Load()) })
	reg.HistogramFunc("coord_recovery_seconds",
		"Time from first failure to successful reconnection.",
		f.recovery.Snapshot)
}

// kick wakes worker task's manager without blocking.
func (f *ftRunner) kick(task int) {
	select {
	case f.notify[task] <- struct{}{}:
	default:
	}
}

// abort fails the whole run with err; the first fatal error wins.
func (f *ftRunner) abort(err error) {
	f.fatalOnce.Do(func() { f.fatal = err })
	f.cancel()
}

// RunFT executes a join session with fault tolerance: dial is invoked per
// connection attempt, failures are retried under ft.Retry, hung
// connections are severed by the heartbeat watchdog, and reconnected
// workers resume from their checkpoint cursor. Bi sessions and snapshot
// options are not supported.
func RunFT(ctx context.Context, dial Dialer, workers int, sess Session, recs []*record.Record, opts Opts, ft FT) (*RunSummary, error) {
	if sess.Bi {
		return nil, fmt.Errorf("remote: RunFT does not support bi sessions")
	}
	if opts.Snapshot || len(opts.Seed) > 0 {
		return nil, fmt.Errorf("remote: snapshot options unsupported for ft runs")
	}
	return runFT(ctx, dial, workers, sess, recs, nil, opts, ft)
}

// runFT is the one coordinator of Run, RunWithOpts, RunBi and RunFT; right,
// when non-nil, holds each record's side in a bi session.
func runFT(ctx context.Context, dial Dialer, workers int, sess Session, recs []*record.Record, right []bool, opts Opts, ft FT) (*RunSummary, error) {
	if workers <= 0 {
		return nil, fmt.Errorf("remote: no workers")
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("remote: %w", err)
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].ID <= recs[i-1].ID {
			return nil, fmt.Errorf("remote: record %d has id %d after id %d; remote runs need strictly increasing ids", i, recs[i].ID, recs[i-1].ID)
		}
	}
	hello, strat, err := sess.Plan(workers)
	if err != nil {
		return nil, err
	}
	hello.FT, hello.SessionID, hello.CountOnly = true, ft.SessionID, !opts.CollectPairs
	if ft.HeartbeatInterval <= 0 {
		ft.HeartbeatInterval = time.Second
	}
	if ft.HeartbeatTimeout <= 0 {
		ft.HeartbeatTimeout = 5 * ft.HeartbeatInterval
	}

	rctx, cancel := context.WithCancel(ctx)
	defer cancel()

	f := &ftRunner{
		k:       workers,
		hello:   hello,
		strat:   strat,
		ft:      ft,
		dial:    dial,
		journal: opts.Journal,
		collect: opts.CollectPairs,
		start:   time.Now(),
		cancel:  cancel,
		recs:    recs,
		right:   right,
		seed:    opts.Seed,
		notify:  make([]chan struct{}, workers),
		recv:    make([]received, workers),
		stats:   make([]wire.Stats, workers),
	}
	if opts.Snapshot {
		f.snaps = make([][]byte, workers)
	}
	for i := range f.notify {
		f.notify[i] = make(chan struct{}, 1)
	}
	if ft.Registry != nil {
		f.publish(ft.Registry)
	}

	resume := ft.Durable != nil && ft.Durable.Resume
	if ft.Durable != nil {
		if ft.SessionID == 0 {
			return nil, fmt.Errorf("remote: durable runs need a non-zero session id")
		}
		if resume { // the launch's Hello decides what the results log holds
			m, merr := checkpoint.LoadManifest(filepath.Join(ft.Durable.StateDir, checkpoint.ManifestPath))
			if merr == nil && m.Hello.PlanHash() != hello.PlanHash() {
				merr = fmt.Errorf("remote: resume's plan or Opts.CollectPairs differs from the launch's")
			}
			if merr != nil {
				return nil, merr
			}
		}
		ds, derr := openDurable(*ft.Durable)
		if derr != nil {
			return nil, derr
		}
		defer ds.close()
		f.durable = ds
		if resume {
			n, serr := ds.seedResults(f.recv, f.collect)
			if serr != nil {
				return nil, serr
			}
			f.journal.Append("session_resume", "coordinator",
				fmt.Sprintf("session %016x resumed: %d records in ingest log, %d durable results recovered",
					ft.SessionID, ds.ingest.Next(), n))
		}
		if merr := f.saveManifest(); merr != nil {
			return nil, merr
		}
	}

	f.journal.Append("session_start", "coordinator",
		fmt.Sprintf("dispatching %d records to %d workers", len(recs), workers))
	for i := 0; i < workers; i++ {
		f.wg.Add(1)
		go func(task int) {
			defer f.wg.Done()
			f.manage(rctx, task, resume)
		}(i)
	}

	// A write loop may send a record once it is in the ingest log (all at
	// once in a run that is not durable) and routes it itself. A manager
	// returns once its task has finished or the run is cancelled or aborted.
	err = f.durable.ingestRecords(rctx, recs, f.journal, func(n int) {
		f.ingested.Store(int64(n))
		for i := range f.notify {
			f.kick(i)
		}
	})
	if err != nil {
		f.abort(err)
	}
	f.wg.Wait()
	if f.fatal != nil {
		return nil, f.fatal
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("remote: %w", err)
	}

	sum := &RunSummary{Records: uint64(len(recs)), WorkerStats: f.stats, Snapshots: f.snaps}
	for _, got := range f.recv {
		sum.Results += got.results
		sum.Pairs = append(sum.Pairs, got.pairs...)
	}
	sum.Elapsed = time.Since(f.start)
	sum.TuplesSent = f.tuples.Load()
	sum.BytesSent = f.bytes.Load()
	sum.Retries, sum.Reconnects, sum.ReplayedRecords = f.retries.Load(), f.reconnects.Load(), f.replayed.Load()
	f.journal.Append("session_end", "coordinator",
		fmt.Sprintf("%d records dispatched, %d results in %v", sum.Records, sum.Results, sum.Elapsed.Round(time.Millisecond)))
	return sum, nil
}

// saveManifest atomically writes the session manifest, once, at the start
// of a durable run: the launch hello and worker fleet a resume reads.
// Everything else a resume needs is in the two logs.
func (f *ftRunner) saveManifest() error {
	m := &checkpoint.Manifest{
		Schema:    checkpoint.ManifestSchema,
		SessionID: f.ft.SessionID,
		Hello:     f.hello,
		Workers:   append([]string(nil), f.durable.cfg.Workers...),
	}
	return checkpoint.SaveManifest(filepath.Join(f.durable.cfg.StateDir, checkpoint.ManifestPath), m)
}

// manage owns worker task for the whole run: it connects, streams, and on
// failure retries under the policy until the worker finishes or is
// declared dead. The consecutive-failure count resets on every successful
// handshake. The task's first hello asks to resume only when resume is
// set; every hello after a successful handshake asks. high is how far into
// recs the task's records have been sent, so that a record below it that
// goes out again counts as replayed.
func (f *ftRunner) manage(ctx context.Context, task int, resume bool) {
	failures, high := 0, 0
	var failSince time.Time
	for {
		handshook, err := f.attempt(ctx, task, resume, failSince, &high)
		if handshook {
			failures, failSince, resume = 0, time.Time{}, true
		}
		if err == nil || ctx.Err() != nil {
			return
		}
		failures++
		if failSince.IsZero() {
			failSince = time.Now()
		}
		f.retries.Add(1)
		f.journal.Append("retry", "coordinator",
			fmt.Sprintf("worker %d attempt %d failed: %v", task, failures, err))
		if failures > f.ft.Retry.MaxAttempts {
			f.declareDead(task, failures, err)
			return
		}
		if sleepCtx(ctx, f.ft.Retry.backoff(failures, uint64(task))) != nil {
			return
		}
	}
}

// attempt runs one connection's full lifecycle: dial, FT handshake with
// resume ack, the seed snapshot if any, the task's records from the
// worker's cursor, EOF (or a SnapshotReq), stats (and the snapshot).
// handshook reports whether the handshake completed (resetting the
// manager's failure budget) regardless of how the attempt ended. A zero failSince marks the task's first
// connection or one after a finished attempt; any other is a reconnect.
func (f *ftRunner) attempt(ctx context.Context, task int, resume bool, failSince time.Time, high *int) (handshook bool, err error) {
	conn, err := f.dial(ctx, task)
	if err != nil {
		return false, fmt.Errorf("remote: dialing worker %d: %w", task, err)
	}

	// Liveness stamps: nanoseconds since run start of the last inbound
	// read and the last completed outbound write. Progress on either
	// direction keeps the watchdog calm; blocked writes during a backlog
	// still stamp per flushed chunk.
	var lastIn, lastOut atomic.Int64
	now := func() int64 { return int64(time.Since(f.start)) }
	lastIn.Store(now())
	lastOut.Store(now())
	cw := &countingWriter{w: conn, stamp: &lastOut, base: f.start}
	defer func() { f.bytes.Add(cw.n.Load()) }()
	w := wire.NewWriter(cw)

	h := f.hello
	h.Task, h.Resume = task, resume
	if err := w.WriteHello(h); err != nil {
		conn.Close()
		return false, fmt.Errorf("remote: hello to worker %d: %w", task, err)
	}
	if err := w.Flush(); err != nil {
		conn.Close()
		return false, fmt.Errorf("remote: hello to worker %d: %w", task, err)
	}

	// Per-attempt flow-control state shared between the reader goroutine
	// and the write loop. Credits are per-connection by design:
	// every handshake resets them, so nothing here survives the attempt.
	var (
		recCredit   atomic.Int64  // records the worker will currently accept
		resReceived atomic.Uint64 // results received in order on this connection
		pings       atomic.Int64  // pings sent and not yet answered
	)

	ackCh := make(chan uint64, 1) // the worker's resume cursor
	statsCh := make(chan wire.Stats, 1)
	readErrCh := make(chan error, 1)
	var aw sync.WaitGroup
	aw.Add(1)
	go func() {
		defer aw.Done()
		rd := wire.NewReader(&stampingReader{r: conn, stamp: &lastIn, base: f.start})
		ackSeen := false
		// expected is the number of the result this connection delivers
		// next, set by its first Result frame (started); got is the task's
		// results, whose count is its have counter.
		var (
			batch    []wire.Result
			count    []byte
			expected uint64
			started  bool
			got      = &f.recv[task]
		)
		for {
			typ, rerr := rd.Next()
			if rerr != nil {
				readErrCh <- fmt.Errorf("remote: worker %d read: %w", task, rerr)
				return
			}
			switch typ {
			case wire.TypeResumeAck:
				if ackSeen {
					readErrCh <- fmt.Errorf("remote: worker %d sent frame type %d twice", task, typ)
					return
				}
				next, credit, rerr := rd.ReadResumeAck()
				if rerr != nil {
					readErrCh <- rerr
					return
				}
				ackSeen = true
				recCredit.Store(int64(credit))
				ackCh <- next
			case wire.TypeResult, wire.TypeCount:
				if typ == wire.TypeCount && f.collect {
					readErrCh <- fmt.Errorf("remote: worker %d sent a count frame in a session that collects pairs", task)
					return
				}
				first, n, rs, rerr := decodeNumbered(typ == wire.TypeResult, rd.Payload(), batch[:0])
				if rerr != nil {
					readErrCh <- rerr
					return
				}
				batch = rs
				switch {
				case started && first+n <= expected:
					// A duplicate of a frame this connection delivered.
					f.dupResults.Add(n)
					continue
				case started && first != expected:
					rerr = fmt.Errorf("remote: worker %d sent results numbered from %d, want %d", task, first, expected)
				case first+n <= got.results:
					// A replay of collected results: acknowledged, not kept.
					f.dupResults.Add(n)
				case first > got.results || typ == wire.TypeResult && first != got.results:
					rerr = fmt.Errorf("remote: worker %d sent results %d to %d, %d collected", task, first, first+n, got.results)
				default:
					if first < got.results { // a straddling Count replays its part below have
						f.dupResults.Add(got.results - first)
					}
					payload := rd.Payload()
					// A run that counts logs the count each frame adds.
					if !f.collect {
						count = wire.AppendCount(count[:0], got.results, first+n-got.results)
						payload = count
					}
					if aerr := f.durable.appendResults(task, payload); aerr != nil {
						// Fatal, not retried: a torn append may leave the log
						// unfit for the next one.
						rerr = fmt.Errorf("remote: results log append: %w", aerr)
						f.abort(rerr)
						break
					}
					got.results = first + n
					if f.collect {
						for _, res := range rs {
							got.pairs = append(got.pairs, record.Pair{First: res.A, Second: res.B, Sim: res.Sim})
						}
					}
				}
				if rerr != nil {
					readErrCh <- rerr
					return
				}
				// In order, a new frame (collected and, in a durable run,
				// logged) or a replay is acknowledgeable.
				started, expected = true, first+n
				resReceived.Add(n)
				f.kick(task)
			case wire.TypeCredit:
				n, rerr := rd.ReadCredit()
				if rerr != nil {
					readErrCh <- fmt.Errorf("remote: worker %d sent frame type %d: %w", task, typ, rerr)
					return
				}
				recCredit.Add(int64(n))
				f.kick(task)
			case wire.TypePong: // the stamp above is the point; one per ping
				if pings.Add(-1) < 0 {
					readErrCh <- fmt.Errorf("remote: worker %d sent frame type %d unasked", task, typ)
					return
				}
			case wire.TypeStats:
				st, rerr := rd.ReadStats()
				if rerr == nil && f.snaps != nil {
					rerr = f.readSnapshot(rd, task)
				}
				if rerr != nil {
					readErrCh <- rerr
					return
				}
				statsCh <- st
				return
			default:
				readErrCh <- fmt.Errorf("remote: worker %d sent frame type %d", task, typ)
				return
			}
		}
	}()

	// Watchdog: sever the connection when both directions have been silent
	// past the timeout, or on cancellation. Closing the conn unblocks any
	// blocked read or write above and below.
	hbStop := make(chan struct{})
	var eofDrained atomic.Bool
	aw.Add(1)
	go func() {
		defer aw.Done()
		t := time.NewTicker(f.ft.HeartbeatInterval)
		defer t.Stop()
		for {
			select {
			case <-hbStop:
				return
			case <-ctx.Done():
				conn.Close()
				return
			case <-t.C:
				if eofDrained.Load() {
					// Post-EOF the worker stops answering pings while it
					// drains and computes stats; only cancellation or a
					// transport error ends the wait from here.
					continue
				}
				last := lastIn.Load()
				if o := lastOut.Load(); o > last {
					last = o
				}
				if time.Duration(now()-last) > f.ft.HeartbeatTimeout {
					conn.Close()
					return
				}
			}
		}
	}()
	defer func() {
		close(hbStop)
		conn.Close()
		aw.Wait()
	}()

	var next uint64
	select {
	case next = <-ackCh:
	case rerr := <-readErrCh:
		return false, rerr
	case <-ctx.Done():
		return false, fmt.Errorf("remote: %w", ctx.Err())
	}

	// Handshake complete: resume at the first record the worker lacks.
	recs := f.recs
	pos := sort.Search(len(recs), func(i int) bool { return uint64(recs[i].ID) >= next })
	if !failSince.IsZero() {
		f.reconnects.Add(1)
		f.recovery.Observe(time.Since(failSince))
		f.journal.Append("reconnect", "coordinator",
			fmt.Sprintf("worker %d reconnected, resuming from id %d", task, next))
	}

	// drainReader parks until the reader goroutine is done after a write
	// failure: the worker may still be flushing results it has already
	// checkpointed as delivered, and abandoning them would break replay
	// exactness. The wait is bounded — the watchdog severs a silent
	// connection, which errors the reader out.
	drainReader := func() {
		eofDrained.Store(false) // rearm the watchdog to bound the wait
		select {
		case <-readErrCh:
		case <-statsCh:
		case <-ctx.Done():
		}
	}

	if task < len(f.seed) && len(f.seed[task]) > 0 {
		if werr := w.WriteSnapshot(f.seed[task]); werr != nil {
			drainReader()
			return true, fmt.Errorf("remote: seeding worker %d: %w", task, werr)
		}
	}

	ping := time.NewTicker(f.ft.HeartbeatInterval)
	defer ping.Stop()
	eofSent := false
	var acked uint64 // results acknowledged on this connection
	dsts := make([]int, 0, f.k)
	for {
		// Result acknowledgements flow before anything else — and crucially
		// regardless of record credit, or a worker withholding credit could
		// never drain its unacked buffer. A worker drops acknowledged
		// results from the front of its unacked buffer: sound because a
		// connection delivers frames in order with only tail loss, so the
		// results counted here are that front. In a durable run the sync
		// makes every acknowledged result durable whatever the WAL's
		// background fsync policy says. None flow after EOF: the worker
		// answers it with Stats and closes without reading further, so a
		// late credit would hit a closed connection and fail an attempt
		// that has in fact finished.
		if !eofSent {
			if d := resReceived.Load(); d > acked {
				if serr := f.durable.syncResults(); serr != nil {
					drainReader()
					return true, fmt.Errorf("remote: results log sync: %w", serr)
				}
				if werr := w.WriteCredit(d - acked); werr != nil {
					drainReader()
					return true, fmt.Errorf("remote: credit to worker %d: %w", task, werr)
				}
				acked = d
			}
		}

		// Route the ingested records from pos and send the task's, at most
		// what the worker granted. Out of credit, park below until a Credit
		// frame replenishes.
		if end, avail := int(f.ingested.Load()), recCredit.Load(); pos < end && avail > 0 {
			var sent, resent int64
			for ; pos < end && sent < avail; pos++ {
				r := recs[pos]
				if dsts = f.strat.Route(r, f.k, dsts[:0]); !slices.Contains(dsts, task) {
					continue
				}
				if werr := w.WriteRecordSide(f.strat.Stores(r, task, f.k), f.right != nil && f.right[pos], r); werr != nil {
					drainReader()
					return true, fmt.Errorf("remote: record to worker %d: %w", task, werr)
				}
				sent++
				if pos < *high {
					resent++
				}
			}
			if werr := w.Flush(); werr != nil {
				drainReader()
				return true, fmt.Errorf("remote: flush to worker %d: %w", task, werr)
			}
			f.tuples.Add(uint64(sent))
			f.replayed.Add(uint64(resent))
			recCredit.Add(-sent)
			*high = max(*high, pos)
			continue
		}

		if !eofSent && pos == len(recs) {
			// Flush while the watchdog still enforces the deadline, then
			// relax it: post-EOF stats can legitimately take a while with
			// nothing on the wire.
			if werr := w.Flush(); werr != nil {
				drainReader()
				return true, fmt.Errorf("remote: flush to worker %d: %w", task, werr)
			}
			eofDrained.Store(true)
			var werr error
			if f.snaps != nil {
				werr = w.WriteSnapshotReq()
			} else {
				werr = w.WriteEOF()
			}
			if werr != nil {
				drainReader()
				return true, fmt.Errorf("remote: eof to worker %d: %w", task, werr)
			}
			eofSent = true
		}

		if eofSent {
			select {
			case st := <-statsCh:
				f.stats[task] = st
				return true, nil
			case rerr := <-readErrCh:
				return true, rerr
			case <-ctx.Done():
				return true, fmt.Errorf("remote: %w", ctx.Err())
			}
		}

		select {
		case <-f.notify[task]:
		case rerr := <-readErrCh:
			return true, rerr
		case <-ping.C:
			pings.Add(1)
			if werr := w.WritePing(); werr != nil {
				drainReader()
				return true, fmt.Errorf("remote: ping to worker %d: %w", task, werr)
			}
		case <-ctx.Done():
			return true, fmt.Errorf("remote: %w", ctx.Err())
		}
	}
}

// readSnapshot reads the Snapshot frame a worker sends after its Stats
// when the stream ended with a SnapshotReq.
func (f *ftRunner) readSnapshot(rd *wire.Reader, task int) error {
	typ, err := rd.Next()
	if err != nil {
		return fmt.Errorf("remote: worker %d snapshot: %w", task, err)
	}
	if typ != wire.TypeSnapshot {
		return fmt.Errorf("remote: worker %d sent frame type %d, want snapshot", task, typ)
	}
	f.snaps[task] = rd.ReadSnapshot()
	return nil
}

// declareDead fails the run: worker task ran out of its retry budget.
func (f *ftRunner) declareDead(task, failures int, cause error) {
	f.dead.Add(1)
	f.journal.Append("worker_dead", "coordinator",
		fmt.Sprintf("worker %d declared dead after %d attempts: %v", task, failures, cause))
	f.abort(fmt.Errorf("remote: worker %d dead after %d attempts: %w", task, failures, cause))
}
