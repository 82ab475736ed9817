// The coordinator: Run, RunWithOpts, RunBi and RunFT drive one session
// loop (ftRunner.attempt), which survives worker crashes, hangs and flaky
// transports. Each worker gets a manager goroutine owning its connection
// lifecycle: heartbeat-based failure detection, bounded reconnection with
// exponential backoff, and recovery by window replay. A worker that
// exhausts the retry budget (none for the three that take connections) is
// declared dead, and the run fails.
//
// Recovery keeps nothing on the worker. For each task the coordinator
// keeps a mark (next, base): every task record with an ID below next has
// been probed, and the task's results numbered below base are exactly
// those probes' results. A worker's Credit frame names the ID after the
// last record it probed, written after that record's results on the same
// ordered connection, so when the coordinator reads it the mark becomes
// (that ID, base + the results the connection has delivered). A Credit
// written while the worker is still loading names no probe and leaves the
// mark alone: a mark never moves backwards. A reconnect
//
//   - sends, flagged load, the task's stored records below next that are
//     live at the stream's first record from next on. A task's join state
//     before a record is a function of the records routed to it and stored
//     there that are live at that record, and the window policies are
//     monotone in ID and time (which is why IDs must strictly increase and
//     times must not decrease), so the worker, loading them without
//     probing, meets each later record with the uninterrupted run's window;
//   - then sends the task's records from next on, to probe;
//   - and reads the connection's result numbers, which start at 0, as
//     offsets from base.
//
// Result dedup is one counter per task (have, the results collected),
// because a task's results are one fixed sequence however often its
// worker is interrupted:
//
//   - A pair (A, B), a bi session's too, is emitted while probing
//     B = max(A, B).
//   - A probe meets the uninterrupted run's window, so the task's records
//     fix the pairs of every probe, hence each probe's pair count and its
//     frames: a probe is one Result (or Count) frame or, past the frame
//     cap, its pairs sorted by partner and cut at the cap
//     (wire.Writer.WriteResults), whatever order the index found them in.
//   - base and have both sum whole probes' frames, so have falls on a frame
//     boundary of the re-probed sequence.
//
// So a connection's frames must be numbered 0, 1, 2, … without a gap, and
// a frame wholly below the connection's next number is a duplicate the
// transport injected and is dropped. An in-order frame wholly below have
// is a replay, not collected, and one that starts at have is new. A frame
// that straddles have breaks the argument above and fails the attempt.
package remote

import (
	"bytes"
	"context"
	"encoding/binary"
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
	"repro/internal/window"
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
	// HeartbeatTimeout is how long a Ping may go unanswered with nothing
	// read, and how long both directions may stay silent, before a
	// connection is considered hung and severed. Zero defaults to five
	// heartbeat intervals.
	HeartbeatTimeout time.Duration
	// SessionID names the run in every Hello, for the workers' journals,
	// and in a durable run's manifest.
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
	win     window.Policy
	ft      FT
	dial    Dialer
	journal *obs.Journal
	collect bool
	start   time.Time
	cancel  context.CancelFunc
	durable *durableState

	// recs is the caller's record stream, right each record's side in a bi
	// session (nil otherwise); ingested is how many of them the write
	// loops may send. seed holds each task's records before the stream,
	// decoded from Opts.Seed (nil when it has none).
	recs     []*record.Record
	right    []bool
	ingested atomic.Int64
	seed     []records
	notify   []chan struct{} // per-worker wakeups, capacity 1
	// recv holds each task's results: its have counter, its mark and,
	// when collecting, its pairs; stats holds its worker's final Stats.
	// Only the task's manager and the reader of its current attempt touch
	// them, and an attempt waits for its reader before it returns.
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
	// records sent again (loaded or re-probed), result pairs received
	// again, workers declared dead, and the time from a worker's first
	// failure to its reconnection.
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
		"Records sent again to workers during recovery, loaded or re-probed.", &f.replayed)
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
// connections are severed by the heartbeat watchdog, and a reconnected
// worker gets its window replayed and resumes at its task's mark. Bi
// sessions and snapshot options are not supported.
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
	if err := ordered(recs); err != nil {
		return nil, fmt.Errorf("remote: %w", err)
	}
	seed, err := decodeSeed(opts.Seed, workers, recs)
	if err != nil {
		return nil, err
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
		win:     sess.Window,
		ft:      ft,
		dial:    dial,
		journal: opts.Journal,
		collect: opts.CollectPairs,
		start:   time.Now(),
		cancel:  cancel,
		recs:    recs,
		right:   right,
		seed:    seed,
		notify:  make([]chan struct{}, workers),
		recv:    make([]received, workers),
		stats:   make([]wire.Stats, workers),
	}
	for i := range f.notify {
		f.notify[i] = make(chan struct{}, 1)
	}
	if ft.Registry != nil {
		f.publish(ft.Registry)
	}

	if f.win == nil {
		f.win = window.Unbounded{}
	}
	if ft.Durable != nil {
		resume := ft.Durable.Resume
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
			f.manage(rctx, task)
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

	sum := &RunSummary{Records: uint64(len(recs)), WorkerStats: f.stats}
	if opts.Snapshot {
		sum.Snapshots = f.snapshots()
	}
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
// handshake. high is how far into recs the task's records have been sent,
// so that a record below it that goes out again counts as replayed.
func (f *ftRunner) manage(ctx context.Context, task int) {
	failures, high := 0, 0
	var failSince time.Time
	for {
		handshook, err := f.attempt(ctx, task, failSince, &high)
		if handshook {
			failures, failSince = 0, time.Time{}
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

// attempt runs one connection's full lifecycle: dial, FT handshake, the
// task's window at its mark (seed records included), its records from the
// mark on, EOF and stats.
// handshook reports whether the handshake completed (resetting the
// manager's failure budget) regardless of how the attempt ended. A zero
// failSince marks the task's first connection or one after a finished
// attempt; any other is a reconnect.
func (f *ftRunner) attempt(ctx context.Context, task int, failSince time.Time, high *int) (handshook bool, err error) {
	conn, err := f.dial(ctx, task)
	if err != nil {
		return false, fmt.Errorf("remote: dialing worker %d: %w", task, err)
	}

	// Liveness stamps: nanoseconds since run start of the last inbound
	// read and the last completed outbound write. Progress on either
	// direction breaks a silence, but only a read answers for an owed
	// ping; blocked writes during a backlog still stamp per flushed chunk.
	var lastIn, lastOut atomic.Int64
	now := func() int64 { return int64(time.Since(f.start)) }
	lastIn.Store(now())
	lastOut.Store(now())
	cw := &countingWriter{w: conn, stamp: &lastOut, base: f.start}
	defer func() { f.bytes.Add(cw.n.Load()) }()
	w := wire.NewWriter(cw)

	h := f.hello
	h.Task = task
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
		recCredit atomic.Int64 // records the worker will currently accept
		// owed holds the send stamps of the pings not yet answered, oldest
		// first: a worker answers them in order.
		owedMu sync.Mutex
		owed   []int64
	)

	// got is the task's results; mark is where this connection starts, read
	// before the reader that moves the task's mark on.
	got := &f.recv[task]
	mark := got.mark
	ackCh := make(chan struct{}, 1)
	statsCh := make(chan wire.Stats, 1)
	readErrCh := make(chan error, 1)
	var aw sync.WaitGroup
	aw.Add(1)
	go func() {
		defer aw.Done()
		rd := wire.NewReader(&stampingReader{r: conn, stamp: &lastIn, base: f.start})
		ackSeen := false
		// expected is the number of the result this connection delivers
		// next, on the connection's own count from 0.
		var (
			batch    []wire.Result
			count    []byte
			expected uint64
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
				credit, rerr := rd.ReadResumeAck()
				if rerr != nil {
					readErrCh <- rerr
					return
				}
				ackSeen = true
				recCredit.Store(int64(credit))
				ackCh <- struct{}{}
			case wire.TypeResult, wire.TypeCount:
				if typ == wire.TypeCount && f.collect {
					readErrCh <- fmt.Errorf("remote: worker %d sent a count frame in a session that collects pairs", task)
					return
				}
				payload := rd.Payload()
				first, n, rs, rerr := decodeNumbered(typ == wire.TypeResult, payload, batch[:0])
				if rerr != nil {
					readErrCh <- rerr
					return
				}
				batch = rs
				at := mark.results + first // the task's number of the frame's first result
				switch {
				case first+n <= expected:
					// A duplicate of a frame this connection delivered.
					f.dupResults.Add(n)
					continue
				case first != expected:
					rerr = fmt.Errorf("remote: worker %d sent results numbered from %d, want %d", task, first, expected)
				case at+n <= got.results:
					// A replay of collected results.
					f.dupResults.Add(n)
				case at != got.results:
					rerr = fmt.Errorf("remote: worker %d sent results %d to %d, %d collected", task, at, at+n, got.results)
				default:
					// The log holds each frame numbered on the task's count:
					// a run that counts logs a Count payload.
					_, k := binary.Uvarint(payload)
					body := payload[k:]
					if !f.collect {
						typ, body = wire.TypeCount, binary.AppendUvarint(count[:0], n)
						count = body
					}
					if aerr := f.durable.appendResults(task, typ, at, body); aerr != nil {
						// Fatal, not retried: a torn append may leave the log
						// unfit for the next one.
						rerr = fmt.Errorf("remote: results log append: %w", aerr)
						f.abort(rerr)
						break
					}
					got.results = at + n
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
				expected = first + n
			case wire.TypeCredit:
				n, next, rerr := rd.ReadCredit()
				if rerr != nil {
					readErrCh <- fmt.Errorf("remote: worker %d sent frame type %d: %w", task, typ, rerr)
					return
				}
				if next > got.mark.next {
					// The results before this frame are its probes' results:
					// the mark moves on, and a durable run logs it after them.
					got.mark = taskMark{next: next, results: mark.results + expected}
					if aerr := f.durable.appendMark(task, got.mark); aerr != nil {
						rerr = fmt.Errorf("remote: results log append: %w", aerr)
						f.abort(rerr)
						readErrCh <- rerr
						return
					}
				}
				recCredit.Add(int64(n))
				f.kick(task)
			case wire.TypePong: // answers the oldest ping owed
				owedMu.Lock()
				n := len(owed)
				if n > 0 {
					owed = owed[:copy(owed, owed[1:])]
				}
				owedMu.Unlock()
				if n == 0 {
					readErrCh <- fmt.Errorf("remote: worker %d sent frame type %d unasked", task, typ)
					return
				}
			case wire.TypeStats:
				st, rerr := rd.ReadStats()
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

	// Watchdog: sever the connection, or on cancellation close it, when
	// its last sign of life is older than the timeout. While a ping is
	// owed that sign is the oldest owed ping's send or a later read:
	// writes do not count, for pings write, so a dead inbound side would
	// never fall silent; a read does, for a worker still sending Credits
	// or results is alive while its Pong waits behind up to a credit
	// window of records. With no ping owed it is progress either way,
	// which covers a Hello left unanswered and a write that blocks.
	// Closing the conn unblocks any blocked read or write above and below.
	hbStop := make(chan struct{})
	var eofSent atomic.Bool
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
				if eofSent.Load() {
					// Post-EOF the worker stops answering pings while it
					// drains and computes stats; only cancellation or a
					// transport error ends the wait from here.
					continue
				}
				last := max(lastIn.Load(), lastOut.Load())
				owedMu.Lock()
				if len(owed) > 0 {
					last = max(lastIn.Load(), owed[0])
				}
				owedMu.Unlock()
				if time.Duration(now()-last) > f.ft.HeartbeatTimeout {
					conn.Close()
					return
				}
			}
		}
	}()
	// A failed write returns at once: the results still in flight are the
	// next connection's to replay, so none is waited for.
	defer func() {
		close(hbStop)
		conn.Close()
		aw.Wait()
	}()

	select {
	case <-ackCh:
	case rerr := <-readErrCh:
		return false, rerr
	case <-ctx.Done():
		return false, fmt.Errorf("remote: %w", ctx.Err())
	}

	// Handshake complete. The task's window at recs[p] is loaded (windowAt),
	// then its records from p on are probed. With nothing left to probe,
	// nothing is loaded.
	recs, seed := f.recs, f.seed[task]
	p := sort.Search(len(recs), func(i int) bool { return uint64(recs[i].ID) >= mark.next })
	sp, pos := len(seed), p
	if p < len(recs) {
		sp, pos = f.windowAt(task, p, p)
	}
	if p > 0 && p < len(recs) {
		f.journal.Append("replay", "coordinator",
			fmt.Sprintf("worker %d: loading the window from record %d, probing from record %d, results from %d", task, pos, p, mark.results))
	}
	if !failSince.IsZero() {
		f.reconnects.Add(1)
		f.recovery.Observe(time.Since(failSince))
		f.journal.Append("reconnect", "coordinator",
			fmt.Sprintf("worker %d reconnected, resuming at id %d", task, mark.next))
	}

	ping := time.NewTicker(f.ft.HeartbeatInterval)
	defer ping.Stop()
	dsts := make([]int, 0, f.k)
	for {
		// Load the seed's records (never replays: a seeded run retries
		// nothing), then route the ingested records from pos and send the
		// task's, at most what the worker granted. Out of credit, park below
		// until a Credit frame replenishes.
		if end, avail := int(f.ingested.Load()), recCredit.Load(); (sp < len(seed) || pos < end) && avail > 0 {
			var (
				sent, resent int64
				werr         error
			)
			for ; sp < len(seed) && sent < avail && werr == nil; sp++ {
				werr = w.WriteLoad(false, seed[sp])
				sent++
			}
			for ; pos < end && sent < avail && werr == nil; pos++ {
				r := recs[pos]
				if dsts = f.strat.Route(r, f.k, dsts[:0]); !slices.Contains(dsts, task) {
					continue
				}
				store, right := f.strat.Stores(r, task, f.k), f.right != nil && f.right[pos]
				switch {
				case pos >= p:
					werr = w.WriteRecordSide(store, right, r)
				case store:
					werr = w.WriteLoad(right, r)
				default:
					continue
				}
				sent++
				if pos < *high {
					resent++
				}
			}
			if werr == nil {
				werr = w.Flush()
			}
			// A failed write counts as sent, so that the next connection
			// counts it as replayed.
			f.tuples.Add(uint64(sent))
			f.replayed.Add(uint64(resent))
			recCredit.Add(-sent)
			*high = max(*high, pos)
			if werr != nil {
				return true, fmt.Errorf("remote: record to worker %d: %w", task, werr)
			}
			continue
		}

		if pos == len(recs) {
			// Flush while the watchdog still enforces the deadline, then
			// relax it: post-EOF stats can legitimately take a while with
			// nothing on the wire.
			if werr := w.Flush(); werr != nil {
				return true, fmt.Errorf("remote: flush to worker %d: %w", task, werr)
			}
			eofSent.Store(true)
			if werr := w.WriteEOF(); werr != nil {
				return true, fmt.Errorf("remote: eof to worker %d: %w", task, werr)
			}
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
			owedMu.Lock()
			owed = append(owed, now())
			owedMu.Unlock()
			if werr := w.WritePing(); werr != nil {
				return true, fmt.Errorf("remote: ping to worker %d: %w", task, werr)
			}
		case <-ctx.Done():
			return true, fmt.Errorf("remote: %w", ctx.Err())
		}
	}
}

// declareDead fails the run: worker task ran out of its retry budget.
func (f *ftRunner) declareDead(task, failures int, cause error) {
	f.dead.Add(1)
	f.journal.Append("worker_dead", "coordinator",
		fmt.Sprintf("worker %d declared dead after %d attempts: %v", task, failures, cause))
	f.abort(fmt.Errorf("remote: worker %d dead after %d attempts: %w", task, failures, cause))
}

// ordered checks what window replay assumes of a task's records (package
// comment): IDs strictly increase and times do not decrease.
func ordered(rs []*record.Record) error {
	for i := 1; i < len(rs); i++ {
		if a, b := rs[i-1], rs[i]; b.ID <= a.ID || b.Time < a.Time {
			return fmt.Errorf("record %d (id %d, time %d) follows id %d, time %d; remote runs need strictly increasing ids and non-decreasing times", i, b.ID, b.Time, a.ID, a.Time)
		}
	}
	return nil
}

// records is a task's window in arrival order: checkpoint.Read loads a
// seed into it, and checkpoint.Write dumps a snapshot from it.
type records []*record.Record

func (rs *records) Load(r *record.Record) { *rs = append(*rs, r) }

func (rs records) Dump(visit func(*record.Record) bool) {
	for _, r := range rs {
		if !visit(r) {
			return
		}
	}
}

// decodeSeed decodes each task's Opts.Seed blob (an empty one starts the
// task empty). A seed and then recs must be ordered as one stream: window
// replay takes a seed's records for the task's first stored ones.
func decodeSeed(blobs [][]byte, workers int, recs []*record.Record) ([]records, error) {
	if len(blobs) > workers {
		return nil, fmt.Errorf("remote: %d seeds for %d workers", len(blobs), workers)
	}
	seed := make([]records, workers)
	for task, blob := range blobs {
		if len(blob) == 0 {
			continue
		}
		if _, _, err := checkpoint.Read(bytes.NewReader(blob), &seed[task]); err != nil {
			return nil, fmt.Errorf("remote: seed for task %d: %w", task, err)
		}
		if err := ordered(append(slices.Clip(seed[task]), recs[:min(1, len(recs))]...)); err != nil {
			return nil, fmt.Errorf("remote: seed for task %d, then the stream: %w", task, err)
		}
	}
	return seed, nil
}

// windowAt returns where task's window at recs[at] (all of it when at is
// -1) starts: its seed's records from sp, then those of recs[pos:end] routed
// to the task and stored there. The window is the task's join state (package
// comment): a connection loads it at its first probe, a snapshot is its end.
func (f *ftRunner) windowAt(task, end, at int) (sp, pos int) {
	if at < 0 {
		return 0, 0
	}
	x, seed := f.recs[at], f.seed[task]
	live := func(r *record.Record) bool { return f.win.Live(r.ID, r.Time, x.ID, x.Time) }
	return sort.Search(len(seed), func(i int) bool { return live(seed[i]) }),
		sort.Search(end, func(i int) bool { return live(f.recs[i]) })
}

// snapshots writes each task's window after the stream's last record as a
// checkpoint with a zero cursor, what a later run's Opts.Seed takes.
func (f *ftRunner) snapshots() [][]byte {
	blobs := make([][]byte, f.k)
	dsts := make([]int, 0, f.k)
	for task := range blobs {
		sp, pos := f.windowAt(task, len(f.recs), len(f.recs)-1)
		win := slices.Clone(f.seed[task][sp:])
		for _, r := range f.recs[pos:] {
			if dsts = f.strat.Route(r, f.k, dsts[:0]); slices.Contains(dsts, task) && f.strat.Stores(r, task, f.k) {
				win = append(win, r)
			}
		}
		var buf bytes.Buffer
		checkpoint.Write(&buf, checkpoint.Cursor{}, win) //nolint:errcheck — a bytes.Buffer does not fail
		blobs[task] = buf.Bytes()
	}
	return blobs
}
