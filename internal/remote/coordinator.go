package remote

import (
	"context"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/record"
	"repro/internal/wire"
)

// RunSummary reports a completed remote join.
type RunSummary struct {
	Records uint64
	Results uint64
	// Pairs holds results when collection was requested.
	Pairs []record.Pair
	// Elapsed covers dispatch through the last worker's stats frame.
	Elapsed time.Duration
	// TuplesSent and BytesSent count coordinator→worker record traffic —
	// real serialized bytes this time, not an estimate.
	TuplesSent, BytesSent uint64
	// WorkerStats are the per-worker final counters, indexed by task.
	WorkerStats []wire.Stats
	// Snapshots holds each worker's window checkpoint when requested via
	// Opts.Snapshot, indexed by task.
	Snapshots [][]byte
	// Retries counts failed connection attempts, Reconnects successful
	// recoveries, and ReplayedRecords the records re-sent to a worker after
	// those recoveries (FT runs).
	Retries, Reconnects, ReplayedRecords uint64
}

// Opts tunes a remote run beyond the session parameters.
type Opts struct {
	// CollectPairs returns every result pair in the summary.
	CollectPairs bool
	// Seed restores worker windows from per-task snapshot blobs before the
	// record stream (nil entries start empty). Produce blobs with a prior
	// run's Opts.Snapshot.
	Seed [][]byte
	// Snapshot asks every worker to return its window state after the
	// stream; the blobs land in RunSummary.Snapshots.
	Snapshot bool
	// Journal receives coordinator lifecycle events; nil disables.
	Journal *obs.Journal
}

// countingWriter tallies bytes crossing a connection. When stamp is set,
// each completed write stores its offset from base there — the outbound
// half of the FT liveness signal.
type countingWriter struct {
	w     io.Writer
	n     atomic.Uint64
	stamp *atomic.Int64
	base  time.Time
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n.Add(uint64(n))
	if c.stamp != nil {
		c.stamp.Store(int64(time.Since(c.base)))
	}
	return n, err
}

// Dial connects to every worker address. Cancelling ctx aborts in-flight
// dials; timeout bounds each individual dial on top of that.
func Dial(ctx context.Context, addrs []string, timeout time.Duration) ([]net.Conn, error) {
	d := net.Dialer{Timeout: timeout}
	conns := make([]net.Conn, 0, len(addrs))
	for _, a := range addrs {
		c, err := d.DialContext(ctx, "tcp", a)
		if err != nil {
			for _, done := range conns {
				done.Close()
			}
			return nil, fmt.Errorf("remote: dialing %s: %w", a, err)
		}
		conns = append(conns, c)
	}
	return conns, nil
}

// Run executes one join session over the given worker connections: it
// handshakes every worker, routes each record per the session strategy
// (sending the store flag to the record's home copy), signals EOF, and
// collects results and final stats. Connections are left open; callers own
// their lifecycle. Cancelling ctx aborts the dispatch loop and closes any
// closable connections to unblock the result readers.
func Run(ctx context.Context, conns []io.ReadWriter, sess Session, recs []*record.Record, collectPairs bool) (*RunSummary, error) {
	return RunWithOpts(ctx, conns, sess, recs, Opts{CollectPairs: collectPairs})
}

// BiRecord tags a record with its stream side for two-stream sessions.
type BiRecord struct {
	Rec   *record.Record
	Right bool
}

// RunBi executes a two-stream join session: records match only across
// sides. The session must have Bi set; snapshot options are rejected.
func RunBi(ctx context.Context, conns []io.ReadWriter, sess Session, recs []BiRecord, opts Opts) (*RunSummary, error) {
	if !sess.Bi {
		return nil, fmt.Errorf("remote: RunBi requires Session.Bi")
	}
	if opts.Snapshot || len(opts.Seed) > 0 {
		return nil, fmt.Errorf("remote: snapshots unsupported for bi sessions")
	}
	rs := make([]*record.Record, len(recs))
	right := make([]bool, len(recs))
	for i, br := range recs {
		rs[i], right[i] = br.Rec, br.Right
	}
	return runSession(ctx, conns, sess, rs, right, opts)
}

// RunWithOpts is Run with snapshot seeding and collection.
func RunWithOpts(ctx context.Context, conns []io.ReadWriter, sess Session, recs []*record.Record, opts Opts) (*RunSummary, error) {
	if sess.Bi {
		return nil, fmt.Errorf("remote: use RunBi for bi sessions")
	}
	return runSession(ctx, conns, sess, recs, nil, opts)
}

// received is one reader goroutine's share of the result traffic; the
// shares are summed once every reader has finished, so no lock is taken
// per frame.
type received struct {
	results uint64
	pairs   []record.Pair
}

// readNumbered decodes rd's staged Result or Count frame: its first result
// number, its count, and a Result frame's pairs appended to dst.
func readNumbered(rd *wire.Reader, typ byte, collect bool, dst []wire.Result) (first, n uint64, rs []wire.Result, err error) {
	if typ == wire.TypeCount && collect {
		return 0, 0, dst, fmt.Errorf("remote: a count frame in a session that collects pairs")
	}
	return decodeNumbered(typ == wire.TypeResult, rd.Payload(), dst)
}

// decodeNumbered decodes a Result payload when pairs is set, else a Count
// payload: its first result number, its count, and its pairs appended to
// dst.
func decodeNumbered(pairs bool, body []byte, dst []wire.Result) (first, n uint64, rs []wire.Result, err error) {
	if !pairs {
		first, n, err = wire.DecodeCount(body)
		return first, n, dst, err
	}
	first, rs, err = wire.DecodeResults(dst, body)
	return first, uint64(len(rs) - len(dst)), rs, err
}

// runSession dispatches recs; right, when non-nil, holds each record's
// side in a bi session.
func runSession(ctx context.Context, conns []io.ReadWriter, sess Session, recs []*record.Record, right []bool, opts Opts) (*RunSummary, error) {
	k := len(conns)
	if k == 0 {
		return nil, fmt.Errorf("remote: no workers")
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("remote: %w", err)
	}
	h, strat, err := sess.Plan(k)
	if err != nil {
		return nil, err
	}
	h.CountOnly = !opts.CollectPairs

	writers := make([]*wire.Writer, k)
	counters := make([]*countingWriter, k)
	for i, c := range conns {
		cw := &countingWriter{w: c}
		counters[i] = cw
		writers[i] = wire.NewWriter(cw)
	}

	opts.Journal.Append("session_start", "coordinator",
		fmt.Sprintf("dispatching %d records to %d workers", len(recs), k))
	start := time.Now()
	for i, w := range writers {
		h.Task = i
		if err := w.WriteHello(h); err != nil {
			return nil, fmt.Errorf("remote: hello to worker %d: %w", i, err)
		}
	}

	// Seed worker windows before the record stream.
	for i, w := range writers {
		if i < len(opts.Seed) && len(opts.Seed[i]) > 0 {
			if err := w.WriteSnapshot(opts.Seed[i]); err != nil {
				return nil, fmt.Errorf("remote: seeding worker %d: %w", i, err)
			}
		}
	}

	// Result readers: one per worker, running until its Stats frame (plus
	// a trailing snapshot frame when requested).
	sum := &RunSummary{Records: uint64(len(recs)), WorkerStats: make([]wire.Stats, k)}
	if opts.Snapshot {
		sum.Snapshots = make([][]byte, k)
	}
	recv := make([]received, k)
	var (
		wg      sync.WaitGroup
		readErr = make(chan error, k)
	)

	// Cancellation closes every closable connection, which unblocks both
	// the reader goroutines and the dispatch loop below.
	stopCancel := context.AfterFunc(ctx, func() {
		for _, c := range conns {
			if cl, ok := c.(io.Closer); ok {
				cl.Close()
			}
		}
	})
	defer stopCancel()
	for i, c := range conns {
		wg.Add(1)
		go func(task int, r io.Reader) {
			defer wg.Done()
			rd := wire.NewReader(r)
			// Counted in a local and stored once: readers writing
			// neighbouring recv slots per frame would share a cache line.
			var (
				got   received
				batch []wire.Result
			)
			defer func() { recv[task] = got }()
			for {
				typ, err := rd.Next()
				if err != nil {
					readErr <- fmt.Errorf("remote: worker %d read: %w", task, err)
					return
				}
				switch typ {
				case wire.TypeResult, wire.TypeCount:
					// A worker numbers its results from 0 without a gap.
					var first, n uint64
					first, n, batch, err = readNumbered(rd, typ, opts.CollectPairs, batch[:0])
					if err == nil && first != got.results {
						err = fmt.Errorf("remote: worker %d sent results numbered from %d, want %d", task, first, got.results)
					}
					if err != nil {
						readErr <- err
						return
					}
					got.results += n
					if opts.CollectPairs {
						for _, res := range batch {
							got.pairs = append(got.pairs, record.Pair{First: res.A, Second: res.B, Sim: res.Sim})
						}
					}
				case wire.TypeStats:
					st, err := rd.ReadStats()
					if err != nil {
						readErr <- err
						return
					}
					sum.WorkerStats[task] = st
					if !opts.Snapshot {
						return
					}
					typ, err := rd.Next()
					if err != nil {
						readErr <- fmt.Errorf("remote: worker %d snapshot: %w", task, err)
						return
					}
					// The snapshot follows Stats outside the switch.
					if typ != wire.TypeSnapshot {
						readErr <- fmt.Errorf("remote: worker %d sent frame %d, want snapshot", task, typ)
						return
					}
					sum.Snapshots[task] = rd.ReadSnapshot()
					return
				default:
					readErr <- fmt.Errorf("remote: worker %d sent frame type %d", task, typ)
					return
				}
			}
		}(i, c)
	}

	// Dispatch loop.
	var tuples uint64
	buf := make([]int, 0, k)
	dispatchErr := func() error {
		for i, r := range recs {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("remote: %w", err)
			}
			side := right != nil && right[i]
			buf = strat.Route(r, k, buf[:0])
			for _, dst := range buf {
				if err := writers[dst].WriteRecordSide(strat.Stores(r, dst, k), side, r); err != nil {
					return fmt.Errorf("remote: record to worker %d: %w", dst, err)
				}
				tuples++
			}
		}
		for i, w := range writers {
			var err error
			if opts.Snapshot {
				err = w.WriteSnapshotReq()
			} else {
				err = w.WriteEOF()
			}
			if err != nil {
				return fmt.Errorf("remote: eof to worker %d: %w", i, err)
			}
		}
		return nil
	}()

	if dispatchErr != nil {
		// Unblock readers on workers that will never see EOF.
		for _, c := range conns {
			if cl, ok := c.(io.Closer); ok {
				cl.Close()
			}
		}
	}
	wg.Wait()
	close(readErr)
	if err := ctx.Err(); err != nil {
		// Reader and dispatch failures after cancellation are fallout from
		// the closed connections; report the cancellation itself.
		return nil, fmt.Errorf("remote: %w", err)
	}
	if dispatchErr != nil {
		return nil, dispatchErr
	}
	for err := range readErr {
		if err != nil {
			return nil, err
		}
	}
	for _, got := range recv {
		sum.Results += got.results
		sum.Pairs = append(sum.Pairs, got.pairs...)
	}
	sum.Elapsed = time.Since(start)
	sum.TuplesSent = tuples
	for _, cw := range counters {
		sum.BytesSent += cw.n.Load()
	}
	opts.Journal.Append("session_end", "coordinator",
		fmt.Sprintf("%d records dispatched, %d results in %v", sum.Records, sum.Results, sum.Elapsed.Round(time.Millisecond)))
	return sum, nil
}
