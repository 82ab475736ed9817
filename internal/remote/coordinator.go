package remote

import (
	"context"
	"fmt"
	"io"
	"net"
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
	// TuplesSent counts the records sent to workers, loaded ones included,
	// BytesSent every byte the coordinator wrote (records, and hello and
	// ping frames).
	TuplesSent, BytesSent uint64
	// WorkerStats are the per-worker final counters, indexed by task.
	WorkerStats []wire.Stats
	// Snapshots holds each task's window checkpoint when requested via
	// Opts.Snapshot, indexed by task.
	Snapshots [][]byte
	// Retries counts failed connection attempts, Reconnects successful
	// recoveries, and ReplayedRecords the records sent to a worker again
	// after those recoveries: its window's, to load, and those it probes
	// again.
	Retries, Reconnects, ReplayedRecords uint64
}

// Opts tunes a remote run beyond the session parameters.
type Opts struct {
	// CollectPairs returns every result pair in the summary.
	CollectPairs bool
	// Seed holds each task's window before the stream, a prior run's
	// Snapshots (nil entries start empty). Its IDs must strictly increase
	// and stay below the stream's first, and its times not pass its first.
	Seed [][]byte
	// Snapshot returns each task's window after the stream, written by the
	// coordinator from its own records, in RunSummary.Snapshots.
	Snapshot bool
	// Journal receives coordinator lifecycle events; nil disables.
	Journal *obs.Journal
}

// countingWriter tallies bytes crossing a connection, and each completed
// write stores its offset from base in stamp: the outbound half of the
// liveness signal.
type countingWriter struct {
	w     io.Writer
	n     atomic.Uint64
	stamp *atomic.Int64
	base  time.Time
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n.Add(uint64(n))
	c.stamp.Store(int64(time.Since(c.base)))
	return n, err
}

// stampingReader stores, after each read that returned bytes, the read's
// offset from base in stamp: the inbound half of the liveness signal, one
// clock read per read of the connection rather than per frame.
type stampingReader struct {
	r     io.Reader
	stamp *atomic.Int64
	base  time.Time
}

func (s *stampingReader) Read(p []byte) (int, error) {
	n, err := s.r.Read(p)
	if n > 0 {
		s.stamp.Store(int64(time.Since(s.base)))
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
// collects results and final stats. It drives RunFT's session loop with
// FT{}: no retries, so the first transport failure fails the run, and a
// connection that leaves a ping unanswered, or falls silent, past the
// default HeartbeatTimeout is severed. Record
// IDs must strictly increase. Run closes every connection it was given
// before it returns; cancelling ctx aborts the run.
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
	return runConns(ctx, conns, sess, rs, right, opts)
}

// RunWithOpts is Run with snapshot seeding and collection.
func RunWithOpts(ctx context.Context, conns []io.ReadWriter, sess Session, recs []*record.Record, opts Opts) (*RunSummary, error) {
	if sess.Bi {
		return nil, fmt.Errorf("remote: use RunBi for bi sessions")
	}
	return runConns(ctx, conns, sess, recs, nil, opts)
}

// runConns runs a session over the caller's connections, task i's over
// conns[i]. right, when non-nil, holds each record's side in a bi session.
func runConns(ctx context.Context, conns []io.ReadWriter, sess Session, recs []*record.Record, right []bool, opts Opts) (*RunSummary, error) {
	given := make([]io.ReadWriteCloser, len(conns))
	for i, c := range conns {
		rwc, ok := c.(io.ReadWriteCloser)
		if !ok {
			rwc = nopCloser{c}
		}
		given[i] = rwc
		defer rwc.Close()
	}
	// FT{} retries nothing, so each task dials once.
	dial := func(_ context.Context, task int) (io.ReadWriteCloser, error) { return given[task], nil }
	return runFT(ctx, dial, len(conns), sess, recs, right, opts, FT{})
}

// nopCloser is a connection that cannot be closed: a watchdog or a
// cancellation cannot unblock it.
type nopCloser struct{ io.ReadWriter }

func (nopCloser) Close() error { return nil }

// received is one task's share of the result traffic, and its recovery
// mark; the shares are summed once every task has finished, so no lock is
// taken per frame.
type received struct {
	results uint64
	mark    taskMark
	pairs   []record.Pair
}

// taskMark is a task's recovery mark: every task record with an ID below
// next has been probed, and the task's results numbered below results are
// exactly those probes' results.
type taskMark struct{ next, results uint64 }

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
