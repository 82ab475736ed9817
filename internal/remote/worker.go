package remote

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"time"

	"repro/internal/dispatch"
	"repro/internal/local"
	"repro/internal/obs"
	"repro/internal/record"
	"repro/internal/wire"
)

// WorkerOpts configures the optional capabilities of a worker: monitoring
// counters, logging and a journal. The zero value is a plain worker.
type WorkerOpts struct {
	// Mon feeds the worker monitor's counters when non-nil.
	Mon *Monitor
	// Logf receives operational log lines; nil means log.Printf.
	Logf func(format string, args ...interface{})
	// Journal receives worker lifecycle events (session start/end,
	// duplicate summaries, kernel mix); nil disables.
	Journal *obs.Journal
}

func (o WorkerOpts) logf(format string, args ...interface{}) {
	if o.Logf != nil {
		o.Logf(format, args...)
		return
	}
	log.Printf(format, args...)
}

// ServeWorker accepts coordinator connections on ln and runs one join
// session per connection until ln is closed or ctx is cancelled. Sessions
// run concurrently; each owns its joiner. The returned error is nil when
// the listener was closed; in-flight sessions are drained before return.
func ServeWorker(ctx context.Context, ln net.Listener, logf func(format string, args ...interface{})) error {
	return ServeWorkerOpts(ctx, ln, WorkerOpts{Logf: logf})
}

// ServeWorkerOpts is ServeWorker with the full option set.
func ServeWorkerOpts(ctx context.Context, ln net.Listener, o WorkerOpts) error {
	mon := o.Mon
	stopCancel := context.AfterFunc(ctx, func() { ln.Close() })
	defer stopCancel()
	var wg sync.WaitGroup
	defer wg.Wait() // graceful drain: finish in-flight sessions first
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		wg.Add(1)
		go func(conn net.Conn) {
			defer wg.Done()
			defer conn.Close()
			stopConn := context.AfterFunc(ctx, func() { conn.Close() })
			defer stopConn()
			if mon != nil {
				mon.SessionsStarted.Add(1)
			}
			start := time.Now()
			err := HandleSessionOpts(ctx, conn, conn, o)
			if mon != nil {
				mon.SessionLatency.Observe(time.Since(start))
			}
			if err != nil {
				if mon != nil {
					mon.SessionsFailed.Add(1)
				}
				o.logf("remote worker: session ended with error: %v", err)
			} else if mon != nil {
				mon.SessionsFinished.Add(1)
			}
		}(conn)
	}
}

// HandleSession runs one worker-side join session over the given
// reader/writer pair (a TCP connection in production, an in-memory pipe in
// tests). It returns when the coordinator sends EOF (nil error), the
// stream breaks, or ctx is cancelled between frames. Callers streaming
// over a blocking transport should additionally arrange for cancellation
// to close the transport (ServeWorker does).
func HandleSession(ctx context.Context, r io.Reader, w io.Writer) error {
	return HandleSessionOpts(ctx, r, w, WorkerOpts{})
}

// workerRecordWindow is the per-connection record credit an FT worker
// grants in its resume ack; half of it is the replenishment batch, so a
// worker's Credit frames move its task's mark every half window. A
// variable only so that tests can move marks without thousands of records.
var workerRecordWindow uint64 = 4096

// HandleSessionOpts is HandleSession with the full worker option set.
//
// Fault-tolerant sessions (Hello flag FT) extend the plain protocol:
//
//   - a ResumeAck frame answers the hello with the initial record credit,
//     replenished with Credit frames as records are consumed; each Credit
//     also names the last record probed on the connection, after that
//     probe's results, which is where the coordinator resumes the task
//     should the connection break;
//   - before its first record to probe, a reconnected or seeded session
//     receives the stored records of its window flagged load, and loads
//     them without probing: the worker keeps no state between
//     connections, and numbers its results from 0 on each;
//   - Ping frames are answered with a flushed Pong;
//   - a record (loaded or probed) whose ID is not above the last one is
//     dropped as a duplicate (the fault-injection harness can duplicate
//     frames outright).
func HandleSessionOpts(ctx context.Context, r io.Reader, w io.Writer, o WorkerOpts) error {
	mon := o.Mon
	wr := wire.NewWriter(w)
	rd := wire.NewReader(r)

	typ, err := rd.Next()
	if err != nil {
		return fmt.Errorf("remote: reading hello: %w", err)
	}
	// The handshake frame is consumed before the dispatch loop starts.
	if typ != wire.TypeHello {
		return fmt.Errorf("remote: expected hello, got frame type %d", typ)
	}
	h, err := rd.ReadHello()
	if err != nil {
		return err
	}
	sess, strat, err := sessionFromHello(h)
	if err != nil {
		return err
	}
	comp := fmt.Sprintf("worker/%d", h.Task)
	o.Journal.Append("session_start", comp,
		fmt.Sprintf("session %016x task %d/%d ft=%v", h.SessionID, h.Task, h.Workers, h.FT))
	t := dispatch.NewTask(strat, h.Task, h.Workers, sess.Algorithm,
		local.Options{Params: sess.Params, Window: sess.Window, Bundle: sess.Bundle}, sess.Bi, !h.CountOnly)
	if h.FT {
		if err := wr.WriteResumeAck(workerRecordWindow); err != nil {
			return fmt.Errorf("remote: writing resume ack: %w", err)
		}
	}

	// send writes the n results of the probe of id as one Count frame, or
	// as one Result frame of the step's pairs, built in the reused batch.
	var batch []wire.Result
	send := func(id record.ID, n int) error {
		if mon != nil {
			mon.ResultsEmitted.Add(uint64(n))
		}
		if h.CountOnly {
			return wr.WriteCount(uint64(n))
		}
		batch = batch[:0]
		for _, p := range t.TakePairs() {
			batch = append(batch, wire.Result{A: p.First, B: p.Second, Sim: p.Sim})
		}
		return wr.WriteResults(id, batch)
	}

	// probed is the ID after the last record the session probed, 0 while
	// it has probed none: the mark its Credit frames carry. lastID, once
	// seen, is the last record it loaded or probed; a record at or below
	// it is a duplicate.
	seen := false
	var probed, lastID, loaded, dups, consumed uint64
	done := ctx.Done() // a receive, unlike ctx.Err(), takes no lock
	loop := func() error {
		for {
			select {
			case <-done:
				return fmt.Errorf("remote: session cancelled: %w", ctx.Err())
			default:
			}
			typ, err := rd.Next()
			if err != nil {
				return fmt.Errorf("remote: reading frame: %w", err)
			}
			switch typ {
			case wire.TypePing:
				if err := wr.WritePong(); err != nil {
					return fmt.Errorf("remote: writing pong: %w", err)
				}
			case wire.TypeRecord:
				rt, err := rd.ReadRecord()
				if err != nil {
					return err
				}
				id := uint64(rt.Rec.ID)
				switch {
				case rt.Load && probed > 0:
					return fmt.Errorf("remote: load record %d after probed record %d", id, probed-1)
				case h.FT && seen && id <= lastID:
					// An injected duplicate frame: the window already holds
					// this record.
					if mon != nil {
						mon.DuplicateRecords.Add(1)
					}
					dups++
				case rt.Load:
					t.Load(rt.Rec, rt.Right)
					if loaded++; loaded == 1 && mon != nil {
						mon.SessionsResumed.Add(1)
					}
					lastID, seen = id, true
				default:
					var rstart time.Time
					if mon != nil {
						rstart = time.Now()
						mon.RecordsSeen.Add(1)
						mon.InFlightRecords.Add(1)
					}
					n := t.Step(rt.Rec, rt.Right, rt.Store)
					if mon != nil {
						mon.RecordLatency.Observe(time.Since(rstart))
					}
					// One frame per probe with matches, written before the
					// record becomes the mark, so that a mark never covers
					// unsent results.
					var writeErr error
					if n > 0 {
						writeErr = send(rt.Rec.ID, n)
					}
					if mon != nil {
						mon.InFlightRecords.Add(-1)
					}
					if writeErr != nil {
						return fmt.Errorf("remote: writing result: %w", writeErr)
					}
					probed, lastID, seen = id+1, id, true
				}
				if h.FT {
					// Return the coordinator's record credit in half-window
					// batches, after the step. Duplicates count too: the
					// coordinator spent credit on every frame it sent.
					if consumed++; consumed >= workerRecordWindow/2 {
						if cerr := wr.WriteCredit(consumed, probed); cerr != nil {
							return fmt.Errorf("remote: writing credit: %w", cerr)
						}
						consumed = 0
					}
				}
			case wire.TypeEOF:
				c := t.Cost()
				return wr.WriteStats(wire.Stats{
					Probes: c.Probes, Stored: c.Stored, Scanned: c.Scanned,
					Candidates: c.Candidates, Verified: c.Verified,
					Results: c.Results, VerifySteps: c.VerifySteps,
					Postings: c.Postings,
				})
			default:
				return fmt.Errorf("remote: unexpected frame type %d", typ)
			}
		}
	}
	err = loop()
	if o.Journal != nil {
		if dups > 0 {
			o.Journal.Append("duplicates", comp,
				fmt.Sprintf("session %016x dropped %d duplicate records via the replay filter", h.SessionID, dups))
		}
		if st, ok := t.BundleStats(); ok && st.KernelLinear+st.KernelGallop > 0 {
			o.Journal.Append("kernel_mix", comp,
				fmt.Sprintf("session %016x verify kernels: linear=%d gallop=%d",
					h.SessionID, st.KernelLinear, st.KernelGallop))
		}
		status := "clean"
		if err != nil {
			status = "error: " + err.Error()
		}
		o.Journal.Append("session_end", comp,
			fmt.Sprintf("session %016x ended (%s), %d records loaded, %d results", h.SessionID, status, loaded, t.Results()))
	}
	return err
}
