package remote

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/bundle"
	"repro/internal/checkpoint"
	"repro/internal/dispatch"
	"repro/internal/local"
	"repro/internal/obs"
	"repro/internal/record"
	"repro/internal/wire"
)

// WorkerOpts configures the optional capabilities of a worker: monitoring
// counters, logging, and fault-tolerant checkpointing. The zero value is a
// plain worker.
type WorkerOpts struct {
	// Mon feeds the worker monitor's counters when non-nil.
	Mon *Monitor
	// Logf receives operational log lines; nil means log.Printf.
	Logf func(format string, args ...interface{})
	// CheckpointDir enables window checkpointing for fault-tolerant
	// sessions: periodic snapshots land here (one file per session/task)
	// and resuming coordinators are answered from them. Empty disables
	// checkpointing — FT sessions then always resume from scratch.
	CheckpointDir string
	// CheckpointInterval is the minimum spacing between periodic window
	// checkpoints. Zero checkpoints only when a session ends uncleanly
	// (connection break, cancellation) — the cheapest useful setting.
	CheckpointInterval time.Duration
	// Journal receives worker lifecycle events (session start/end,
	// checkpoint, resume, duplicate summaries, kernel mix); nil disables.
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

// ServeWorkerOpts is ServeWorker with the full option set, including
// fault-tolerant checkpointing.
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

// checkpointPath names the checkpoint file for one FT session/task pair.
func checkpointPath(dir string, sessionID uint64, task int) string {
	return filepath.Join(dir, fmt.Sprintf("ckpt-%016x-t%03d.ckpt", sessionID, task))
}

// Worker-side flow-control parameters of fault-tolerant sessions.
const (
	// workerRecordWindow is the per-connection record credit granted in the
	// resume ack; half of it is the replenishment batch.
	workerRecordWindow = 4096
	// An FT session withholds record credit while its unacked pair
	// buffer holds unackedHigh pairs or more, and grants what it withheld
	// once acknowledgements bring the buffer to unackedLow or below. The
	// coordinator can send at most workerRecordWindow records past the
	// crossing, so the buffer holds at most unackedHigh +
	// workerRecordWindow × (the most pairs one record emits), across
	// reconnects too. A CountOnly session buffers none and never withholds.
	unackedHigh = 8192
	unackedLow  = 4096
)

// writeCheckpointFile atomically replaces path with a fresh checkpoint of
// j at cursor cur behind the session envelope meta (plan hash, unacked
// results): write to a temp file, then rename.
func writeCheckpointFile(path string, cur checkpoint.Cursor, j local.Joiner, meta *checkpoint.SessionMeta) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	err = checkpoint.WriteSessionHeader(f, *meta)
	if err == nil {
		err = checkpoint.Write(f, cur, j)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// HandleSessionOpts is HandleSession with the full worker option set.
//
// Fault-tolerant sessions (Hello flag FT) extend the plain protocol:
//
//   - a ResumeAck frame answers the hello, carrying the next record ID the
//     worker expects — restored from its checkpoint when the hello asked
//     to resume (and one exists), zero otherwise — plus the initial record
//     credit, replenished with Credit frames as records are consumed;
//   - results are numbered per session ID and task, across connections:
//     the checkpoint keeps the number of the first unacknowledged one;
//   - every result pair stays in an unacked buffer until a coordinator
//     Credit frame acknowledges it, and the session withholds record
//     credit while that buffer is at unackedHigh, which bounds it; a
//     CountOnly session's results are one number, never withheld on;
//   - a hello with FT set but Resume clear discards any stale checkpoint
//     for the session: the coordinator starts this worker's state from
//     scratch (a fresh run) and a later resume must not revive older
//     state;
//   - Ping frames are answered with a flushed Pong;
//   - records with IDs at or below the resume cursor are dropped as
//     duplicates (the coordinator replays at least the lost tail, and the
//     fault-injection harness can duplicate frames outright);
//   - the window is checkpointed periodically (CheckpointInterval) and on
//     any unclean exit, behind an envelope holding the plan hash and the
//     unacked buffer, and the checkpoint is removed on a clean EOF.
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
	if h.FT && sess.Bi {
		return errors.New("remote: fault-tolerant bi sessions unsupported")
	}
	planHash := h.PlanHash()
	comp := fmt.Sprintf("worker/%d", h.Task)
	o.Journal.Append("session_start", comp,
		fmt.Sprintf("session %016x task %d/%d ft=%v resume=%v", h.SessionID, h.Task, h.Workers, h.FT, h.Resume))
	opts := local.Options{Params: sess.Params, Window: sess.Window, Bundle: sess.Bundle}
	var (
		joiner local.Joiner
		bi     *local.BiJoiner
	)
	if sess.Bi {
		bi = local.NewBi(sess.Algorithm, opts)
	} else {
		joiner = local.New(sess.Algorithm, opts)
	}

	// FT handshake: restore or discard the checkpoint, then ack the cursor.
	ckptPath := ""
	if h.FT && o.CheckpointDir != "" {
		ckptPath = checkpointPath(o.CheckpointDir, h.SessionID, h.Task)
	}
	var (
		lastID   uint64
		lastTime int64
		haveLast bool
		// unacked is the FT result buffer: every pair emitted but not yet
		// acknowledged by a coordinator Credit frame, in emission order,
		// which is the session's results numbered acked onwards. Restored
		// from the checkpoint's envelope on resume and re-sent after the
		// ack; a CountOnly session's is empty, and acked counts its results.
		acked   uint64
		unacked []wire.Result
		// withholding is set while the session keeps the record credit of
		// consumed records back (unackedHigh); consumed counts the records
		// whose credit is not yet returned.
		withholding bool
		consumed    uint64
	)
	if h.FT {
		next := uint64(0)
		if h.Resume && ckptPath != "" {
			if blob, rerr := os.ReadFile(ckptPath); rerr == nil {
				startFresh := func(why error) {
					// A torn or stale file must not poison the session:
					// drop the partially-loaded joiner and start fresh.
					o.logf("remote worker: checkpoint %s unreadable, starting fresh: %v", ckptPath, why)
					joiner = local.New(sess.Algorithm, opts)
				}
				meta, body, herr := checkpoint.ReadSessionHeader(bytes.NewReader(blob))
				if herr != nil {
					startFresh(herr)
				} else if meta.PlanHash != planHash {
					// The checkpoint belongs to a different launch plan —
					// a stale state directory reused under the same session
					// id. Resuming it would replay wrong-range records, so
					// refuse loudly instead of degrading silently.
					o.Journal.Append("resume_rejected", comp,
						fmt.Sprintf("session %016x checkpoint plan %016x does not match hello plan %016x",
							h.SessionID, meta.PlanHash, planHash))
					return fmt.Errorf("remote: session %016x task %d: checkpoint plan hash %016x, hello plan hash %016x: %w",
						h.SessionID, h.Task, meta.PlanHash, planHash, checkpoint.ErrPlanMismatch)
				} else if cur, n, cerr := checkpoint.Read(body, joiner); cerr != nil {
					startFresh(cerr)
				} else {
					next = cur.NextID
					lastTime = cur.NextTime - 1
					acked, unacked = meta.Acked, meta.Unacked
					if mon != nil {
						mon.SessionsResumed.Add(1)
					}
					o.Journal.Append("resume", comp,
						fmt.Sprintf("session %016x restored %d records from checkpoint, next id %d, %d unacked results",
							h.SessionID, n, next, len(unacked)))
					o.logf("remote worker: resumed session %016x task %d from checkpoint (%d records, next id %d)",
						h.SessionID, h.Task, n, next)
				}
			}
		} else if !h.Resume && ckptPath != "" {
			os.Remove(ckptPath)
		}
		if next > 0 {
			lastID, haveLast = next-1, true
		}
		credit := uint64(workerRecordWindow)
		if len(unacked) >= unackedHigh {
			// A restored buffer at the bound: the whole window stays back
			// until the re-sent tail is acknowledged.
			credit, consumed, withholding = 0, workerRecordWindow, true
		}
		if err := wr.WriteResumeAck(next, credit); err != nil {
			return fmt.Errorf("remote: writing resume ack: %w", err)
		}
	}
	if mon != nil && len(unacked) > 0 {
		mon.UnackedResults.Add(int64(len(unacked)))
	}

	task, workers := h.Task, h.Workers
	// emitted counts results written this session. Step emits on the
	// calling goroutine, so neither it nor cur, the record being stepped,
	// nor matched and batch, its results and pairs so far (a CountOnly
	// session keeps no pairs), needs synchronization — which lets one emit
	// closure serve the whole session.
	var (
		emitted uint64
		cur     *record.Record
		batch   []wire.Result
		matched uint64
	)
	emit := func(m local.Match) {
		if !strat.Emits(cur, m.Rec, task, workers) {
			return
		}
		if matched++; h.CountOnly {
			return
		}
		a, b := cur.ID, m.ID
		if a > b {
			a, b = b, a
		}
		batch = append(batch, wire.Result{A: a, B: b, Sim: m.Sim})
	}
	// Counting needs no emit when Emits suppresses nothing.
	stepEmit := emit
	if h.CountOnly && dispatch.EmitsAll(strat) {
		stepEmit = nil
	}
	// sendBatch writes the stepped record's results as one Result (or
	// Count) frame and, in an FT session, holds its pairs unacked.
	sendBatch := func() error {
		n := matched
		emitted += n
		if mon != nil {
			mon.ResultsEmitted.Add(n)
		}
		var err error
		if h.CountOnly {
			err = wr.WriteCount(n)
			acked += n
		} else {
			err = wr.WriteResults(cur.ID, batch)
		}
		if h.FT && len(batch) > 0 {
			unacked = append(unacked, batch...)
			if mon != nil {
				mon.UnackedResults.Add(int64(len(batch)))
			}
			// At the bound, withhold record credit. While withholding, flush
			// every batch: the coordinator can only acknowledge results it
			// has, and only acknowledgements end the withholding.
			withholding = withholding || len(unacked) >= unackedHigh
			if withholding {
				if ferr := wr.Flush(); ferr != nil && err == nil {
					err = ferr
				}
			}
		}
		batch, matched = batch[:0], 0
		return err
	}

	// Re-send the restored unacked tail, numbered from acked and framed as
	// it was first sent, or a counting session's results as one Count from
	// 0: the previous connection may have lost these, or the previous
	// coordinator died before persisting them; the new one skips any it
	// already has and acknowledges all of them either way.
	if h.CountOnly && acked > 0 {
		err = wr.WriteCount(acked) // numbered from 0, where wr starts
	} else {
		wr.SetResultNumber(acked)
		err = wr.WriteProbes(unacked)
	}
	if err != nil {
		return fmt.Errorf("remote: re-sending unacked result: %w", err)
	}
	if withholding {
		if err := wr.Flush(); err != nil {
			return fmt.Errorf("remote: re-sending unacked result: %w", err)
		}
	}

	sendStats := func() error {
		var c local.Cost
		if bi != nil {
			c = bi.Cost()
		} else {
			c = joiner.Cost()
		}
		return wr.WriteStats(wire.Stats{
			Probes: c.Probes, Stored: c.Stored, Scanned: c.Scanned,
			Candidates: c.Candidates, Verified: c.Verified,
			Results: c.Results, VerifySteps: c.VerifySteps,
			Postings: c.Postings,
		})
	}

	saveCheckpoint := func() {
		if ckptPath == "" || !haveLast {
			return
		}
		// The envelope holds every result of a record the cursor covers
		// that the coordinator has not acknowledged (a counting session's
		// acked counts them all), so the checkpoint is sound whether or
		// not those results reached it. The flush only lets the
		// coordinator acknowledge them sooner; on a broken connection it
		// fails, and the checkpoint is saved anyway.
		_ = wr.Flush()
		cur := checkpoint.Cursor{NextID: lastID + 1, NextTime: lastTime + 1}
		meta := &checkpoint.SessionMeta{PlanHash: planHash, Acked: acked, Unacked: unacked}
		if err := writeCheckpointFile(ckptPath, cur, joiner, meta); err != nil {
			o.logf("remote worker: checkpoint write failed: %v", err)
			return
		}
		if mon != nil {
			mon.CheckpointsWritten.Add(1)
			mon.MarkCheckpoint()
		}
		o.Journal.Append("checkpoint", comp,
			fmt.Sprintf("session %016x checkpointed, cursor next_id=%d", h.SessionID, cur.NextID))
	}

	lastCkpt := time.Now()
	first := true
	var dups uint64
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
			case wire.TypeSnapshot:
				if !first {
					return errors.New("remote: snapshot frame after records")
				}
				if bi != nil {
					return errors.New("remote: snapshots unsupported for bi sessions")
				}
				if h.FT {
					return errors.New("remote: snapshot seeding unsupported for ft sessions")
				}
				blob := rd.ReadSnapshot()
				if _, _, err := checkpoint.Read(bytes.NewReader(blob), joiner); err != nil {
					return fmt.Errorf("remote: restoring snapshot: %w", err)
				}
				first = false
			case wire.TypeRecord:
				first = false
				rt, err := rd.ReadRecord()
				if err != nil {
					return err
				}
				if h.FT && haveLast && uint64(rt.Rec.ID) <= lastID {
					// Replay overlap or an injected duplicate frame: the
					// window already holds this record.
					if mon != nil {
						mon.DuplicateRecords.Add(1)
					}
					dups++
				} else {
					var rstart time.Time
					if mon != nil {
						rstart = time.Now()
						mon.RecordsSeen.Add(1)
						mon.InFlightRecords.Add(1)
					}
					cur = rt.Rec
					var n int
					if bi != nil {
						n = bi.StepSide(rt.Rec, rt.Right, rt.Store, stepEmit)
					} else {
						n = joiner.Step(rt.Rec, rt.Store, stepEmit)
					}
					if stepEmit == nil {
						matched = uint64(n)
					}
					if mon != nil {
						mon.RecordLatency.Observe(time.Since(rstart))
					}
					// One frame per probe with matches, written before the cursor
					// advances so a checkpoint never covers unsent results.
					var writeErr error
					if matched > 0 {
						writeErr = sendBatch()
					}
					if mon != nil {
						mon.InFlightRecords.Add(-1)
					}
					if writeErr != nil {
						return fmt.Errorf("remote: writing result: %w", writeErr)
					}
					lastID, lastTime, haveLast = uint64(rt.Rec.ID), rt.Rec.Time, true
					if ckptPath != "" && o.CheckpointInterval > 0 && time.Since(lastCkpt) >= o.CheckpointInterval {
						saveCheckpoint()
						lastCkpt = time.Now()
					}
				}
				if h.FT {
					// Return the coordinator's record credit in half-window
					// batches, after the step, so that no grant follows a
					// record that brought the buffer to unackedHigh.
					// Duplicates count too: the coordinator spent credit on
					// every frame it sent.
					consumed++
					if !withholding && consumed >= workerRecordWindow/2 {
						if cerr := wr.WriteCredit(consumed); cerr != nil {
							return fmt.Errorf("remote: writing credit: %w", cerr)
						}
						consumed = 0
					}
				}
			case wire.TypeCredit:
				// Coordinator acknowledgement: it holds the first n results
				// of the unacked buffer (in a durable run, in its results
				// log). Clamp n — counts are advisory, the buffer is the
				// truth, and a counting session's is empty.
				n, cerr := rd.ReadCredit()
				if cerr != nil {
					return cerr
				}
				if d := min(n, uint64(len(unacked))); d > 0 {
					acked += d
					if unacked = unacked[d:]; len(unacked) == 0 {
						unacked = nil // release the drained backing array
					}
					if mon != nil {
						mon.UnackedResults.Add(-int64(d))
					}
				}
				if withholding && len(unacked) <= unackedLow {
					// Back under the bound: grant the withheld credit at once.
					withholding = false
					if consumed > 0 {
						if werr := wr.WriteCredit(consumed); werr != nil {
							return fmt.Errorf("remote: writing credit: %w", werr)
						}
						consumed = 0
					}
				}
			case wire.TypeEOF:
				return sendStats()
			case wire.TypeSnapshotReq:
				if bi != nil {
					return errors.New("remote: snapshots unsupported for bi sessions")
				}
				if err := sendStats(); err != nil {
					return err
				}
				var blob bytes.Buffer
				if err := checkpoint.Write(&blob, checkpoint.Cursor{}, joiner); err != nil {
					return fmt.Errorf("remote: snapshotting: %w", err)
				}
				return wr.WriteSnapshot(blob.Bytes())
			default:
				return fmt.Errorf("remote: unexpected frame type %d", typ)
			}
		}
	}
	err = loop()
	if mon != nil {
		// The session's live buffer is gone either way; what survives a
		// crash lives in the checkpoint, not the gauge.
		mon.UnackedResults.Add(-int64(len(unacked)))
	}
	if ckptPath != "" {
		if err != nil {
			// Unclean end: persist the window so a resuming coordinator
			// replays only the tail.
			saveCheckpoint()
		} else {
			os.Remove(ckptPath)
		}
	}
	if o.Journal != nil {
		if dups > 0 {
			o.Journal.Append("duplicates", comp,
				fmt.Sprintf("session %016x dropped %d duplicate records via the replay filter", h.SessionID, dups))
		}
		if bs, ok := joiner.(interface{ BundleStats() bundle.Stats }); ok && joiner != nil {
			st := bs.BundleStats()
			if st.KernelLinear+st.KernelGallop > 0 {
				o.Journal.Append("kernel_mix", comp,
					fmt.Sprintf("session %016x verify kernels: linear=%d gallop=%d",
						h.SessionID, st.KernelLinear, st.KernelGallop))
			}
		}
		status := "clean"
		if err != nil {
			status = "error: " + err.Error()
		}
		o.Journal.Append("session_end", comp,
			fmt.Sprintf("session %016x ended (%s), %d results", h.SessionID, status, emitted))
	}
	return err
}
