// Durable session state for fault-tolerant runs: a persistent ingest log
// (every dispatched record), a persistent results log (every frame of
// results a task collected, and each of its recovery marks after the
// results it covers), and the session manifest tying them to the launch
// configuration. Together they make the *coordinator* restartable: a fresh
// process loads the manifest, re-reads the ingest log, rebuilds each
// task's have counter and mark from the results log, and re-drives the
// session. Each task restarts from its last logged mark, by the window
// replay every reconnect uses (ftRunner.attempt), so the final result set
// is exactly the uninterrupted run's.
//
// A mark needs no fsync of its own: the results log is one append-only
// WAL, so any prefix of it that holds a mark holds every result the mark
// covers. A nil *durableState is the sink of a run without a state
// directory, and its methods do nothing: this file is the only code that
// knows whether a run is durable.
package remote

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"path/filepath"
	"sync"

	"repro/internal/obs"
	"repro/internal/record"
	"repro/internal/wal"
	"repro/internal/wire"
)

// Durable configures persistent session state for RunFT. StateDir is laid
// out as:
//
//	<StateDir>/manifest.json   session manifest (checkpoint.Manifest)
//	<StateDir>/ingest/         WAL of dispatched records, one frame each
//	<StateDir>/results/        WAL of collected results and marks: its
//	                           task, then a frame type and a payload: a
//	                           Result frame numbered on the task's count
//	                           (in a CountOnly run, a Count of the results
//	                           a frame added), or Credit for a mark, the ID
//	                           after its last probed record and the results
//	                           below it
//
// The manifest is written once, when the run starts; each WAL directory
// holds the one file wal.FileName.
type Durable struct {
	// StateDir roots the session's persistent state. Created if missing.
	StateDir string
	// Sync is the WAL fsync policy for both logs (wal.SyncInterval when
	// zero). It bounds what a crash of the machine, not of the process, can
	// lose; a resume restarts each task from the last mark that survived.
	Sync wal.SyncPolicy
	// Resume marks this run as a restart: the ingest log already holds the
	// record stream (the caller re-read it from there), the results log
	// holds each task's collected results and marks, and each task restarts
	// from its last logged mark. RunFT refuses a resume whose Hello,
	// Opts.CollectPairs included, is not the manifest's.
	Resume bool
	// Workers records the worker addresses in the manifest so a resuming
	// process knows the fleet. Informational — dialing stays the caller's
	// Dialer.
	Workers []string
}

const (
	ingestLogDir  = "ingest"
	resultsLogDir = "results"
)

// durableState is the runtime handle on a durable session's two logs plus
// the buffers their entries are built in.
type durableState struct {
	cfg     Durable
	ingest  *wal.Log
	results *wal.Log
	// skip is the ingest position already persisted by a previous
	// incarnation: ingestRecords skips appending record indices below it.
	skip uint64

	// mu serialises the shared encode buffers. Lock order: mu, then the
	// lock wal.Log.Append takes inside. wal never calls back into remote
	// and no caller holds another lock when it takes mu, so the order
	// cannot invert; keep it that way.
	mu    sync.Mutex
	buf   bytes.Buffer
	enc   *wire.Writer
	entry []byte
}

func openDurable(cfg Durable) (*durableState, error) {
	o := wal.Options{Sync: cfg.Sync}
	ing, err := wal.Open(filepath.Join(cfg.StateDir, ingestLogDir), o)
	if err != nil {
		return nil, fmt.Errorf("remote: opening ingest log: %w", err)
	}
	res, err := wal.Open(filepath.Join(cfg.StateDir, resultsLogDir), o)
	if err != nil {
		ing.Close()
		return nil, fmt.Errorf("remote: opening results log: %w", err)
	}
	ds := &durableState{cfg: cfg, ingest: ing, results: res, skip: ing.Next()}
	ds.enc = wire.NewWriter(&ds.buf)
	return ds, nil
}

// close syncs and closes both logs, so that the state directory is
// complete on disk when RunFT returns, whatever the sync policy.
func (ds *durableState) close() {
	if ds == nil {
		return
	}
	ds.ingest.Sync()
	ds.results.Sync()
	ds.ingest.Close()
	ds.results.Close()
}

// ingestRecords appends recs to the ingest log in order and calls publish(n)
// once the first n are in it, so no worker is sent a record the log lacks;
// then it syncs the log, so a crash from there on can replay all of it.
// Records below the resume skip point came from the log and are not
// appended again. A nil ds publishes all of recs at once.
func (ds *durableState) ingestRecords(ctx context.Context, recs []*record.Record, j *obs.Journal, publish func(n int)) error {
	if ds == nil {
		publish(len(recs))
		return nil
	}
	for i, r := range recs {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("remote: %w", err)
		}
		if uint64(i) >= ds.skip {
			if err := ds.appendRecord(r); err != nil {
				return fmt.Errorf("remote: ingest log append: %w", err)
			}
		}
		publish(i + 1)
	}
	if err := ds.ingest.Sync(); err != nil {
		return fmt.Errorf("remote: ingest log sync: %w", err)
	}
	j.Append("ingest_sealed", "coordinator", fmt.Sprintf("ingest log sealed at %d records", ds.ingest.Next()))
	return nil
}

// appendRecord appends one record to the ingest log as a Record frame.
func (ds *durableState) appendRecord(r *record.Record) error {
	ds.mu.Lock() // before the wal.Log lock Append takes; see mu
	defer ds.mu.Unlock()
	ds.buf.Reset()
	if err := ds.enc.WriteRecord(false, r); err != nil {
		return err
	}
	if err := ds.enc.Flush(); err != nil {
		return err
	}
	_, err := ds.ingest.Append(ds.buf.Bytes())
	return err
}

// appendResults persists one frame of results task collected, of type
// typ: first, the task's number of its first result, then body, the rest
// of its payload.
func (ds *durableState) appendResults(task int, typ byte, first uint64, body []byte) error {
	if ds == nil {
		return nil
	}
	ds.mu.Lock()
	defer ds.mu.Unlock()
	ds.entry = binary.AppendUvarint(append(binary.AppendUvarint(ds.entry[:0], uint64(task)), typ), first)
	_, err := ds.results.Append(append(ds.entry, body...))
	return err
}

// appendMark persists task's mark m, after the results it covers.
func (ds *durableState) appendMark(task int, m taskMark) error {
	return ds.appendResults(task, wire.TypeCredit, m.next, binary.AppendUvarint(nil, m.results))
}

// seedResults replays the results log into recv, each task's results and
// last mark — the restart path's have counters and marks, and its pairs
// when collect is set (a run that does not collect logs Count payloads;
// RunFT has checked that the launch's Hello agrees). Returns how many
// results were recovered.
func (ds *durableState) seedResults(recv []received, collect bool) (uint64, error) {
	var (
		n     uint64
		batch []wire.Result
	)
	err := wal.Replay(filepath.Join(ds.cfg.StateDir, resultsLogDir), func(entry []byte) error {
		task, k := binary.Uvarint(entry)
		if k <= 0 || k == len(entry) || task >= uint64(len(recv)) {
			return fmt.Errorf("remote: results log entry: no task of the run")
		}
		got := &recv[task]
		if typ := entry[k]; typ == wire.TypeCredit {
			next, results, err := wire.DecodeCount(entry[k+1:])
			if err != nil || next < got.mark.next || results > got.results {
				return fmt.Errorf("remote: results log mark of task %d does not follow the log before it", task)
			}
			got.mark = taskMark{next: next, results: results}
			return nil
		} else if typ != wire.TypeResult && typ != wire.TypeCount {
			return fmt.Errorf("remote: results log entry of frame type %d", typ)
		}
		first, m, rs, err := decodeNumbered(collect, entry[k+1:], batch[:0])
		batch = rs
		if err != nil {
			return fmt.Errorf("remote: results log entry: %w", err)
		}
		if first != got.results {
			return fmt.Errorf("remote: results log entry of task %d numbered from %d does not follow the log before it", task, first)
		}
		got.results += m
		n += m
		if collect {
			for _, res := range batch {
				got.pairs = append(got.pairs, record.Pair{First: res.A, Second: res.B, Sim: res.Sim})
			}
		}
		return nil
	})
	return n, err
}

// decodeRecordFrame decodes one ingest log entry, a whole Record frame, in
// place: the record's token slice and the Record are all it allocates.
func decodeRecordFrame(entry []byte) (*record.Record, error) {
	typ, payload, err := wire.Frame(entry)
	if err != nil {
		return nil, fmt.Errorf("remote: ingest log frame: %w", err)
	}
	if typ != wire.TypeRecord {
		return nil, fmt.Errorf("remote: ingest log holds frame type %d, want record", typ)
	}
	rt, err := wire.DecodeRecord(payload)
	if err != nil {
		return nil, fmt.Errorf("remote: ingest log frame: %w", err)
	}
	return rt.Rec, nil
}

// ReadIngestLog replays the persisted record stream of a durable session
// state directory — the input a resumed run feeds back into RunFT. It
// changes nothing on disk, and a missing log is an error.
func ReadIngestLog(stateDir string) ([]*record.Record, error) {
	var out []*record.Record
	err := wal.Replay(filepath.Join(stateDir, ingestLogDir), func(entry []byte) error {
		r, err := decodeRecordFrame(entry)
		out = append(out, r)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
