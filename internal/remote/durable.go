// Durable session state for fault-tolerant runs: a persistent ingest log
// (every dispatched record), a persistent results log (every Result frame
// a task collected, appended before it is acknowledged to the worker), and
// the session manifest tying them to the launch configuration. Together
// they make the *coordinator* restartable: a fresh process loads the
// manifest, re-reads the ingest log, rebuilds each task's have counter
// from the results log, and re-drives the session — workers resume from
// their own checkpoints and re-send their unacknowledged result tails, so
// the final result set is exactly the uninterrupted run's.
//
// Every FT run acknowledges results (wire Credit frames, coordinator →
// worker; see ftRunner.attempt); a durable run adds the results log to
// that protocol: a new frame is appended before it counts as received,
// and the write loop syncs the log before it grants the count, so every
// acknowledged result is on disk. A nil *durableState is the sink of a run
// without a state directory, and its methods do nothing: this file is the
// only code that knows whether a run is durable.
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
//	<StateDir>/results/        WAL of collected results, one Result frame
//	                           each (in a CountOnly run, a Count of the
//	                           results a frame added): its task, then its
//	                           payload
//
// The manifest is written once, when the run starts; each WAL directory
// holds the one file wal.FileName.
type Durable struct {
	// StateDir roots the session's persistent state. Created if missing.
	StateDir string
	// Sync is the WAL fsync policy for both logs (wal.SyncInterval when
	// zero). Result acknowledgements sync explicitly before each credit
	// grant regardless, so the durability of *acknowledged* results never
	// depends on this knob.
	Sync wal.SyncPolicy
	// Resume marks this run as a restart: the ingest log already holds the
	// record stream (the caller re-read it from there), the results log
	// holds each task's collected results, and each task's first hello asks
	// its worker to resume, which a fresh run's never does. RunFT refuses a
	// resume whose Hello, Opts.CollectPairs included, is not the manifest's.
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

// appendResults persists the payload of one frame of results task collected.
func (ds *durableState) appendResults(task int, payload []byte) error {
	if ds == nil {
		return nil
	}
	ds.mu.Lock()
	defer ds.mu.Unlock()
	ds.entry = append(binary.AppendUvarint(ds.entry[:0], uint64(task)), payload...)
	_, err := ds.results.Append(ds.entry)
	return err
}

// syncResults makes every appended result durable before it is
// acknowledged, whatever the sync policy says.
func (ds *durableState) syncResults() error {
	if ds == nil {
		return nil
	}
	return ds.results.Sync()
}

// seedResults replays the results log into recv, each task's results —
// the restart path's have counters, and its pairs when collect is set (a
// run that does not collect logs Count payloads; RunFT has checked that
// the launch's Hello agrees). Returns how many results were recovered.
func (ds *durableState) seedResults(recv []received, collect bool) (uint64, error) {
	var (
		n     uint64
		batch []wire.Result
	)
	err := wal.Replay(filepath.Join(ds.cfg.StateDir, resultsLogDir), func(entry []byte) error {
		task, k := binary.Uvarint(entry)
		if k <= 0 {
			return fmt.Errorf("remote: results log entry: truncated task")
		}
		first, m, rs, err := decodeNumbered(collect, entry[k:], batch[:0])
		batch = rs
		if err != nil {
			return fmt.Errorf("remote: results log entry: %w", err)
		}
		if task >= uint64(len(recv)) || first != recv[task].results {
			return fmt.Errorf("remote: results log entry of task %d numbered from %d does not follow the log before it", task, first)
		}
		got := &recv[task]
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
