// Durable session state for fault-tolerant runs: a persistent ingest log
// (every dispatched record), a persistent results log (every distinct
// result, appended before it is acknowledged to the worker), and the
// session manifest tying them to the launch configuration. Together they
// make the *coordinator* restartable: a fresh process loads the manifest,
// re-reads the ingest log, seeds its result dedup from the results log,
// and re-drives the session — workers resume from their own checkpoints
// and re-send their unacknowledged result tails, so the final result set
// is exactly the uninterrupted run's.
//
// Every FT run acknowledges results (wire Credit frames, coordinator →
// worker; see ftRunner.attempt); a durable run adds the results log to
// that protocol: a new result is appended before it counts as received,
// and the write loop syncs the log before it grants the count, so every
// acknowledged result is on disk. A nil *durableState is the sink of a run
// without a state directory, and its methods do nothing: this file is the
// only code that knows whether a run is durable.
package remote

import (
	"bytes"
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
//	<StateDir>/results/        WAL of distinct results, one frame each
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
	// seeds the coordinator's dedup, and each task's first hello asks its
	// worker to resume, which a fresh run's never does.
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
// a shared frame encoder.
type durableState struct {
	cfg     Durable
	ingest  *wal.Log
	results *wal.Log
	// skip is the ingest position already persisted by a previous
	// incarnation: dispatch skips appending record indices below it.
	skip uint64

	mu  sync.Mutex
	buf bytes.Buffer
	enc *wire.Writer
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

// appendRecord persists record number idx of the ingest stream. Indices
// below the resume skip point are already on disk (the records themselves
// came from the log) and are not re-appended.
func (ds *durableState) appendRecord(idx uint64, r *record.Record) error {
	if ds == nil || idx < ds.skip {
		return nil
	}
	ds.mu.Lock()
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

// appendResult persists one distinct result frame.
func (ds *durableState) appendResult(res wire.Result) error {
	if ds == nil {
		return nil
	}
	ds.mu.Lock()
	defer ds.mu.Unlock()
	ds.buf.Reset()
	if err := ds.enc.WriteResult(res); err != nil {
		return err
	}
	if err := ds.enc.Flush(); err != nil {
		return err
	}
	_, err := ds.results.Append(ds.buf.Bytes())
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

// sealIngest syncs the ingest log once the record stream is complete, so
// that a crash from here on can replay all of it.
func (ds *durableState) sealIngest(j *obs.Journal) error {
	if ds == nil {
		return nil
	}
	if err := ds.ingest.Sync(); err != nil {
		return fmt.Errorf("remote: ingest log sync: %w", err)
	}
	j.Append("ingest_sealed", "coordinator", fmt.Sprintf("ingest log sealed at %d records", ds.ingest.Next()))
	return nil
}

// seedResults replays the results log into the collector — the restart
// path's dedup seed. Returns how many distinct results were recovered.
func (ds *durableState) seedResults(coll *ftCollector) (int, error) {
	n := 0
	var fresh []bool
	err := wal.Replay(filepath.Join(ds.cfg.StateDir, resultsLogDir), func(entry []byte) error {
		res, err := decodeResultFrame(entry)
		if err != nil {
			return err
		}
		if fresh = coll.add([]wire.Result{res}, fresh[:0]); fresh[0] {
			n++
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

// decodeResultFrame decodes one results log entry, a whole Result frame,
// in place and without allocating.
func decodeResultFrame(entry []byte) (wire.Result, error) {
	typ, payload, err := wire.Frame(entry)
	if err != nil {
		return wire.Result{}, fmt.Errorf("remote: results log frame: %w", err)
	}
	if typ != wire.TypeResult {
		return wire.Result{}, fmt.Errorf("remote: results log holds frame type %d, want result", typ)
	}
	res, err := wire.DecodeResult(payload)
	if err != nil {
		return wire.Result{}, fmt.Errorf("remote: results log frame: %w", err)
	}
	return res, nil
}

// ReadIngestLog replays the persisted record stream of a durable session
// state directory — the input a resumed run feeds back into RunFT. It
// changes nothing on disk, and a missing log is an error.
func ReadIngestLog(stateDir string) ([]*record.Record, error) {
	return readLog(filepath.Join(stateDir, ingestLogDir), decodeRecordFrame)
}

// ReadResultsLog replays the persisted distinct results of a durable
// session state directory, in append order. Like ReadIngestLog it only
// reads.
func ReadResultsLog(stateDir string) ([]wire.Result, error) {
	return readLog(filepath.Join(stateDir, resultsLogDir), decodeResultFrame)
}

// readLog decodes every entry of the log in dir.
func readLog[T any](dir string, decode func([]byte) (T, error)) ([]T, error) {
	var out []T
	err := wal.Replay(dir, func(entry []byte) error {
		v, err := decode(entry)
		out = append(out, v)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
