package remote

import (
	"encoding/binary"
	"errors"
	"fmt"
	"path/filepath"

	"repro/internal/checkpoint"
	"repro/internal/wal"
	"repro/internal/wire"
)

// readResults appends the pairs of rd's staged Result frame to dst.
func readResults(rd *wire.Reader, dst []wire.Result) ([]wire.Result, error) {
	_, dst, err := wire.DecodeResults(dst, rd.Payload())
	return dst, err
}

// decodeResultEntry decodes one Result entry of the results log of a run
// that collects pairs, in place: its task, and the number of its first
// result and its pairs, appended to dst.
func decodeResultEntry(entry []byte, dst []wire.Result) (task, first uint64, rs []wire.Result, err error) {
	task, k := binary.Uvarint(entry)
	if k <= 0 || k == len(entry) || entry[k] != wire.TypeResult {
		return 0, 0, dst, errors.New("remote: results log entry: truncated task or not a Result")
	}
	if first, rs, err = wire.DecodeResults(dst, entry[k+1:]); err != nil {
		return 0, 0, rs, fmt.Errorf("remote: results log entry: %w", err)
	}
	return task, first, rs, nil
}

// ReadResultsLog replays the pairs a durable state directory's results log
// holds, in append order; it changes nothing on disk.
func ReadResultsLog(stateDir string) ([]wire.Result, error) {
	rs, _, err := readResultsLog(stateDir)
	return rs, err
}

// readResultsLog replays a durable state directory's results log as its
// manifest's Hello wrote it: the pairs of its Result entries, or none
// when the Hello is CountOnly and its entries are Count payloads, and how
// many results the entries number either way. Mark entries hold none.
func readResultsLog(stateDir string) (rs []wire.Result, n uint64, err error) {
	m, err := checkpoint.LoadManifest(filepath.Join(stateDir, checkpoint.ManifestPath))
	if err != nil {
		return nil, 0, err
	}
	err = wal.Replay(filepath.Join(stateDir, resultsLogDir), func(entry []byte) error {
		_, k := binary.Uvarint(entry)
		switch {
		case k <= 0 || k == len(entry):
			return errors.New("remote: results log entry: truncated task")
		case entry[k] == wire.TypeCredit:
			return nil
		case !m.Hello.CountOnly:
			var err error
			_, _, rs, err = decodeResultEntry(entry, rs)
			n = uint64(len(rs))
			return err
		}
		_, c, err := wire.DecodeCount(entry[k+1:])
		n += c
		return err
	})
	if err != nil {
		return nil, 0, err
	}
	return rs, n, nil
}
