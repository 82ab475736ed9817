package wire_test

import (
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"path/filepath"
	"testing"

	"repro/internal/filter"
	"repro/internal/record"
	"repro/internal/remote"
	"repro/internal/similarity"
	"repro/internal/wal"
	"repro/internal/wire"
)

// TestSessionSplitsAProbeOverFrames: a worker whose probes have more
// partners than one Result frame holds still finishes its session, plain
// and durable, and the coordinator counts every pair once (and, durable,
// logs every pair once).
func TestSessionSplitsAProbeOverFrames(t *testing.T) {
	defer wire.SetFramePairs(2)()
	// Every record matches every earlier one, so record i has i partners:
	// the last probe's seven pairs take four frames.
	const n = 8
	recs := make([]*record.Record, n)
	for i := range recs {
		recs[i] = &record.Record{ID: record.ID(i), Time: int64(i), Tokens: []uint32{1, 2, 3}}
	}
	const want = n * (n - 1) / 2
	sess := remote.Session{
		Params:   filter.Params{Func: similarity.Jaccard, Threshold: 0.9},
		Strategy: "broadcast",
	}
	check := func(t *testing.T, sum *remote.RunSummary) {
		t.Helper()
		if sum.Results != want || len(sum.Pairs) != want {
			t.Fatalf("%d results, %d pairs; want %d of each", sum.Results, len(sum.Pairs), want)
		}
		seen := make(map[[2]record.ID]bool, want)
		for _, p := range sum.Pairs {
			key := [2]record.ID{p.First, p.Second}
			if seen[key] || p.First >= p.Second || p.Second >= n {
				t.Fatalf("pair %+v repeated or outside the stream", p)
			}
			seen[key] = true
		}
	}

	t.Run("plain", func(t *testing.T) {
		srv, cli := net.Pipe()
		defer cli.Close()
		done := make(chan error, 1)
		go func() {
			defer srv.Close()
			done <- remote.HandleSession(context.Background(), srv, srv)
		}()
		sum, err := remote.Run(context.Background(), []io.ReadWriter{cli}, sess, recs, true)
		if err != nil {
			t.Fatal(err)
		}
		if err := <-done; err != nil {
			t.Fatalf("worker session: %v", err)
		}
		check(t, sum)
	})

	t.Run("durable", func(t *testing.T) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		served := make(chan error, 1)
		opts := remote.WorkerOpts{Logf: func(string, ...interface{}) {}}
		go func() { served <- remote.ServeWorkerOpts(ctx, ln, opts) }()
		defer func() {
			cancel()
			<-served
		}()
		dial := func(ctx context.Context, _ int) (io.ReadWriteCloser, error) {
			var d net.Dialer
			return d.DialContext(ctx, "tcp", ln.Addr().String())
		}
		state := t.TempDir()
		ft := remote.FT{SessionID: 0x5B117, Durable: &remote.Durable{StateDir: state}}
		sum, err := remote.RunFT(context.Background(), dial, 1, sess, recs, remote.Opts{CollectPairs: true}, ft)
		if err != nil {
			t.Fatal(err)
		}
		check(t, sum)
		logged, err := readResultsLog(state)
		if err != nil {
			t.Fatal(err)
		}
		if len(logged) != want {
			t.Fatalf("results log holds %d entries, want %d", len(logged), want)
		}
	})
}

// readResultsLog replays the pairs of a durable state directory's results
// log, whose entries are a task, a frame type and its payload each: a
// Result payload, or a recovery mark, which holds no pairs.
func readResultsLog(stateDir string) ([]wire.Result, error) {
	var out []wire.Result
	err := wal.Replay(filepath.Join(stateDir, "results"), func(entry []byte) error {
		_, k := binary.Uvarint(entry)
		if k <= 0 || k == len(entry) {
			return errors.New("truncated task")
		}
		if entry[k] == wire.TypeCredit {
			return nil
		}
		var err error
		_, out, err = wire.DecodeResults(out, entry[k+1:])
		return err
	})
	return out, err
}
