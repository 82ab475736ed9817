//go:build !race

package remote

import (
	"context"
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/wire"
	"repro/internal/workload"
)

// discardWorker serves one FT connection: it grants credit for n records
// up front, reads and drops every frame up to EOF, and answers with Stats.
func discardWorker(conn net.Conn, n uint64) {
	defer conn.Close()
	rd, w := wire.NewReader(conn), wire.NewWriter(conn)
	if _, err := rd.Next(); err != nil { // the Hello
		return
	}
	if w.WriteResumeAck(n) != nil || w.Flush() != nil {
		return
	}
	for {
		typ, err := rd.Next()
		if err != nil {
			return
		}
		if typ == wire.TypeEOF {
			break
		}
	}
	if w.WriteStats(wire.Stats{}) == nil {
		w.Flush() //nolint:errcheck
	}
}

// TestRunFTCoordinatorAllocs bounds what the FT coordinator allocates per
// record: against workers that only discard records, the whole of RunFT
// (dialling, handshakes, routing and writing every record, the workers'
// own reads) allocates under 8 bytes per record. The coordinator keeps no
// per-record state, so this does not grow with the stream.
func TestRunFTCoordinatorAllocs(t *testing.T) {
	const (
		n   = 500_000
		k   = 2
		tau = 0.8
	)
	checkNoLeaks(t)
	recs := workload.NewGenerator(workload.AOLLike(42)).Generate(n)
	sess := testSession(tau, "length", boundsFor(recs, tau, k))
	dial := func(ctx context.Context, task int) (io.ReadWriteCloser, error) {
		coord, worker := net.Pipe()
		go discardWorker(worker, n)
		return coord, nil
	}
	ft := FT{HeartbeatInterval: time.Minute, SessionID: 0xA110C}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	sum, err := RunFT(context.Background(), dial, k, sess, recs, Opts{}, ft)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if sum.TuplesSent < n {
		t.Fatalf("sent %d tuples for %d records", sum.TuplesSent, n)
	}
	perRec := float64(after.TotalAlloc-before.TotalAlloc) / n
	t.Logf("RunFT allocated %.1f B per record (%d records, %d tuples)", perRec, n, sum.TuplesSent)
	if perRec >= 8 {
		t.Errorf("RunFT allocated %.1f B per record, want under 8", perRec)
	}
}
