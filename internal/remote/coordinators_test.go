//go:build !race

package remote

import (
	"context"
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/filter"
	"repro/internal/local"
	"repro/internal/partition"
	"repro/internal/similarity"
	"repro/internal/window"
	"repro/internal/workload"
)

// BenchmarkCoordinators drains the aol_fleet stream through Run, counting
// (count) and collecting every pair (pairs), counting against two workers
// that carry a Monitor as ssjoinworker's always do (count-mon), and
// through RunFT with a
// retry budget, collecting (ft-pairs): the configuration that, before
// recovery replayed the window from the coordinator, made its workers
// checkpoint and buffer every unacknowledged pair. Each runs against two
// loopback workers:
// 200 000 AOL-like records (seed 42), Jaccard 0.8, a 50 000-record count
// window and a length plan fitted to the first 10 000 records. It reports
// records per second and the bytes the whole process (coordinator and
// workers) allocates per record.
//
//	go test -run '^$' -bench Coordinators -count 10 ./internal/remote/
func BenchmarkCoordinators(b *testing.B) {
	const (
		n    = 200_000
		k    = 2
		want = 4_789_174 // aol_fleet's results at seed 42
	)
	recs := workload.NewGenerator(workload.AOLLike(42)).Generate(n)
	p := filter.Params{Func: similarity.Jaccard, Threshold: 0.8}
	sess := Session{
		Params:    p,
		Algorithm: local.Bundled,
		Window:    window.Count{N: 50_000},
		Strategy:  "length",
		Bounds:    partition.Fit(p, recs[:10_000], k).Bounds,
	}
	fleet := func(o WorkerOpts) []string {
		addrs := make([]string, k)
		for i := range addrs {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			serveTestWorker(b, ln, o)
			addrs[i] = ln.Addr().String()
		}
		return addrs
	}
	addrs := fleet(WorkerOpts{Logf: silentLogf})
	monitored := fleet(WorkerOpts{Logf: silentLogf, Mon: new(Monitor)})
	ctx := context.Background()

	run := func(addrs []string, collectPairs bool) func(int) (*RunSummary, error) {
		return func(int) (*RunSummary, error) {
			conns, err := Dial(ctx, addrs, 5*time.Second)
			if err != nil {
				return nil, err
			}
			return Run(ctx, asRW(conns), sess, recs, collectPairs)
		}
	}
	b.Run("count", func(b *testing.B) { drainPerRecord(b, n, want, run(addrs, false)) })
	b.Run("count-mon", func(b *testing.B) { drainPerRecord(b, n, want, run(monitored, false)) })
	b.Run("pairs", func(b *testing.B) { drainPerRecord(b, n, want, run(addrs, true)) })

	dial := func(ctx context.Context, task int) (io.ReadWriteCloser, error) {
		var d net.Dialer
		return d.DialContext(ctx, "tcp", addrs[task])
	}
	ft := FT{Retry: RetryPolicy{MaxAttempts: 4, Base: 50 * time.Millisecond}}
	b.Run("ft-pairs", func(b *testing.B) {
		drainPerRecord(b, n, want, func(i int) (*RunSummary, error) {
			ft.SessionID = uint64(i + 1)
			return RunFT(ctx, dial, k, sess, recs, Opts{CollectPairs: true}, ft)
		})
	})
}

// drainPerRecord times b.N drains of n records, after one untimed drain,
// and reports rec/s and the process's B/rec; every drain must find want
// results. The warm-up grows the heap, the workers' tables and the sockets'
// buffers to their steady size: a process's first collecting drain reads
// about a third slower than the next, and at b.N = 1 it would be the only
// one timed. It passes i = b.N, so an FT drain's session ID is unique.
func drainPerRecord(b *testing.B, n int, want uint64, drain func(i int) (*RunSummary, error)) {
	if _, err := drain(b.N); err != nil {
		b.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum, err := drain(i)
		if err != nil {
			b.Fatal(err)
		}
		if sum.Results != want {
			b.Fatalf("drain %d found %d results, want %d", i, sum.Results, want)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	total := float64(n) * float64(b.N)
	b.ReportMetric(total/b.Elapsed().Seconds(), "rec/s")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/total, "B/rec")
}
