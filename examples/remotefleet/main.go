// Remote fleet: the deployment shape — a coordinator driving worker
// processes over TCP with the binary wire protocol, including a mid-stream
// "failover": the first session ends with a snapshot of each task's window,
// which the coordinator writes from its own records, a new fleet is seeded
// from the snapshots, and the stream resumes with no results lost. The
// process fails if any are. (Workers run in-process on loopback here; in
// production each would be its own `ssjoinworker` process.)
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"net"

	"repro/internal/filter"
	"repro/internal/local"
	"repro/internal/partition"
	"repro/internal/remote"
	"repro/internal/similarity"
	"repro/internal/workload"
)

func startFleet(ctx context.Context, k int) ([]io.ReadWriter, func()) {
	var conns []io.ReadWriter
	var closers []func()
	for i := 0; i < k; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		go remote.ServeWorker(ctx, ln, log.Printf) //nolint:errcheck
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			log.Fatal(err)
		}
		conns = append(conns, c)
		closers = append(closers, func() { c.Close(); ln.Close() })
	}
	return conns, func() {
		for _, f := range closers {
			f()
		}
	}
}

func main() {
	const (
		k   = 3
		tau = 0.8
		n   = 30000
		cut = 15000
	)
	ctx := context.Background()
	recs := workload.NewGenerator(workload.AOLLike(7)).Generate(n)

	params := filter.Params{Func: similarity.Jaccard, Threshold: tau}
	sess := remote.Session{
		Params:    params,
		Algorithm: local.Bundled,
		Strategy:  "length",
		Bounds:    partition.Fit(params, recs, k).Bounds,
	}

	// Phase 1: the first fleet processes half the stream, and the
	// coordinator snapshots each task's window.
	fleet1, stop1 := startFleet(ctx, k)
	sum1, err := remote.RunWithOpts(ctx, fleet1, sess, recs[:cut], remote.Opts{Snapshot: true})
	if err != nil {
		log.Fatal(err)
	}
	stop1()
	var snapBytes int
	for _, b := range sum1.Snapshots {
		snapBytes += len(b)
	}
	fmt.Printf("phase 1: %d records, %d results, %.0f rec/s; snapshots %d bytes\n",
		sum1.Records, sum1.Results, float64(sum1.Records)/sum1.Elapsed.Seconds(), snapBytes)

	// Phase 2: a brand-new fleet resumes from the snapshots.
	fleet2, stop2 := startFleet(ctx, k)
	defer stop2()
	sum2, err := remote.RunWithOpts(ctx, fleet2, sess, recs[cut:], remote.Opts{Seed: sum1.Snapshots})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("phase 2: %d records, %d results, %.0f rec/s (resumed on fresh workers)\n",
		sum2.Records, sum2.Results, float64(sum2.Records)/sum2.Elapsed.Seconds())

	// Cross-check: one uninterrupted fleet must find the same total.
	fleet3, stop3 := startFleet(ctx, k)
	defer stop3()
	full, err := remote.Run(ctx, fleet3, sess, recs, false)
	if err != nil {
		log.Fatal(err)
	}
	split := sum1.Results + sum2.Results
	if split != full.Results {
		log.Fatalf("uninterrupted: %d results; split total %d — the failover lost or duplicated results", full.Results, split)
	}
	fmt.Printf("uninterrupted: %d results; split total %d — no results lost across failover\n", full.Results, split)
}
