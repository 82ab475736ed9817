package ssjoin

import (
	"context"
	"fmt"
	"io"
	"net"
	"slices"
	"testing"

	"repro/internal/metrics"
	"repro/internal/remote"
	"repro/internal/workload"
)

// TestOneSpecBothRuntimes: one DistributedConfig runs in-process and, as
// its Session, on two loopback ssjoinworkers. For every distribution and
// partitioner, with and without a count window, the two runtimes find the
// same pairs, ship the same tuples and split the load alike between their
// workers — the fleet's bounds are the ones the engine routed with, fitted
// to the same SampleSize records.
func TestOneSpecBothRuntimes(t *testing.T) {
	const k = 2
	recs := workload.NewGenerator(workload.UniformSmall(7)).Generate(2000)
	sets := make([][]uint32, len(recs))
	for i, r := range recs {
		sets[i] = r.Tokens
	}
	dial := loopbackFleet(t, k)
	for _, dist := range []Distribution{LengthBased, PrefixBased, BroadcastBased} {
		for _, part := range []Partitioner{LoadAware, EvenLength, EvenFrequency} {
			for _, win := range []int64{0, 300} {
				cfg := DistributedConfig{
					Config:       Config{Threshold: 0.6, WindowRecords: win},
					Workers:      k,
					Distribution: dist,
					Partitioner:  part,
					SampleSize:   200,
					CollectPairs: true,
				}
				label := fmt.Sprintf("%v/%v/window %d", dist, part, win)
				engine, err := RunDistributed(sets, cfg)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				sess, err := cfg.Session(sets)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				fleet, err := remote.Run(context.Background(), dial(), sess, recs, true)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if engine.Results == 0 {
					t.Fatalf("%s: no results; the comparison shows nothing", label)
				}
				var got, want [][2]uint64
				for _, p := range fleet.Pairs {
					got = append(got, [2]uint64{uint64(p.First), uint64(p.Second)})
				}
				for _, p := range engine.Pairs {
					want = append(want, [2]uint64{p.A, p.B})
				}
				byPair := func(a, b [2]uint64) int { return slices.Compare(a[:], b[:]) }
				slices.SortFunc(got, byPair)
				slices.SortFunc(want, byPair)
				if !slices.Equal(got, want) {
					t.Errorf("%s: the fleet found %d pairs, the engine %d, and they differ", label, len(got), len(want))
				}
				if fleet.TuplesSent != engine.CommTuples {
					t.Errorf("%s: the fleet was sent %d tuples, the engine shipped %d", label, fleet.TuplesSent, engine.CommTuples)
				}
				loads := make([]float64, k)
				for i, s := range fleet.WorkerStats {
					loads[i] = float64(s.VerifySteps + s.Scanned)
				}
				if got := metrics.SummarizeLoads(loads).Imbalance; got != engine.LoadImbalance {
					t.Errorf("%s: the fleet's workers split the load %v (imbalance %v), the engine's %v", label, loads, got, engine.LoadImbalance)
				}
			}
		}
	}
}

// loopbackFleet serves k workers on loopback for the test's lifetime and
// returns a dialer of one fresh connection to each: a worker serves one
// session per connection.
func loopbackFleet(t *testing.T, k int) func() []io.ReadWriter {
	ctx, cancel := context.WithCancel(context.Background())
	addrs := make([]string, k)
	served := make(chan error, k)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		go func() { served <- remote.ServeWorker(ctx, ln, t.Logf) }()
	}
	var conns []net.Conn
	t.Cleanup(func() {
		for _, c := range conns {
			c.Close()
		}
		cancel()
		for range addrs {
			<-served
		}
	})
	return func() []io.ReadWriter {
		rws := make([]io.ReadWriter, k)
		for i, addr := range addrs {
			c, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			conns = append(conns, c)
			rws[i] = c
		}
		return rws
	}
}
