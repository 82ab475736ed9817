package experiments

import (
	"context"
	"fmt"
	"io"
	"net"

	"repro/internal/local"
	"repro/internal/remote"
	"repro/internal/workload"

	ssjoin "repro"
)

// E14 compares the in-process engine against the multi-process TCP runtime
// on the same join: identical results, with the serialization + socket tax
// made visible. This is the deployment-shape extension: the paper runs on
// a Storm cluster; internal/remote is the from-scratch equivalent.
func E14(sc Scale) *Table {
	t := &Table{
		ID:      "E14",
		Title:   fmt.Sprintf("In-process engine vs TCP worker fleet, AOL-like, τ=0.8, k=%d, length-based", sc.Workers),
		Columns: []string{"runtime", "throughput rec/s", "results", "bytes/rec"},
		Notes:   "loopback TCP with real serialization; results must be identical across runtimes",
	}
	recs := genProfile(workload.AOLLike(sc.Seed), sc.Records)
	p := jaccard(0.8)
	k := sc.Workers

	// Both rows run one plan: the engine routes with the session's own
	// strategy, and the fleet gets the session.
	sess := sessionFor(ssjoin.LengthBased, p, recs, k)
	_, strat, err := sess.Plan(k)
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	res := runTopology(sc, recs, strat, p, k, local.Bundled, nil)
	t.AddRow("in-process", res.Throughput().PerSecond(), res.Results,
		float64(res.CommBytes)/float64(len(recs)))

	// TCP fleet on loopback.
	ctx := context.Background()
	conns, cleanup, err := loopbackWorkers(ctx, k)
	if err != nil {
		panic(fmt.Sprintf("experiments: loopback workers: %v", err))
	}
	defer cleanup()
	sum, err := remote.Run(ctx, conns, sess, recs, false)
	if err != nil {
		panic(fmt.Sprintf("experiments: remote run: %v", err))
	}
	t.AddRow("tcp-fleet", float64(sum.Records)/sum.Elapsed.Seconds(), sum.Results,
		float64(sum.BytesSent)/float64(len(recs)))
	return t
}

// loopbackWorkers starts k TCP workers on 127.0.0.1 and dials them.
func loopbackWorkers(ctx context.Context, k int) ([]io.ReadWriter, func(), error) {
	var (
		conns     []io.ReadWriter
		listeners []net.Listener
		dialed    []net.Conn
	)
	cleanup := func() {
		for _, c := range dialed {
			c.Close()
		}
		for _, ln := range listeners {
			ln.Close()
		}
	}
	for i := 0; i < k; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			cleanup()
			return nil, nil, err
		}
		listeners = append(listeners, ln)
		go remote.ServeWorker(ctx, ln, func(string, ...interface{}) {}) //nolint:errcheck
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			cleanup()
			return nil, nil, err
		}
		dialed = append(dialed, c)
		conns = append(conns, c)
	}
	return conns, cleanup, nil
}
