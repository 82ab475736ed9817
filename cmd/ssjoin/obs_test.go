package main

import (
	"bytes"
	"context"
	"net"
	"testing"
	"time"

	"repro/internal/filter"
	"repro/internal/local"
	"repro/internal/obs"
	"repro/internal/remote"
	"repro/internal/similarity"
	"repro/internal/workload"
)

// TestFTRunCountsIntoDebugRegistry runs an -ft remote run against two
// in-process workers with the sinks serveDebug builds: the registry that
// /metrics serves must carry the FT coordinator's fault series.
func TestFTRunCountsIntoDebugRegistry(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	addrs := make([]string, 2)
	done := make(chan struct{}, len(addrs))
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		go func() {
			remote.ServeWorker(ctx, ln, t.Logf) //nolint:errcheck
			done <- struct{}{}
		}()
	}
	t.Cleanup(func() {
		cancel()
		for range addrs {
			<-done
		}
	})
	dbg, stop := serveDebug("127.0.0.1:0")
	defer stop()

	sess := remote.Session{
		Params:    filter.Params{Func: similarity.Jaccard, Threshold: 0.8},
		Algorithm: local.Bundled,
		Strategy:  "broadcast",
	}
	recs := workload.NewGenerator(workload.AOLLike(42)).Generate(2000)
	ft := &remote.FT{
		Retry:             remote.RetryPolicy{MaxAttempts: 3, Base: time.Millisecond, Cap: 10 * time.Millisecond, Seed: 1},
		HeartbeatInterval: 50 * time.Millisecond,
		SessionID:         1,
	}
	if err := coordinate(addrs, sess, recs, false, ft, dbg); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := dbg.reg.WriteExposition(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := obs.ParseExposition(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"coord_retries_total", "coord_reconnects_total", "coord_replayed_records_total"} {
		if _, ok := got[name]; !ok {
			t.Errorf("the debug registry has no %s", name)
		}
	}
}
