package main

import (
	"context"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/filter"
	"repro/internal/local"
	"repro/internal/remote"
	"repro/internal/similarity"
	"repro/internal/workload"
)

// TestResumeFollowsTheLaunchPairsChoice: a durable run launched without
// -pairs logs counts, so -resume -pairs on its state directory is refused
// before any worker is dialled, and -resume without -pairs re-drives it. A
// run launched with -pairs resumes without -pairs too: the manifest says
// it collects, and RunFT refuses a resume whose Hello is not the launch's.
func TestResumeFollowsTheLaunchPairsChoice(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	mon := &remote.Monitor{}
	served := make(chan struct{})
	go func() {
		defer close(served)
		remote.ServeWorkerOpts(ctx, ln, remote.WorkerOpts{Mon: mon, Logf: t.Logf}) //nolint:errcheck
	}()
	t.Cleanup(func() {
		cancel()
		<-served
	})
	addr := ln.Addr().String()
	dial := func(ctx context.Context, _ int) (io.ReadWriteCloser, error) {
		var d net.Dialer
		return d.DialContext(ctx, "tcp", addr)
	}

	sess := remote.Session{
		Params:    filter.Params{Func: similarity.Jaccard, Threshold: 0.8},
		Algorithm: local.Bundled,
		Strategy:  "broadcast",
	}
	recs := workload.NewGenerator(workload.AOLLike(42)).Generate(2000)
	resumeFT := func() *remote.FT {
		return &remote.FT{HeartbeatInterval: 50 * time.Millisecond, SessionID: 1}
	}
	for _, collect := range []bool{false, true} {
		state := t.TempDir()
		ft := remote.FT{SessionID: 0xC0DE, Durable: &remote.Durable{StateDir: state, Workers: []string{addr}}}
		if _, err := remote.RunFT(context.Background(), dial, 1, sess, recs, remote.Opts{CollectPairs: collect}, ft); err != nil {
			t.Fatal(err)
		}
		started := mon.SessionsStarted.Load()
		if !collect {
			err = runResume(state, "", true, resumeFT(), "", "")
			if err == nil || !strings.Contains(err.Error(), "-pairs") {
				t.Fatalf("-resume -pairs of a run launched without -pairs: %v, want a -pairs error", err)
			}
			if n := mon.SessionsStarted.Load(); n != started {
				t.Fatalf("the refused resume opened %d worker sessions", n-started)
			}
		}
		if err := runResume(state, "", false, resumeFT(), "", ""); err != nil {
			t.Fatalf("-resume without -pairs of a run launched with -pairs=%v: %v", collect, err)
		}
		if n := mon.SessionsStarted.Load(); n != started+1 {
			t.Fatalf("the resume opened %d worker sessions, want 1", n-started)
		}
	}
}
