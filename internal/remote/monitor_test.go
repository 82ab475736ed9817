package remote

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/workload"
)

func TestMonitorCountsSessions(t *testing.T) {
	var mon Monitor
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	serveTestWorker(t, ln, WorkerOpts{Logf: silentLogf, Mon: &mon})

	recs := workload.NewGenerator(workload.UniformSmall(1)).Generate(150)
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	sum, err := Run(context.Background(), []io.ReadWriter{conn}, testSession(0.7, "broadcast", nil), recs, false)
	if err != nil {
		t.Fatal(err)
	}

	// Run returns on the worker's last frame; the worker counts the session
	// finished when its handler returns, a moment later.
	for deadline := time.Now().Add(5 * time.Second); mon.SessionsFinished.Load() == 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	snap := mon.Snapshot()
	if snap["sessions_started"] != 1 || snap["sessions_finished"] != 1 || snap["sessions_failed"] != 0 {
		t.Fatalf("session counters: %v", snap)
	}
	if snap["records_seen"] != uint64(len(recs)) {
		t.Fatalf("records seen: %v", snap)
	}
	if snap["results_emitted"] != sum.Results {
		t.Fatalf("results: %v vs %d", snap, sum.Results)
	}
	if snap["sessions_active"] != 0 {
		t.Fatalf("active: %v", snap)
	}
}

func TestMonitorHTTPHandler(t *testing.T) {
	var mon Monitor
	mon.SessionsStarted.Add(3)
	mon.SessionsFinished.Add(2)
	srv := httptest.NewServer(mon.Handler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != "ok\n" {
		t.Fatalf("healthz: %q", body)
	}

	resp, err = srv.Client().Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got map[string]uint64
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got["sessions_started"] != 3 || got["sessions_active"] != 1 {
		t.Fatalf("stats: %v", got)
	}
}

func TestMonitorCountsFailedSessions(t *testing.T) {
	var mon Monitor
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	checkNoLeaks(t)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		ServeWorkerOpts(ctx, ln, WorkerOpts{Logf: func(string, ...interface{}) {}, Mon: &mon}) //nolint:errcheck
		close(done)
	}()
	t.Cleanup(func() { cancel(); <-done })

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	conn.Write([]byte{0xFF}) //nolint:errcheck — garbage, then hang up
	conn.Close()

	// Poll until the failure is recorded.
	deadline := time.Now().Add(5 * time.Second)
	for mon.SessionsFailed.Load() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("failed session not counted: %v", mon.Snapshot())
		}
		time.Sleep(5 * time.Millisecond)
	}
	ln.Close()
	<-done
}
