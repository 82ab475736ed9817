package remote

import (
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/window"
	"repro/internal/workload"
)

// TestWorkerJournalSessionEvents runs a 2-worker session over TCP and
// reads each worker's journal directly: every worker journals the
// session's start and end, and so does the coordinator.
func TestWorkerJournalSessionEvents(t *testing.T) {
	const k = 2
	journals := make([]*obs.Journal, k)
	conns := make([]net.Conn, 0, k)
	for i := 0; i < k; i++ {
		journals[i] = obs.NewJournal(0)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go ServeWorkerOpts(context.Background(), ln, WorkerOpts{Logf: silentLogf, Journal: journals[i]}) //nolint:errcheck
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close(); ln.Close() })
		conns = append(conns, c)
	}

	journal := obs.NewJournal(0)
	recs := workload.NewGenerator(workload.UniformSmall(7)).Generate(100)
	sum, err := RunWithOpts(context.Background(), asRW(conns), testSession(0.7, "broadcast", nil), recs,
		Opts{Journal: journal})
	if err != nil {
		t.Fatal(err)
	}
	if want := singleNodePairs(recs, 0.7, window.Unbounded{}); int(sum.Results) != len(want) {
		t.Fatalf("results: got %d, want %d", sum.Results, len(want))
	}

	types := func(j *obs.Journal) map[string]int {
		byType := map[string]int{}
		for _, ev := range j.Snapshot().Events {
			byType[ev.Type]++
		}
		return byType
	}
	if got := types(journal); got["session_start"] != 1 || got["session_end"] != 1 {
		t.Fatalf("coordinator journal: %v", got)
	}
	for i, j := range journals {
		// Run returns on the worker's Stats frame; the worker journals the
		// session's end a moment later.
		for deadline := time.Now().Add(5 * time.Second); types(j)["session_end"] == 0 && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		if got := types(j); got["session_start"] != 1 || got["session_end"] != 1 {
			t.Fatalf("worker %d journal: %v", i, got)
		}
	}
}

// TestMonitorHandlerContentTypes pins the HTTP contract: /healthz and
// /stats declare their media types, and /stats renders keys in sorted
// order so scrapes diff cleanly.
func TestMonitorHandlerContentTypes(t *testing.T) {
	var mon Monitor
	mon.SessionsStarted.Add(2)
	mon.SessionsFinished.Add(2)
	mon.RecordsSeen.Add(10)
	srv := httptest.NewServer(mon.Handler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; charset=utf-8" {
		t.Fatalf("healthz content type: %q", ct)
	}
	if string(body) != "ok\n" {
		t.Fatalf("healthz body: %q", body)
	}

	resp, err = srv.Client().Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("stats content type: %q", ct)
	}
	// Keys must appear in sorted order in the raw JSON text.
	var prev string
	rest := string(raw)
	for {
		i := strings.IndexByte(rest, '"')
		if i < 0 {
			break
		}
		rest = rest[i+1:]
		j := strings.IndexByte(rest, '"')
		if j < 0 {
			break
		}
		key := rest[:j]
		rest = rest[j+1:]
		if prev != "" && key < prev {
			t.Fatalf("stats keys out of order: %q after %q in %s", key, prev, raw)
		}
		prev = key
	}
	if !strings.Contains(string(raw), `"records_seen":10`) {
		t.Fatalf("stats body: %s", raw)
	}
}

// TestMonitorMetricsExposition serves the monitor's registry the way
// ssjoinworker -http does and reads /metrics back with the parser
// promcheck uses: every counter and the record histogram arrive intact.
func TestMonitorMetricsExposition(t *testing.T) {
	var mon Monitor
	mon.SessionsStarted.Add(3)
	mon.SessionsFinished.Add(2)
	mon.RecordsSeen.Add(1000)
	mon.ResultsEmitted.Add(40)
	mon.InFlightRecords.Add(5)
	for i := 0; i < 100; i++ {
		mon.RecordLatency.Observe(2 * time.Millisecond)
	}
	reg := obs.NewRegistry()
	mon.RegisterMetrics(reg)
	mux := http.NewServeMux()
	obs.AttachDebug(mux, obs.DebugOptions{Registry: reg})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	pm, err := obs.ParseExposition(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{
		"worker_sessions_started_total":  3,
		"worker_sessions_finished_total": 2,
		"worker_records_total":           1000,
		"worker_results_total":           40,
		"worker_inflight_records":        5,
		"worker_record_seconds_count":    100,
	} {
		if got := pm.Value(name, -1); got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

// TestMonitorLoadRate checks the scrape-to-scrape throughput gauge.
func TestMonitorLoadRate(t *testing.T) {
	var mon Monitor
	if mon.Load() != 0 {
		t.Fatal("first Load() should prime and return 0")
	}
	mon.RecordsSeen.Add(500)
	time.Sleep(20 * time.Millisecond)
	rate := mon.Load()
	if rate <= 0 {
		t.Fatalf("rate: %v", rate)
	}
}

// TestMonitorSnapshotActiveNeverUnderflows races sessions that start and
// end against Snapshot: sessions_active is started minus ended, and a
// session that started and ended between two of Snapshot's loads must not
// make it wrap around.
func TestMonitorSnapshotActiveNeverUnderflows(t *testing.T) {
	var mon Monitor
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				mon.SessionsStarted.Add(1)
				mon.SessionsFinished.Add(1)
			}
		}()
	}
	defer func() {
		close(stop)
		wg.Wait()
	}()
	for i := 0; i < 100_000; i++ {
		snap := mon.Snapshot()
		if snap["sessions_active"] > snap["sessions_started"] {
			t.Fatalf("call %d: sessions_active %d > sessions_started %d", i, snap["sessions_active"], snap["sessions_started"])
		}
	}
}
