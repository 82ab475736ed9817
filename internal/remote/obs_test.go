package remote

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dispatch"
	"repro/internal/filter"
	"repro/internal/local"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/similarity"
	"repro/internal/topology"
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

// TestEveryComponentRegistersItsMetrics puts the metrics of every
// component on the registries the binaries build: the process, journal,
// partition tracker, FT coordinator and an instrumented engine run with its
// stream runtime share one, as in ssjoin and ssjoinbench; the worker
// monitor gets the worker process's own, as in ssjoinworker. The two
// cannot share one: both define worker_record_seconds, per task in the
// engine and per process in the worker. Registration panics on a name
// collision across kinds, a name that is not snake_case or an empty help
// string; the scrape must also show non-blank help on every family. The
// per-task and per-edge families are bound at wiring time, one child per
// task, edge or verifier context: a k-worker run must leave exactly that
// label set in each of them, never one child per record or per result.
func TestEveryComponentRegistersItsMetrics(t *testing.T) {
	const k, dispatchers, par = 3, 2, 2
	reg, workerReg := obs.NewRegistry(), obs.NewRegistry()
	for _, r := range []*obs.Registry{reg, workerReg} {
		obs.RegisterProcessMetrics(r)
		obs.NewJournal(0).RegisterMetrics(r)
	}
	(&Monitor{}).RegisterMetrics(workerReg)
	tau := filter.Params{Func: similarity.Jaccard, Threshold: 0.7}
	partition.NewTracker(tau, 100).RegisterMetrics(reg)
	newFTMetrics(reg)
	recs := workload.NewGenerator(workload.AOLLike(9)).Generate(400)
	res, err := topology.Run(recs, topology.Config{
		Workers:     k,
		Dispatchers: dispatchers,
		Parallelism: par,
		Strategy:    dispatch.PrefixBased{Params: tau},
		Algorithm:   local.Bundled,
		Params:      tau,
		Registry:    reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Results == 0 {
		t.Fatal("the run found no matches; the per-result paths went unexercised")
	}

	tasks := func(name string, n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = fmt.Sprintf("%s/%d", name, i)
		}
		return out
	}
	workers := tasks("worker", k)
	queued := append(tasks("dispatcher", dispatchers), workers...)
	var contexts []string
	for _, w := range workers {
		contexts = append(contexts, tasks(w+"/ctx", par)...)
	}
	want := map[string][]string{
		"stream_edge_tuples_total":            {"dispatcher->worker", "source->dispatcher"},
		"stream_edge_bytes_total":             {"dispatcher->worker", "source->dispatcher"},
		"stream_edge_batches_total":           {"dispatcher->worker", "source->dispatcher"},
		"stream_edge_batch_occupancy":         {"dispatcher->worker", "source->dispatcher"},
		"stream_task_executed_total":          append([]string{"source/0"}, queued...),
		"stream_task_emitted_total":           append([]string{"source/0"}, queued...),
		"stream_queue_depth_batches":          queued,
		"stream_process_seconds":              queued,
		"stream_queue_wait_seconds":           queued,
		"worker_record_seconds":               workers,
		"bundle_records_total":                workers,
		"bundle_candidates_total":             workers,
		"bundle_verified_total":               workers,
		"bundle_results_total":                workers,
		"bundle_live_members":                 workers,
		"bundle_verify_hit_rate":              workers,
		"verify_kernel_linear_total":          workers,
		"verify_kernel_gallop_total":          workers,
		"verify_candidates_pruned_total":      workers,
		"verify_pool_size":                    workers,
		"verify_pool_parallel_rounds_total":   workers,
		"verify_pool_serial_rounds_total":     workers,
		"verify_pool_fanned_candidates_total": workers,
		"verify_pool_idle_stints_total":       workers,
		"verify_pool_ctx_verified_total":      contexts,
	}

	snake := regexp.MustCompile(`^[a-z][a-z0-9_]*$`)
	for _, f := range append(reg.Gather(), workerReg.Gather()...) {
		if !snake.MatchString(f.Desc.Name) {
			t.Errorf("metric %q is not snake_case", f.Desc.Name)
		}
		if strings.TrimSpace(f.Desc.Help) == "" {
			t.Errorf("metric %q has blank help", f.Desc.Name)
		}
		if f.Desc.Label == "" {
			continue
		}
		wantLabels, ok := want[f.Desc.Name]
		if !ok {
			t.Errorf("labeled family %q has no expected label set in this test", f.Desc.Name)
			continue
		}
		delete(want, f.Desc.Name)
		var got []string
		for _, s := range f.Samples {
			got = append(got, s.Label)
		}
		sort.Strings(wantLabels)
		if !slices.Equal(got, wantLabels) {
			t.Errorf("%s: children %q, want one per task, edge or context: %q", f.Desc.Name, got, wantLabels)
		}
	}
	for name := range want {
		t.Errorf("labeled family %s was not registered", name)
	}
}
