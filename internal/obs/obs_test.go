package obs

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
)

// mustPanic runs register and fails the test unless it panics.
func mustPanic(t *testing.T, what string, register func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: registered without a panic", what)
		}
	}()
	register()
}

func TestRegistryNamingRules(t *testing.T) {
	reg := NewRegistry()
	zero := func() float64 { return 0 }
	mustPanic(t, "camel-case name", func() { reg.CounterFunc("BadName", "x", zero) })
	mustPanic(t, "empty help", func() { reg.CounterFunc("ok_name", "", zero) })
	reg.CounterFunc("ok_name", "h", zero)
	mustPanic(t, "kind clash", func() { reg.GaugeFunc("ok_name", "h", zero) })
	mustPanic(t, "label clash", func() { reg.CounterVec("ok_name", "h", "edge") })
	reg.GaugeVec("per_edge", "h", "edge")
	mustPanic(t, "label key clash", func() { reg.GaugeVec("per_edge", "h", "task") })
	mustPanic(t, "unlabeled over labeled", func() { reg.GaugeFunc("per_edge", "h", zero) })
	if fams := reg.Gather(); len(fams) != 2 {
		t.Fatalf("a refused registration left a family: %+v", fams)
	}
}

// TestGetOrCreateAndReplaceSemantics: registering a name again rebinds its
// reader, and a *Vec constructor finds the family again with its children.
func TestGetOrCreateAndReplaceSemantics(t *testing.T) {
	reg := NewRegistry()
	var first, second atomic.Uint64
	first.Store(3)
	second.Store(5)
	reg.CounterFunc("requests_total", "requests", func() float64 { return float64(first.Load()) })
	reg.CounterFunc("requests_total", "requests", func() float64 { return float64(second.Load()) })
	reg.GaugeFunc("depth", "queue depth", func() float64 { return 1 })
	reg.GaugeFunc("depth", "queue depth", func() float64 { return 2 })
	reg.GaugeVec("load", "per-task load", "task").SetFunc("0", func() float64 { return 1 })
	reg.GaugeVec("load", "per-task load", "task").SetFunc("1", func() float64 { return 7 })
	reg.GaugeVec("load", "per-task load", "task").SetFunc("0", func() float64 { return 4 })
	got := map[string][]Sample{}
	for _, f := range reg.Gather() {
		got[f.Desc.Name] = f.Samples
	}
	if s := got["requests_total"]; len(s) != 1 || s[0].Value != 5 {
		t.Fatalf("CounterFunc did not rebind: %+v", s)
	}
	if s := got["depth"]; len(s) != 1 || s[0].Value != 2 {
		t.Fatalf("GaugeFunc did not rebind: %+v", s)
	}
	if s := got["load"]; len(s) != 2 || s[0].Value != 4 || s[1].Value != 7 {
		t.Fatalf("GaugeVec children: %+v", s)
	}
}

func TestVecLabels(t *testing.T) {
	reg := NewRegistry()
	var ab, bc atomic.Uint64
	cv := reg.CounterVec("edge_tuples_total", "tuples per edge", "edge")
	cv.SetFunc("b->c", func() float64 { return float64(bc.Load()) })
	cv.SetFunc("a->b", func() float64 { return float64(ab.Load()) })
	ab.Add(5)
	bc.Add(7)
	ab.Add(1)
	fams := reg.Gather()
	if len(fams) != 1 || len(fams[0].Samples) != 2 {
		t.Fatalf("gather: %+v", fams)
	}
	// Sorted by label value.
	if fams[0].Samples[0].Label != "a->b" || fams[0].Samples[0].Value != 6 {
		t.Fatalf("sample 0: %+v", fams[0].Samples[0])
	}
	if fams[0].Samples[1].Label != "b->c" || fams[0].Samples[1].Value != 7 {
		t.Fatalf("sample 1: %+v", fams[0].Samples[1])
	}
}

// TestExpositionRoundTrip writes a registry with all family kinds and
// parses it back, checking values, labels, and histogram series survive.
func TestExpositionRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.CounterFunc("tuples_total", "total tuples", func() float64 { return 42 })
	reg.GaugeFunc("queue_depth", "current depth", func() float64 { return 3.5 })
	gv := reg.GaugeVec("load", "per-worker load", "task")
	gv.SetFunc(`0`, func() float64 { return 1.25 })
	gv.SetFunc(`with"quote`, func() float64 { return 2 })
	var h metrics.SyncLatency
	reg.HistogramFunc("process_seconds", "per-record latency", h.Snapshot)
	for _, d := range []time.Duration{time.Microsecond, 3 * time.Microsecond, time.Millisecond} {
		h.Observe(d)
	}

	var buf bytes.Buffer
	if err := reg.WriteExposition(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	pm, err := ParseExposition(strings.NewReader(text))
	if err != nil {
		t.Fatalf("parse back failed: %v\n%s", err, text)
	}

	if v := pm.Value("tuples_total", -1); v != 42 {
		t.Fatalf("tuples_total = %v", v)
	}
	if pm["tuples_total"].Type != "counter" {
		t.Fatalf("TYPE: %q", pm["tuples_total"].Type)
	}
	if v := pm.Value("queue_depth", -1); v != 3.5 {
		t.Fatalf("queue_depth = %v", v)
	}
	loads := pm["load"]
	if loads == nil || len(loads.Samples) != 2 {
		t.Fatalf("load family: %+v", loads)
	}
	found := false
	for _, s := range loads.Samples {
		if s.Labels["task"] == `with"quote` && s.Value == 2 {
			found = true
		}
	}
	if !found {
		t.Fatalf("escaped label lost: %+v", loads.Samples)
	}

	if v := pm.Value("process_seconds_count", -1); v != 3 {
		t.Fatalf("histogram count = %v", v)
	}
	buckets := pm["process_seconds_bucket"]
	if buckets == nil {
		t.Fatal("no bucket series")
	}
	// Cumulative: the +Inf bucket equals the count.
	var inf float64 = -1
	for _, s := range buckets.Samples {
		if s.Labels["le"] == "+Inf" {
			inf = s.Value
		}
	}
	if inf != 3 {
		t.Fatalf("+Inf bucket = %v", inf)
	}
}

func TestParseExpositionRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"",
		"<html>not metrics</html>",
		"name_only\n",
		`ok_metric{unterminated="v 1` + "\n",
	} {
		if _, err := ParseExposition(strings.NewReader(bad)); err == nil {
			t.Fatalf("accepted %q", bad)
		}
	}
}

func TestSnapshotJSONShape(t *testing.T) {
	reg := NewRegistry()
	var a atomic.Uint64
	var b metrics.SyncLatency
	reg.CounterFunc("a_total", "a", func() float64 { return float64(a.Load()) })
	reg.HistogramFunc("b_seconds", "b", b.Snapshot)
	a.Add(1)
	b.Observe(time.Millisecond)
	snap := reg.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot: %+v", snap)
	}
	if snap[0].Name != "a_total" || snap[0].Samples[0].Value != 1 {
		t.Fatalf("counter snapshot: %+v", snap[0])
	}
	hs := snap[1].Samples[0]
	if snap[1].Name != "b_seconds" || hs.Count != 1 || hs.P50Us <= 0 {
		t.Fatalf("histogram snapshot: %+v", snap[1])
	}
}

func TestDebugMuxEndpoints(t *testing.T) {
	reg := NewRegistry()
	var hits atomic.Uint64
	reg.CounterFunc("hits_total", "hits", func() float64 { return float64(hits.Load()) })
	hits.Add(1)
	RegisterProcessMetrics(reg)

	mux := http.NewServeMux()
	AttachDebug(mux, DebugOptions{Registry: reg})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("Content-Type"); got != ExpositionContentType {
		t.Fatalf("content type: %q", got)
	}
	pm, err := ParseExposition(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if pm.Value("hits_total", -1) != 1 {
		t.Fatalf("hits_total: %v", pm.Value("hits_total", -1))
	}
	if pm.Value("process_goroutines", -1) <= 0 {
		t.Fatal("process metrics missing")
	}

	resp3, err := srv.Client().Get(srv.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != 200 {
		t.Fatalf("pprof: %d", resp3.StatusCode)
	}
}

// TestRegistryAndJournalUnderConcurrentUse drives one registry and one
// journal from several goroutines at once, as concurrent runs and scrapes
// sharing them do: registrations, rebindings, labeled children, gathers
// and appends interleave, and every count adds up afterwards.
func TestRegistryAndJournalUnderConcurrentUse(t *testing.T) {
	const workers, rounds = 4, 200
	reg := NewRegistry()
	j := NewJournal(64)
	var shared atomic.Uint64
	edges := make([]atomic.Uint64, rounds)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var own atomic.Uint64
			reg.CounterFunc(fmt.Sprintf("own_%d_total", w), "h", func() float64 { return float64(own.Load()) })
			for i := 0; i < rounds; i++ {
				reg.CounterFunc("shared_total", "shared", func() float64 { return float64(shared.Load()) })
				reg.CounterVec("edge_tuples_total", "tuples per edge", "edge").
					SetFunc(fmt.Sprint(i), func() float64 { return float64(edges[i].Load()) })
				shared.Add(1)
				edges[i].Add(1)
				own.Add(1)
				j.Append("tick", "comp", "m")
				if i%50 == 0 {
					reg.Gather()
					j.Recent(8)
				}
			}
		}()
	}
	wg.Wait()
	var sharedN, edgeN, ownN float64
	for _, f := range reg.Gather() {
		for _, s := range f.Samples {
			switch {
			case f.Desc.Name == "shared_total":
				sharedN += s.Value
			case f.Desc.Name == "edge_tuples_total":
				edgeN += s.Value
			case strings.HasPrefix(f.Desc.Name, "own_"):
				ownN += s.Value
			}
		}
	}
	if sharedN != workers*rounds || edgeN != workers*rounds || ownN != workers*rounds {
		t.Fatalf("shared_total %v, edge_tuples_total %v, own_*_total %v, want %d each", sharedN, edgeN, ownN, workers*rounds)
	}
	if got := j.Appended(); got != workers*rounds {
		t.Fatalf("journal appended %d, want %d", got, workers*rounds)
	}
	events := j.Recent(64)
	for i := 1; i < len(events); i++ {
		if events[i].Seq != events[i-1].Seq+1 {
			t.Fatalf("journal ring out of order: seq %d after %d", events[i].Seq, events[i-1].Seq)
		}
	}
	if len(events) != 64 || events[63].Seq != workers*rounds {
		t.Fatalf("journal kept %d events ending at seq %d", len(events), events[len(events)-1].Seq)
	}
}
