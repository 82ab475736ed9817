package obs

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRegistryNamingRules(t *testing.T) {
	reg := NewRegistry()
	if err := reg.Register(&Counter{desc: Desc{Name: "BadName", Help: "x"}}); err == nil {
		t.Fatal("camel-case name accepted")
	}
	if err := reg.Register(&Counter{desc: Desc{Name: "ok_name", Help: ""}}); err == nil {
		t.Fatal("empty help accepted")
	}
	if err := reg.Register(&Counter{desc: Desc{Name: "ok_name", Help: "h"}}); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(&Counter{desc: Desc{Name: "ok_name", Help: "h"}}); err == nil {
		t.Fatal("duplicate accepted")
	}
}

func TestGetOrCreateAndReplaceSemantics(t *testing.T) {
	reg := NewRegistry()
	c1 := reg.Counter("requests_total", "requests")
	c1.Add(3)
	c2 := reg.Counter("requests_total", "requests")
	if c1 != c2 || c2.Value() != 3 {
		t.Fatalf("get-or-create returned a different counter")
	}
	reg.GaugeFunc("depth", "queue depth", func() float64 { return 1 })
	reg.GaugeFunc("depth", "queue depth", func() float64 { return 2 })
	fams := reg.Gather()
	for _, f := range fams {
		if f.Desc.Name == "depth" && f.Samples[0].Value != 2 {
			t.Fatalf("GaugeFunc did not rebind: %v", f.Samples[0].Value)
		}
	}
}

func TestVecLabels(t *testing.T) {
	reg := NewRegistry()
	cv := reg.CounterVec("edge_tuples_total", "tuples per edge", "edge")
	cv.With("a->b").Add(5)
	cv.With("b->c").Add(7)
	cv.With("a->b").Inc()
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

// TestExpositionRoundTrip writes a registry with all collector kinds and
// parses it back, checking values, labels, and histogram series survive.
func TestExpositionRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("tuples_total", "total tuples").Add(42)
	reg.Gauge("queue_depth", "current depth").Set(3.5)
	gv := reg.GaugeVec("load", "per-worker load", "task")
	gv.With(`0`).Set(1.25)
	gv.With(`with"quote`).Set(2)
	h := reg.Histogram("process_seconds", "per-record latency")
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
	reg.Counter("a_total", "a").Add(1)
	reg.Histogram("b_seconds", "b").Observe(time.Millisecond)
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
	reg.Counter("hits_total", "hits").Inc()
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

func TestGaugeAdd(t *testing.T) {
	var g Gauge
	g.Set(1.5)
	g.Add(2.5)
	if g.Value() != 4 {
		t.Fatalf("gauge = %v", g.Value())
	}
	if math.IsNaN(g.Value()) {
		t.Fatal("NaN")
	}
}

// TestRegistryAndJournalUnderConcurrentUse drives one registry and one
// journal from several goroutines at once, as concurrent runs and scrapes
// sharing them do: registration, get-or-create, labeled children, gathers
// and appends interleave, and every count adds up afterwards.
func TestRegistryAndJournalUnderConcurrentUse(t *testing.T) {
	const workers, rounds = 4, 200
	reg := NewRegistry()
	j := NewJournal(64)
	cv := reg.CounterVec("edge_tuples_total", "tuples per edge", "edge")
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := reg.Register(&Counter{desc: Desc{Name: fmt.Sprintf("own_%d_total", w), Help: "h"}}); err != nil {
				t.Error(err)
			}
			for i := 0; i < rounds; i++ {
				reg.Counter("shared_total", "shared").Inc()
				cv.With(fmt.Sprint(i)).Inc()
				j.Append("tick", "comp", "m")
				if i%50 == 0 {
					reg.Gather()
					j.Recent(8)
				}
			}
		}()
	}
	wg.Wait()
	var shared, edges float64
	for _, f := range reg.Gather() {
		for _, s := range f.Samples {
			switch f.Desc.Name {
			case "shared_total":
				shared += s.Value
			case "edge_tuples_total":
				edges += s.Value
			}
		}
	}
	if shared != workers*rounds || edges != workers*rounds {
		t.Fatalf("shared_total %v, edge_tuples_total %v, want %d each", shared, edges, workers*rounds)
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
