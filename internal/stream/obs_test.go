package stream

import (
	"testing"

	"repro/internal/obs"
)

// TestWithRegistryBindsRunMetrics runs a small pipeline with a registry
// attached and checks the scrape agrees with the run report: edge counters
// match, every task has executed/emitted series, and bolt tasks carry
// process/queue-wait histograms with one observation per batch.
func TestWithRegistryBindsRunMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	tp := New("instrumented", 8, WithBatchSize(4), WithRegistry(reg))
	tp.AddSpout("src", func(int) Spout { return &sliceSpout{vals: ints(100)} }, 1)
	sink := &collectBolt{}
	tp.AddBolt("dbl", func(int) Bolt { return doubleBolt{} }, 2).
		SubscribeTo("src", Shuffle{})
	tp.AddBolt("sink", func(int) Bolt { return sink }, 1).
		SubscribeTo("dbl", Shuffle{})
	rep, err := runChecked(t, tp)
	if err != nil {
		t.Fatal(err)
	}

	byName := map[string]obs.MetricSnapshot{}
	for _, ms := range reg.Snapshot() {
		byName[ms.Name] = ms
	}

	edgeTotal := func(name string) float64 {
		var sum float64
		for _, s := range byName[name].Samples {
			sum += s.Value
		}
		return sum
	}
	if got, want := edgeTotal("stream_edge_tuples_total"), float64(rep.TotalTuples()); got != want {
		t.Fatalf("edge tuples: scrape %v, report %v", got, want)
	}
	if got, want := edgeTotal("stream_edge_bytes_total"), float64(rep.TotalBytes()); got != want {
		t.Fatalf("edge bytes: scrape %v, report %v", got, want)
	}
	if edgeTotal("stream_edge_batches_total") == 0 {
		t.Fatal("no batches counted")
	}

	exec := byName["stream_task_executed_total"]
	if len(exec.Samples) != 4 { // src/0, dbl/0, dbl/1, sink/0
		t.Fatalf("executed series: %+v", exec.Samples)
	}
	var execSum float64
	for _, s := range exec.Samples {
		execSum += s.Value
	}
	if execSum != 300 { // 100 at src + 100 at dbl + 100 at sink
		t.Fatalf("executed total: %v", execSum)
	}

	proc := byName["stream_process_seconds"]
	if len(proc.Samples) != 3 { // bolt tasks only
		t.Fatalf("process series: %+v", proc.Samples)
	}
	var batchObs uint64
	for _, s := range proc.Samples {
		batchObs += s.Count
	}
	if got := edgeTotal("stream_edge_batches_total"); float64(batchObs) != got {
		t.Fatalf("process observations %d != shipped batches %v", batchObs, got)
	}
	wait := byName["stream_queue_wait_seconds"]
	var waitObs uint64
	for _, s := range wait.Samples {
		waitObs += s.Count
	}
	if waitObs != batchObs {
		t.Fatalf("queue-wait observations %d != process observations %d", waitObs, batchObs)
	}

	if _, ok := byName["stream_queue_depth_batches"]; !ok {
		t.Fatal("queue depth gauge missing")
	}
	if len(sink.got) != 100 {
		t.Fatalf("sink saw %d tuples", len(sink.got))
	}
}

// TestUninstrumentedRunRegistersNothing guards the zero-cost-off contract
// at the API level: no registry, no batch stamping, no observations.
func TestUninstrumentedRunRegistersNothing(t *testing.T) {
	tp := New("plain", 8)
	tp.AddSpout("src", func(int) Spout { return &sliceSpout{vals: ints(10)} }, 1)
	tp.AddBolt("sink", func(int) Bolt { return &collectBolt{} }, 1).
		SubscribeTo("src", Shuffle{})
	if _, err := runChecked(t, tp); err != nil {
		t.Fatal(err)
	}
}
