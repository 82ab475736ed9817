package topology

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dispatch"
	"repro/internal/local"
	"repro/internal/obs"
	"repro/internal/record"
)

// leakChecked holds the tests checkNoLeaks has registered a check with.
var leakChecked sync.Map

// checkNoLeaks registers, once per test, a cleanup that fails t when a
// goroutine started after the first call and running this package's code
// outlives the test, after giving such goroutines up to five seconds to
// end. It is the check of internal/remote's tests, scoped to this package.
func checkNoLeaks(t *testing.T) {
	t.Helper()
	if _, dup := leakChecked.LoadOrStore(t, true); dup {
		return
	}
	before := goroutines()
	t.Cleanup(func() {
		leakChecked.Delete(t)
		var leaked []string
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
			leaked = leaked[:0]
			for id, stack := range goroutines() {
				if _, old := before[id]; !old && strings.Contains(stack, "repro/internal/topology.") {
					leaked = append(leaked, stack)
				}
			}
			if len(leaked) == 0 || time.Now().After(deadline) {
				break
			}
		}
		for _, stack := range leaked {
			t.Errorf("goroutine outlived the test:\n%s", stack)
		}
	})
}

// goroutines returns the stack of every live goroutine by its ID.
func goroutines() map[string]string {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	for n == len(buf) {
		buf = make([]byte, 2*len(buf))
		n = runtime.Stack(buf, true)
	}
	out := make(map[string]string)
	for _, g := range strings.Split(string(buf[:n]), "\n\n") {
		id, _, _ := strings.Cut(strings.TrimPrefix(g, "goroutine "), " ")
		out[id] = g
	}
	return out
}

// runChecked calls run under checkNoLeaks and fails t if it has not
// returned within a minute.
func runChecked(t *testing.T, run func() (*Result, error)) (*Result, error) {
	t.Helper()
	checkNoLeaks(t)
	type result struct {
		res *Result
		err error
	}
	done := make(chan result, 1)
	go func() {
		res, err := run()
		done <- result{res, err}
	}()
	select {
	case r := <-done:
		return r.res, r.err
	case <-time.After(time.Minute):
		t.Fatal("the run still going a minute after it started")
		return nil, nil
	}
}

// panicky wraps a strategy and panics at record panicAt: in Route, which
// every dispatcher calls, or in worker 1's Stores.
type panicky struct {
	dispatch.Strategy
	inRoute bool
}

const panicAt = 700

func (s panicky) Route(r *record.Record, k int, buf []int) []int {
	if s.inRoute && r.ID == panicAt {
		panic("route failed")
	}
	return s.Strategy.Route(r, k, buf)
}

func (s panicky) Stores(r *record.Record, task, k int) bool {
	if !s.inRoute && r.ID == panicAt && task == 1 {
		panic("store failed")
	}
	return s.Strategy.Stores(r, task, k)
}

// TestDispatcherPanicIsIsolated and TestWorkerPanicIsIsolated: a panic in
// one stage fails Run and RunBi with an error naming the stage, the other
// stages still drain the stream, and no goroutine is left behind.
func TestDispatcherPanicIsIsolated(t *testing.T) { testPanicIsIsolated(t, true, "dispatcher") }

func TestWorkerPanicIsIsolated(t *testing.T) { testPanicIsIsolated(t, false, "worker") }

func testPanicIsIsolated(t *testing.T, inRoute bool, stage string) {
	p := params(0.8)
	recs := genStream(3000, 13)
	sides := make([]bool, len(recs))
	for i := range sides {
		sides[i] = i%3 == 0
	}
	cfg := Config{
		Workers:     3,
		Dispatchers: 2,
		QueueCap:    2, // small queues: the failed stage's neighbours must not block
		BatchSize:   8,
		Strategy:    panicky{Strategy: dispatch.BroadcastBased{}, inRoute: inRoute},
		Algorithm:   local.Bundled,
		Params:      p,
	}
	for name, run := range map[string]func() (*Result, error){
		"Run":   func() (*Result, error) { return Run(recs, cfg) },
		"RunBi": func() (*Result, error) { return RunBi(recs, sides, cfg) },
	} {
		t.Run(name, func(t *testing.T) {
			res, err := runChecked(t, run)
			if err == nil {
				t.Fatalf("%s returned %d results and no error", name, res.Results)
			}
			if !strings.Contains(err.Error(), "topology: "+stage+" ") || !strings.Contains(err.Error(), "failed") {
				t.Fatalf("the error does not name the %s stage and its panic: %v", stage, err)
			}
		})
	}
}

// TestUninstrumentedRunStampsNoBatchClock: without a registry no batch
// carries a creation time and no stage observes a batch clock; with one,
// every dispatcher and worker does.
func TestUninstrumentedRunStampsNoBatchClock(t *testing.T) {
	checkNoLeaks(t)
	p := params(0.8)
	recs := genStream(2000, 17)
	cfg := Config{Workers: 3, Dispatchers: 2, Strategy: dispatch.BroadcastBased{}, Params: p}
	for _, reg := range []*obs.Registry{nil, obs.NewRegistry()} {
		cfg.Registry = reg
		pl := newPipeline(cfg, recs, nil)
		pl.dispatchers[0].dispatch([]RecTuple{{Rec: recs[0]}})
		pl.dispatchers[0].ship(0)
		if b := <-pl.workers[0].in; b.enq.IsZero() != (reg == nil) {
			t.Fatalf("registry %v: a batch's creation time reads %v", reg != nil, b.enq)
		}

		pl = newPipeline(cfg, recs, nil)
		if _, err := pl.run(); err != nil {
			t.Fatal(err)
		}
		stages := map[string]*stage{"source": &pl.source}
		for _, dp := range pl.dispatchers {
			stages[fmt.Sprintf("dispatcher/%d", dp.j)] = &dp.stats
		}
		for _, w := range pl.workers {
			stages[fmt.Sprintf("worker/%d", w.task)] = &w.stats
		}
		for name, s := range stages {
			wait, process := s.wait.Snapshot(), s.process.Snapshot()
			n := wait.Count() + process.Count()
			if reg == nil && n != 0 {
				t.Errorf("uninstrumented %s observed %d batch clocks", name, n)
			}
			if reg != nil && name != "source" && n == 0 {
				t.Errorf("instrumented %s observed no batch clock", name)
			}
		}
	}
}

// TestUninstrumentedRunReadsNoClockPerRecord: without a registry the engine
// reads the clock once per source chunk and once per shipped batch, plus a
// few reads for the run's own clock, never once per record. It swaps the
// package clock, so it must not run in parallel.
func TestUninstrumentedRunReadsNoClockPerRecord(t *testing.T) {
	checkNoLeaks(t)
	var reads atomic.Uint64
	defer func(clock func() time.Time) { now = clock }(now)
	now = func() time.Time {
		reads.Add(1)
		return time.Now()
	}
	const n = 10_000
	recs := genStream(n, 19)
	p := params(0.8)
	res, err := Run(recs, Config{Workers: 2, Strategy: strategies(p, recs, 2)[0], Algorithm: local.Bundled, Params: p})
	if err != nil {
		t.Fatal(err)
	}
	chunks := uint64((n + defaultBatchSize - 1) / defaultBatchSize)
	if got, limit := reads.Load(), chunks+res.CommBatches+4; got > limit {
		t.Fatalf("%d records read the clock %d times; want at most %d (%d chunks, %d batches)",
			n, got, limit, chunks, res.CommBatches)
	}
	if res.Latency.Count() != res.CommTuples {
		t.Fatalf("the workers observed %d latencies, want one per delivered tuple (%d)", res.Latency.Count(), res.CommTuples)
	}
}
