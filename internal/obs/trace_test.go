package obs

import (
	"sync"
	"testing"
	"time"
)

// TestTracerConcurrentLineage drives concurrent "spout" and "bolt" tasks
// through a shared tracer, the way the stream engine does, and checks every
// recorded span is well-formed: start <= end, parent links resolve to an
// earlier span, and stage chains are causally ordered. Run under -race this
// also exercises the Trace append/snapshot locking.
func TestTracerConcurrentLineage(t *testing.T) {
	const (
		spouts  = 4
		tuples  = 2048
		every   = 16
		ringCap = 64
	)
	tracer := NewTracer(every, ringCap)
	if !tracer.Enabled() {
		t.Fatal("tracer should be enabled")
	}

	// Each spout emits tuples; sampled ones get an emit span, then a
	// simulated downstream bolt appends queue+process spans from another
	// goroutine, mimicking tuple handoff.
	work := make(chan *Trace, 256)
	var wg sync.WaitGroup
	for s := 0; s < spouts; s++ {
		wg.Add(1)
		go func(task int) {
			defer wg.Done()
			for i := 0; i < tuples; i++ {
				tr := tracer.Sample()
				if tr == nil {
					continue
				}
				now := time.Now()
				tr.Append("emit", "source", task, -1, now, now)
				work <- tr
			}
		}(s)
	}
	var bolts sync.WaitGroup
	for b := 0; b < 2; b++ {
		bolts.Add(1)
		go func(task int) {
			defer bolts.Done()
			for tr := range work {
				parent, end := tr.Tail()
				now := time.Now()
				p := tr.Append("queue", "worker", task, parent, end, now)
				tr.Append("process", "worker", task, p, now, time.Now())
			}
		}(b)
	}
	// Concurrent scrapes while traces are still being appended to.
	var scrapes sync.WaitGroup
	scrapes.Add(1)
	go func() {
		defer scrapes.Done()
		for i := 0; i < 50; i++ {
			tracer.Recent()
		}
	}()
	wg.Wait()
	close(work)
	bolts.Wait()
	scrapes.Wait()

	wantSampled := uint64(spouts * tuples / every)
	if got := tracer.Sampled(); got != wantSampled {
		t.Fatalf("sampled %d traces, want %d", got, wantSampled)
	}
	recent := tracer.Recent()
	if len(recent) != ringCap {
		t.Fatalf("ring holds %d traces, want %d", len(recent), ringCap)
	}
	for _, ts := range recent {
		if len(ts.Spans) != 3 {
			t.Fatalf("trace %d has %d spans, want 3", ts.ID, len(ts.Spans))
		}
		for i, sp := range ts.Spans {
			if sp.DurationUs < 0 {
				t.Fatalf("trace %d span %d: negative duration %v", ts.ID, i, sp.DurationUs)
			}
			if sp.Parent < -1 || sp.Parent >= i {
				t.Fatalf("trace %d span %d: parent %d does not resolve to an earlier span", ts.ID, i, sp.Parent)
			}
			if sp.Parent >= 0 {
				pEnd := ts.Spans[sp.Parent].StartUs + ts.Spans[sp.Parent].DurationUs
				if sp.StartUs+1e-3 < pEnd { // 1ns slack for float µs rounding
					t.Fatalf("trace %d span %d starts %vus before parent end %vus", ts.ID, i, sp.StartUs, pEnd)
				}
			}
		}
		if ts.Spans[0].Stage != "emit" || ts.Spans[0].Parent != -1 {
			t.Fatalf("trace %d root span: %+v", ts.ID, ts.Spans[0])
		}
	}
}

// TestTracerDisabledZeroCost checks the acceptance criterion that disabled
// sampling records no spans and allocates nothing on the sample path.
func TestTracerDisabledZeroCost(t *testing.T) {
	for name, tracer := range map[string]*Tracer{
		"nil":     nil,
		"every=0": NewTracer(0, 8),
	} {
		if tracer.Enabled() {
			t.Fatalf("%s: Enabled() = true", name)
		}
		if tr := tracer.Sample(); tr != nil {
			t.Fatalf("%s: Sample() returned a trace", name)
		}
		if got := tracer.Sampled(); got != 0 {
			t.Fatalf("%s: Sampled() = %d", name, got)
		}
		if rec := tracer.Recent(); len(rec) != 0 {
			t.Fatalf("%s: Recent() = %v", name, rec)
		}
		allocs := testing.AllocsPerRun(1000, func() {
			tracer.Sample()
		})
		if allocs != 0 {
			t.Fatalf("%s: Sample() allocates %v per call when disabled", name, allocs)
		}
		// The nil-trace span path must be free too: Append/Tail on the nil
		// *Trace every unsampled tuple carries.
		var nilTrace *Trace
		allocs = testing.AllocsPerRun(1000, func() {
			parent, end := nilTrace.Tail()
			nilTrace.Append("process", "worker", 0, parent, end, end)
		})
		if allocs != 0 {
			t.Fatalf("%s: nil-trace span path allocates %v per call", name, allocs)
		}
	}
}

// TestTraceAppendOnce: executors racing to record one stage leave exactly
// one span of it, chained to the span before, and every span appended after
// any of them returns lands behind it.
func TestTraceAppendOnce(t *testing.T) {
	tracer := NewTracer(1, 4)
	tr := tracer.Sample()
	now := time.Now()
	tr.Append("emit", "source", 0, -1, now, now)
	var wg sync.WaitGroup
	for task := 0; task < 4; task++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr.AppendOnce("dispatch", "dispatcher", task, time.Now())
			parent, end := tr.Tail()
			tr.Append("queue", "worker", task, parent, end, time.Now())
		}()
	}
	wg.Wait()
	spans := tracer.Recent()[0].Spans
	if len(spans) != 6 || spans[1].Stage != "dispatch" || spans[1].Parent != 0 {
		t.Fatalf("want emit, dispatch, then four queue spans: %+v", spans)
	}
	var nilTrace *Trace
	nilTrace.AppendOnce("dispatch", "dispatcher", 0, now)
}

func TestTraceAppendClampsEnd(t *testing.T) {
	tracer := NewTracer(1, 4)
	tr := tracer.Sample()
	now := time.Now()
	tr.Append("emit", "source", 0, -1, now, now.Add(-time.Second))
	ts := tracer.Recent()[0]
	if ts.Spans[0].DurationUs != 0 {
		t.Fatalf("end before start not clamped: %+v", ts.Spans[0])
	}
}
