// Span-style tuple-lineage tracing. A Tracer samples 1 in every N tuples
// at the spout; a sampled tuple carries its *Trace down the topology, and
// each stage appends one Span (emit, queue wait, dispatch, process,
// verify) with wall-clock bounds and the component/task that ran
// it. Completed traces sit in a fixed ring buffer, served as JSON by
// /debug/traces. The unsampled path costs one atomic increment and carries
// a nil pointer — zero allocations — which is what keeps tracing
// affordable on a hot path shipping hundreds of thousands of tuples per
// second.
package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed stage of a tuple's journey.
type Span struct {
	// Stage names the lifecycle step: emit, queue, dispatch, process,
	// verify.
	Stage string
	// Component and Task locate the executor that ran the stage.
	Component string
	Task      int
	// Parent is the index of the causally preceding span in the same
	// trace, -1 for the root.
	Parent int
	// Start and End bound the stage in wall-clock time.
	Start, End time.Time
}

// Trace is the recorded lineage of one sampled tuple. Spans are appended
// by whichever executor currently owns the tuple; result fan-out means
// several goroutines may append concurrently, so appends lock.
type Trace struct {
	id    uint64
	start time.Time

	mu    sync.Mutex
	spans []Span // guarded by mu
}

// ID returns the trace's process-unique identifier.
func (t *Trace) ID() uint64 { return t.id }

// Append records one span and returns its index, for use as a child's
// Parent. A nil trace ignores the call and returns -1, so call sites need
// no sampling branch.
func (t *Trace) Append(stage, component string, task, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	if end.Before(start) {
		end = start
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{
		Stage: stage, Component: component, Task: task,
		Parent: parent, Start: start, End: end,
	})
	return len(t.spans) - 1
}

// AppendOnce appends a span of stage chained to the trace's tail, as Tail
// then Append would, unless the trace already holds a span of that stage.
// Executors that run one stage in parallel on the same tuple record it
// once, and whichever returns first finds it in the trace. Safe on a nil
// trace.
func (t *Trace) AppendOnce(stage, component string, task int, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.Stage == stage {
			return
		}
	}
	parent, start := -1, t.start
	if n := len(t.spans); n > 0 {
		parent, start = n-1, t.spans[n-1].End
	}
	if end.Before(start) {
		end = start
	}
	t.spans = append(t.spans, Span{
		Stage: stage, Component: component, Task: task,
		Parent: parent, Start: start, End: end,
	})
}

// Tail returns the index and end time of the most recently appended span
// (-1 and the trace start when empty) — the chaining point for the next
// sequential stage. Safe on a nil trace.
func (t *Trace) Tail() (parent int, end time.Time) {
	if t == nil {
		return -1, time.Time{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) == 0 {
		return -1, t.start
	}
	return len(t.spans) - 1, t.spans[len(t.spans)-1].End
}

// SpanSnapshot is a Span in JSON form, offsets relative to trace start.
type SpanSnapshot struct {
	Stage      string  `json:"stage"`
	Component  string  `json:"component"`
	Task       int     `json:"task"`
	Parent     int     `json:"parent"`
	StartUs    float64 `json:"start_us"`
	DurationUs float64 `json:"duration_us"`
}

// TraceSnapshot is a completed (or in-flight) trace in JSON form.
type TraceSnapshot struct {
	ID          uint64         `json:"id"`
	StartUnixNs int64          `json:"start_unix_ns"`
	Spans       []SpanSnapshot `json:"spans"`
}

// snapshot copies the trace under its lock.
func (t *Trace) snapshot() TraceSnapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	ts := TraceSnapshot{ID: t.id, StartUnixNs: t.start.UnixNano()}
	for _, s := range t.spans {
		ts.Spans = append(ts.Spans, SpanSnapshot{
			Stage:      s.Stage,
			Component:  s.Component,
			Task:       s.Task,
			Parent:     s.Parent,
			StartUs:    float64(s.Start.Sub(t.start)) / 1e3,
			DurationUs: float64(s.End.Sub(s.Start)) / 1e3,
		})
	}
	return ts
}

// Tracer decides which tuples get a lineage trace and retains the most
// recent ones in a ring buffer.
type Tracer struct {
	every   uint64
	n       atomic.Uint64
	sampled atomic.Uint64 // traces started; the last one's id

	mu   sync.Mutex
	ring []*Trace // guarded by mu
	next int      // guarded by mu
}

// NewTracer samples 1 in every `every` Sample calls and retains the most
// recent `ring` traces. every <= 0 disables sampling entirely (Sample
// always returns nil); ring <= 0 selects 256.
func NewTracer(every, ring int) *Tracer {
	if ring <= 0 {
		ring = 256
	}
	t := &Tracer{ring: make([]*Trace, 0, ring)}
	if every > 0 {
		t.every = uint64(every)
	}
	return t
}

// Enabled reports whether the tracer can ever sample. Safe on nil.
func (t *Tracer) Enabled() bool { return t != nil && t.every > 0 }

// Sample returns a fresh trace for 1 in every N calls and nil otherwise.
// The nil path is one atomic add — no allocation — and a nil Tracer always
// returns nil, so the spout can call it unconditionally.
func (t *Tracer) Sample() *Trace {
	if t == nil || t.every == 0 {
		return nil
	}
	if t.n.Add(1)%t.every != 0 {
		return nil
	}
	tr := &Trace{id: t.sampled.Add(1), start: time.Now()}
	t.mu.Lock()
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, tr)
	} else {
		t.ring[t.next] = tr
		t.next = (t.next + 1) % cap(t.ring)
	}
	t.mu.Unlock()
	return tr
}

// Sampled returns how many traces have been started.
func (t *Tracer) Sampled() uint64 {
	if t == nil {
		return 0
	}
	return t.sampled.Load()
}

// Recent snapshots the retained traces, newest first. Safe on nil (empty).
func (t *Tracer) Recent() []TraceSnapshot {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	trs := make([]*Trace, 0, len(t.ring))
	// Ring order: next..end is oldest, 0..next newest; walk backwards from
	// the slot before next.
	for i := 0; i < len(t.ring); i++ {
		idx := (t.next - 1 - i + len(t.ring)) % len(t.ring)
		trs = append(trs, t.ring[idx])
	}
	t.mu.Unlock()
	out := make([]TraceSnapshot, 0, len(trs))
	for _, tr := range trs {
		out = append(out, tr.snapshot())
	}
	return out
}
