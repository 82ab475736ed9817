// A bounded structured event log for lifecycle events: session start and
// end, retries, reconnects and window replays, dead workers, rebalance
// advice and kernel-mix shifts. Events are cheap fixed-shape structs in a ring
// buffer — the journal never allocates per Append beyond the ring. Each
// process serves its own journal at /debug/events.
package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Event is one journal entry.
type Event struct {
	// Seq orders events from one journal; unique per journal, not global.
	Seq uint64 `json:"seq"`
	// UnixNs is the wall-clock stamp.
	UnixNs int64 `json:"unix_ns"`
	// Type is the lifecycle event kind: retry, reconnect, replay,
	// worker_dead, rebalance_advice, kernel_mix, session_start,
	// session_end, ...
	Type string `json:"type"`
	// Component locates the emitter (e.g. "worker/2", "coordinator").
	Component string `json:"component"`
	// Msg is a short human-readable detail line.
	Msg string `json:"msg"`
}

// Journal is a bounded ring of events, safe for concurrent appenders.
// The zero of *Journal (nil) is a valid no-op sink: every method is
// nil-safe, so instrumented code needs no gating branches.
type Journal struct {
	appended atomic.Uint64

	mu      sync.Mutex
	ring    []Event // guarded by mu
	next    int     // guarded by mu
	seq     uint64  // guarded by mu
	dropped uint64  // guarded by mu
}

// NewJournal returns a journal retaining the most recent cap events
// (cap <= 0 selects 512).
func NewJournal(capacity int) *Journal {
	if capacity <= 0 {
		capacity = 512
	}
	return &Journal{ring: make([]Event, 0, capacity)}
}

// Append records one event. Nil-safe no-op.
func (j *Journal) Append(typ, component, msg string) {
	if j == nil {
		return
	}
	j.appended.Add(1)
	now := time.Now().UnixNano()
	j.mu.Lock()
	j.seq++
	ev := Event{Seq: j.seq, UnixNs: now, Type: typ, Component: component, Msg: msg}
	if len(j.ring) < cap(j.ring) {
		j.ring = append(j.ring, ev)
	} else {
		j.ring[j.next] = ev
		j.next = (j.next + 1) % cap(j.ring)
		j.dropped++
	}
	j.mu.Unlock()
}

// Appended returns the total number of events ever appended. Nil-safe.
func (j *Journal) Appended() uint64 {
	if j == nil {
		return 0
	}
	return j.appended.Load()
}

// Recent returns up to n retained events, oldest first (n <= 0 returns
// all retained). Nil-safe (empty).
func (j *Journal) Recent(n int) []Event {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	out := make([]Event, 0, len(j.ring))
	// Ring order: next..end is oldest, 0..next newest.
	for i := 0; i < len(j.ring); i++ {
		out = append(out, j.ring[(j.next+i)%len(j.ring)])
	}
	j.mu.Unlock()
	if n > 0 && len(out) > n {
		out = out[len(out)-n:]
	}
	return out
}

// JournalSnapshot is the JSON document served at /debug/events.
type JournalSnapshot struct {
	// Appended counts every event ever journaled; Dropped counts those
	// evicted from the ring, so Appended-Dropped are retained.
	Appended uint64  `json:"appended_total"`
	Dropped  uint64  `json:"dropped_total"`
	Events   []Event `json:"events"`
}

// Snapshot returns the retained events with drop accounting. Nil-safe.
func (j *Journal) Snapshot() JournalSnapshot {
	if j == nil {
		return JournalSnapshot{Events: []Event{}}
	}
	snap := JournalSnapshot{Appended: j.appended.Load(), Events: j.Recent(0)}
	j.mu.Lock()
	snap.Dropped = j.dropped
	j.mu.Unlock()
	return snap
}

// RegisterMetrics exposes the journal's volume counters on reg.
func (j *Journal) RegisterMetrics(reg *Registry) {
	reg.CounterFunc("journal_events_total",
		"Lifecycle events appended to the process journal.",
		func() float64 { return float64(j.Appended()) })
	reg.CounterFunc("journal_events_dropped_total",
		"Journal events evicted from the bounded ring.",
		func() float64 {
			if j == nil {
				return 0
			}
			j.mu.Lock()
			defer j.mu.Unlock()
			return float64(j.dropped)
		})
}
