// Package remote runs the distributed join over real network connections:
// a coordinator process dispatches records to worker processes speaking
// the wire protocol over TCP. It is the multi-process counterpart of
// internal/topology's in-process engine: the same strategies, joiners and
// windows, but with serialization and sockets on the path — the deployment
// shape the paper's Storm cluster has.
//
// Protocol per connection (one join session; ft.go has the coordinator,
// whose Hello sets FT: without it a worker sends no ResumeAck or Credit):
//
//	coordinator → worker: Hello, Record(load)*, (Record | Ping)*, EOF
//	worker → coordinator: ResumeAck?, (Result | Count | Credit | Pong)*, Stats
//
// The coordinator runs one reader goroutine per worker so result
// backpressure can never deadlock record dispatch.
package remote

import (
	"fmt"
	"slices"

	"repro/internal/bundle"
	"repro/internal/dispatch"
	"repro/internal/filter"
	"repro/internal/local"
	"repro/internal/partition"
	"repro/internal/similarity"
	"repro/internal/window"
	"repro/internal/wire"
)

// Session is the join configuration shared by coordinator and workers.
type Session struct {
	Params    filter.Params
	Algorithm local.Algorithm // the zero value is local.Naive, the brute-force scan
	Window    window.Policy   // nil = unbounded
	Bundle    bundle.Config
	// Strategy kind and, for the length strategy, the partition bounds.
	Strategy string // "length", "prefix", "broadcast"
	Bounds   []int
	// Bi selects a two-stream session: records carry sides and match only
	// across sides. Snapshot seeding/collection is not supported for bi
	// sessions.
	Bi bool
}

// strategyNames maps a Hello's strategy number to the dispatch strategy
// name it stands for.
var strategyNames = []string{"length", "prefix", "broadcast"}

// hello encodes the session for worker task of workers, checked as the
// worker will check it.
func (s Session) hello(task, workers int) (wire.Hello, error) {
	h, _, err := s.Plan(workers)
	h.Task = task
	return h, err
}

// Plan encodes the session as task 0's Hello for workers and builds the
// routing strategy from that Hello, through the path a worker takes, so
// the coordinator — and the in-process engine — route with the strategy
// every worker arbitrates with.
func (s Session) Plan(workers int) (wire.Hello, dispatch.Strategy, error) {
	h := wire.Hello{
		Version:        wire.Version,
		Workers:        workers,
		Func:           int(s.Params.Func),
		Threshold:      s.Params.Threshold,
		Algorithm:      int(s.Algorithm),
		Strategy:       slices.Index(strategyNames, s.Strategy),
		Bounds:         s.Bounds,
		GroupThreshold: s.Bundle.GroupThreshold,
		MaxMembers:     s.Bundle.MaxMembers,
		OneByOne:       s.Bundle.OneByOneVerify,
		Bi:             s.Bi,
	}
	switch w := s.Window.(type) {
	case nil, window.Unbounded:
	case window.Count:
		h.WindowKind = 1
		h.WindowN = w.N
	case window.Time:
		h.WindowKind = 2
		h.WindowN = w.Span
	default:
		return h, nil, fmt.Errorf("remote: unsupported window %T", s.Window)
	}
	if h.Strategy < 0 {
		return h, nil, fmt.Errorf("remote: unknown strategy %q", s.Strategy)
	}
	_, strat, err := sessionFromHello(h)
	return h, strat, err
}

// PlanHash is the plan hash (wire.Hello.PlanHash) of the session's Hello
// for workers, zero when the session does not encode.
func (s Session) PlanHash(workers int) uint64 {
	h, err := s.hello(0, workers)
	if err != nil {
		return 0
	}
	return h.PlanHash()
}

// SessionFromHello reconstructs a Session from a wire hello — the resume
// path: a saved manifest carries the launch hello, and the relaunched
// coordinator turns it back into the Session it must re-run.
func SessionFromHello(h wire.Hello) (Session, error) {
	s, _, err := sessionFromHello(h)
	return s, err
}

// sessionFromHello checks h and reconstructs the session and routing
// strategy it describes. A Hello it accepts builds a joiner and routes
// any record without a panic.
func sessionFromHello(h wire.Hello) (Session, dispatch.Strategy, error) {
	s := Session{
		Params: filter.Params{
			Func:      similarity.Func(h.Func),
			Threshold: h.Threshold,
		},
		Algorithm: local.Algorithm(h.Algorithm),
		Bundle: bundle.Config{
			GroupThreshold: h.GroupThreshold,
			MaxMembers:     h.MaxMembers,
			OneByOneVerify: h.OneByOne,
		},
		Bounds: h.Bounds,
		Bi:     h.Bi,
	}
	switch h.WindowKind {
	case 0:
		s.Window = window.Unbounded{}
	case 1:
		s.Window = window.Count{N: h.WindowN}
	case 2:
		s.Window = window.Time{Span: h.WindowN}
	default:
		return s, nil, fmt.Errorf("remote: unknown window kind %d", h.WindowKind)
	}
	thresholdErr := s.Params.Validate()
	switch {
	case h.WindowN < 0:
		return s, nil, fmt.Errorf("remote: negative window size %d", h.WindowN)
	case h.Workers < 1 || h.Task < 0 || h.Task >= h.Workers:
		return s, nil, fmt.Errorf("remote: task %d of %d workers", h.Task, h.Workers)
	case h.Func < 0 || h.Func > int(similarity.Overlap):
		return s, nil, fmt.Errorf("remote: unknown similarity function %d", h.Func)
	case thresholdErr != nil:
		return s, nil, fmt.Errorf("remote: %w", thresholdErr)
	case h.Algorithm < 0 || h.Algorithm > int(local.Bundled):
		return s, nil, fmt.Errorf("remote: unknown algorithm %d", h.Algorithm)
	case h.Strategy < 0 || h.Strategy >= len(strategyNames):
		return s, nil, fmt.Errorf("remote: unknown strategy %d", h.Strategy)
	}
	s.Strategy = strategyNames[h.Strategy]
	if s.Strategy == "length" && (len(h.Bounds) != h.Workers || !slices.IsSorted(h.Bounds)) {
		return s, nil, fmt.Errorf("remote: length strategy needs %d ascending bounds, got %v", h.Workers, h.Bounds)
	}
	strat, err := dispatch.ParseStrategy(s.Strategy, s.Params, partition.Partition{Bounds: h.Bounds})
	return s, strat, err
}
