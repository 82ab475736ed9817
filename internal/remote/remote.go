// Package remote runs the distributed join over real network connections:
// a coordinator process dispatches records to worker processes speaking
// the wire protocol over TCP. It is the multi-process counterpart of
// internal/topology's in-process engine: the same strategies, joiners and
// windows, but with serialization and sockets on the path — the deployment
// shape the paper's Storm cluster has.
//
// Protocol per connection (one join session):
//
//	coordinator → worker: Hello, Record*, EOF
//	worker → coordinator: Result*, Stats, close
//
// The coordinator runs one reader goroutine per worker so result
// backpressure can never deadlock record dispatch.
package remote

import (
	"fmt"
	"math"

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
	Algorithm local.Algorithm
	Window    window.Policy // nil = unbounded
	Bundle    bundle.Config
	// Strategy kind and, for the length strategy, the partition bounds.
	Strategy string // "length", "prefix", "broadcast"
	Bounds   []int
	// Bi selects a two-stream session: records carry sides and match only
	// across sides. Snapshot seeding/collection is not supported for bi
	// sessions.
	Bi bool
}

// hello encodes the session for worker task of workers.
func (s Session) hello(task, workers int) (wire.Hello, error) {
	h := wire.Hello{
		Version:        wire.Version,
		Task:           task,
		Workers:        workers,
		Func:           int(s.Params.Func),
		Threshold:      s.Params.Threshold,
		Algorithm:      int(s.Algorithm),
		Bounds:         s.Bounds,
		GroupThreshold: s.Bundle.GroupThreshold,
		MaxMembers:     s.Bundle.MaxMembers,
		OneByOne:       s.Bundle.OneByOneVerify,
		Bi:             s.Bi,
	}
	switch w := s.Window.(type) {
	case nil, window.Unbounded:
		h.WindowKind = 0
	case window.Count:
		h.WindowKind = 1
		h.WindowN = w.N
	case window.Time:
		h.WindowKind = 2
		h.WindowN = w.Span
	default:
		return h, fmt.Errorf("remote: unsupported window %T", s.Window)
	}
	switch s.Strategy {
	case "length":
		h.Strategy = 0
		if len(s.Bounds) != workers {
			return h, fmt.Errorf("remote: length strategy needs %d bounds, got %d", workers, len(s.Bounds))
		}
	case "prefix":
		h.Strategy = 1
	case "broadcast":
		h.Strategy = 2
	default:
		return h, fmt.Errorf("remote: unknown strategy %q", s.Strategy)
	}
	return h, nil
}

// PlanHash fingerprints the launch configuration: worker count, strategy,
// partition bounds, similarity parameters, window, bundle knobs and
// bi-stream mode. Coordinators stamp it into hellos and session
// manifests; workers persist it in checkpoints so a resume against a
// *different* plan (stale checkpoint directory, edited bounds) is rejected
// instead of silently producing wrong results. FNV-1a over the canonical
// field encoding — stable across runs of the same launch config.
func (s Session) PlanHash(workers int) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	mix(uint64(workers))
	mix(uint64(len(s.Strategy)))
	for i := 0; i < len(s.Strategy); i++ {
		mix(uint64(s.Strategy[i]))
	}
	mix(uint64(len(s.Bounds)))
	for _, b := range s.Bounds {
		mix(uint64(b))
	}
	mix(uint64(s.Params.Func))
	mix(math.Float64bits(s.Params.Threshold))
	mix(uint64(s.Algorithm))
	switch w := s.Window.(type) {
	case nil, window.Unbounded:
		mix(0)
	case window.Count:
		mix(1)
		mix(uint64(w.N))
	case window.Time:
		mix(2)
		mix(uint64(w.Span))
	default:
		mix(^uint64(0))
	}
	mix(math.Float64bits(s.Bundle.GroupThreshold))
	mix(uint64(s.Bundle.MaxMembers))
	if s.Bundle.OneByOneVerify {
		mix(1)
	} else {
		mix(0)
	}
	if s.Bi {
		mix(1)
	} else {
		mix(0)
	}
	return h
}

// SessionFromHello reconstructs a Session from a wire hello — the resume
// path: a saved manifest carries the launch hello, and the relaunched
// coordinator turns it back into the Session it must re-run.
func SessionFromHello(h wire.Hello) (Session, error) {
	s, _, err := sessionFromHello(h)
	return s, err
}

// sessionFromHello reconstructs the worker-side session.
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
	var strat dispatch.Strategy
	switch h.Strategy {
	case 0:
		s.Strategy = "length"
		strat = dispatch.NewLengthBased(s.Params, partition.Partition{Bounds: h.Bounds})
	case 1:
		s.Strategy = "prefix"
		strat = dispatch.PrefixBased{Params: s.Params}
	case 2:
		s.Strategy = "broadcast"
		strat = dispatch.BroadcastBased{}
	default:
		return s, nil, fmt.Errorf("remote: unknown strategy %d", h.Strategy)
	}
	if s.Params.Threshold <= 0 {
		return s, nil, fmt.Errorf("remote: non-positive threshold %v", s.Params.Threshold)
	}
	return s, strat, nil
}

// strategyFor builds the coordinator-side routing strategy.
func (s Session) strategyFor(workers int) (dispatch.Strategy, error) {
	switch s.Strategy {
	case "length":
		if len(s.Bounds) != workers {
			return nil, fmt.Errorf("remote: length strategy needs %d bounds, got %d", workers, len(s.Bounds))
		}
		return dispatch.NewLengthBased(s.Params, partition.Partition{Bounds: s.Bounds}), nil
	case "prefix":
		return dispatch.PrefixBased{Params: s.Params}, nil
	case "broadcast":
		return dispatch.BroadcastBased{}, nil
	default:
		return nil, fmt.Errorf("remote: unknown strategy %q", s.Strategy)
	}
}
