// Package ssjoin is a streaming set-similarity join library: it finds, for
// every record arriving on a stream, all earlier records whose set
// similarity (Jaccard, Cosine, Dice or Overlap) reaches a threshold —
// online near-duplicate detection, data cleaning, and data integration are
// the canonical applications.
//
// The library reproduces the system of "Distributed Streaming Set
// Similarity Join" (ICDE 2020): a single-node streaming joiner built on
// prefix filtering with bundle-based grouping and batch verification, and a
// distributed runtime that dispatches records to workers by length — the
// paper's length-based distribution framework — with prefix-based and
// broadcast-based frameworks as baselines.
//
// # Quick start
//
//	js, _ := ssjoin.NewStream(ssjoin.Config{Threshold: 0.8})
//	id0, _ := js.Add([]uint32{1, 2, 3, 4, 5})
//	_, matches := js.Add([]uint32{1, 2, 3, 4, 6})
//	// matches[0].ID == id0
//
// For raw text, NewTextStream tokenizes and maintains the global token
// ordering for you. For distributed execution over an in-process worker
// fleet, see RunDistributed.
package ssjoin

import (
	"fmt"

	"repro/internal/bundle"
	"repro/internal/filter"
	"repro/internal/local"
	"repro/internal/record"
	"repro/internal/similarity"
	"repro/internal/tokens"
	"repro/internal/window"
)

// Similarity selects the set-similarity function.
type Similarity int

// Supported similarity functions. Thresholds for the first three are
// fractions in (0, 1]; Overlap thresholds are absolute intersection counts.
const (
	Jaccard Similarity = iota
	Cosine
	Dice
	Overlap
)

func (s Similarity) internal() (similarity.Func, error) {
	switch s {
	case Jaccard:
		return similarity.Jaccard, nil
	case Cosine:
		return similarity.Cosine, nil
	case Dice:
		return similarity.Dice, nil
	case Overlap:
		return similarity.Overlap, nil
	default:
		return 0, fmt.Errorf("ssjoin: unknown similarity %d", int(s))
	}
}

// String implements fmt.Stringer.
func (s Similarity) String() string {
	f, err := s.internal()
	if err != nil {
		return fmt.Sprintf("Similarity(%d)", int(s))
	}
	return f.String()
}

// Algorithm selects the local join algorithm.
type Algorithm int

// Supported algorithms. Bundle is the paper's contribution and the default;
// Prefix is the record-at-a-time prefix-filter joiner; Naive is a
// brute-force reference useful for validation.
const (
	Bundle Algorithm = iota
	Prefix
	Naive
)

func (a Algorithm) internal() (local.Algorithm, error) {
	switch a {
	case Bundle:
		return local.Bundled, nil
	case Prefix:
		return local.Prefix, nil
	case Naive:
		return local.Naive, nil
	default:
		return 0, fmt.Errorf("ssjoin: unknown algorithm %d", int(a))
	}
}

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	l, err := a.internal()
	if err != nil {
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
	return l.String()
}

// Config parameterizes a join stream.
type Config struct {
	// Threshold is the similarity threshold (required). For Jaccard,
	// Cosine and Dice it must lie in (0, 1]; for Overlap it is a count.
	Threshold float64
	// Function selects the similarity function (default Jaccard).
	Function Similarity
	// Algorithm selects the joiner (default Bundle).
	Algorithm Algorithm
	// WindowRecords keeps only the most recent N records joinable
	// (0 = unbounded).
	WindowRecords int64
	// WindowTicks keeps only records whose logical timestamp is within
	// this many ticks (0 = unbounded). At most one of WindowRecords and
	// WindowTicks may be set.
	WindowTicks int64
	// GroupThreshold is the bundle grouping threshold λ (default: the join
	// threshold). Ignored unless Algorithm is Bundle.
	GroupThreshold float64
	// MaxBundle caps bundle membership (default 64). Ignored unless
	// Algorithm is Bundle.
	MaxBundle int
}

func (c Config) build() (filter.Params, window.Policy, local.Algorithm, bundle.Config, error) {
	f, err := c.Function.internal()
	if err != nil {
		return filter.Params{}, nil, 0, bundle.Config{}, err
	}
	alg, err := c.Algorithm.internal()
	if err != nil {
		return filter.Params{}, nil, 0, bundle.Config{}, err
	}
	params := filter.Params{Func: f, Threshold: c.Threshold}
	if err := params.Validate(); err != nil {
		return filter.Params{}, nil, 0, bundle.Config{}, fmt.Errorf("ssjoin: %w", err)
	}
	if c.WindowRecords < 0 || c.WindowTicks < 0 {
		return filter.Params{}, nil, 0, bundle.Config{}, fmt.Errorf("ssjoin: window sizes must be non-negative")
	}
	if c.WindowRecords > 0 && c.WindowTicks > 0 {
		return filter.Params{}, nil, 0, bundle.Config{}, fmt.Errorf("ssjoin: set at most one of WindowRecords and WindowTicks")
	}
	var win window.Policy = window.Unbounded{}
	if c.WindowRecords > 0 {
		win = window.Count{N: c.WindowRecords}
	} else if c.WindowTicks > 0 {
		win = window.Time{Span: c.WindowTicks}
	}
	bcfg := bundle.Config{
		GroupThreshold: c.GroupThreshold,
		MaxMembers:     c.MaxBundle,
	}
	return params, win, alg, bcfg, nil
}

// Match is one verified join result: ID identifies the earlier record the
// new record matched, Overlap is the exact intersection size and Similarity
// the exact similarity value. It is the bundle index's own result type, so
// the index writes each match straight into the slice Add returns.
type Match = bundle.Hit

// Pair is a symmetric result pair as reported by distributed runs.
type Pair struct {
	A, B       uint64
	Similarity float64
}

// Stats summarizes the work a Stream has performed.
type Stats struct {
	// Records processed so far.
	Records uint64
	// Stored records currently joinable (inside the window).
	Stored int
	// Results emitted so far.
	Results uint64
	// Candidates checked and Verified pairs fully compared.
	Candidates, Verified uint64
}

// Stream is a single-node streaming self-join. It is not safe for
// concurrent use; shard across goroutines with RunDistributed or your own
// fan-out when one core is not enough.
type Stream struct {
	cfg     Config
	joiner  local.Joiner
	nextID  record.ID
	tick    int64
	records uint64
	scratch []Match
	// base accumulates work counters from joiners retired by index
	// rebuilds (ordering refresh), so Stats stays cumulative.
	base local.Cost
}

// NewStream validates cfg and returns an empty join stream.
func NewStream(cfg Config) (*Stream, error) {
	params, win, alg, bcfg, err := cfg.build()
	if err != nil {
		return nil, err
	}
	return &Stream{
		cfg:    cfg,
		joiner: local.New(alg, local.Options{Params: params, Window: win, Bundle: bcfg}),
	}, nil
}

// freshJoiner builds an empty joiner with the stream's configuration and
// retires the current one's counters into the cumulative base (the
// ordering-refresh rebuild path).
func (s *Stream) freshJoiner() local.Joiner {
	s.base = s.base.Add(s.joiner.Cost())
	params, win, alg, bcfg, _ := s.cfg.build() // cfg was validated at construction
	return local.New(alg, local.Options{Params: params, Window: win, Bundle: bcfg})
}

// Add ingests the next record given as a token multiset (any order,
// duplicates ignored), returning the record's assigned ID and all matches
// among earlier in-window records. The returned slice is reused by the next
// Add call; copy it if you keep it. The order of matches within one call is
// unspecified; sort by ID if you need one.
func (s *Stream) Add(tokenSet []uint32) (id uint64, matches []Match) {
	return s.addRecord(&record.Record{ID: s.nextID, Time: s.tick, Tokens: ownedSet(tokenSet)})
}

// ownedSet returns a sorted, deduplicated copy of a caller's token multiset,
// which the record it becomes owns.
func ownedSet(set []uint32) []tokens.Rank {
	cp := make([]tokens.Rank, len(set))
	copy(cp, set)
	return tokens.Dedup(cp)
}

// AddAt behaves like Add but stamps the record with an explicit logical
// time, which drives WindowTicks eviction. Times must be non-decreasing.
func (s *Stream) AddAt(tokenSet []uint32, at int64) (id uint64, matches []Match) {
	if at > s.tick {
		s.tick = at
	}
	return s.Add(tokenSet)
}

func (s *Stream) addRecord(r *record.Record) (uint64, []Match) {
	s.scratch = s.joiner.StepHits(r, true, s.scratch[:0])
	s.nextID++
	s.tick++
	s.records++
	return uint64(r.ID), s.scratch
}

// Size reports the number of records currently stored (inside the window).
func (s *Stream) Size() int { return s.joiner.Size() }

// Stats reports accumulated work counters (cumulative across ordering
// refreshes).
func (s *Stream) Stats() Stats {
	c := s.base.Add(s.joiner.Cost())
	return Stats{
		Records:    s.records,
		Stored:     s.joiner.Size(),
		Results:    c.Results,
		Candidates: c.Candidates,
		Verified:   c.Verified,
	}
}
