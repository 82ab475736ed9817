package ssjoin

import (
	"fmt"
	"time"

	"repro/internal/dispatch"
	"repro/internal/metrics"
	"repro/internal/partition"
	"repro/internal/record"
	"repro/internal/remote"
	"repro/internal/topology"
)

// Distribution selects the record-distribution framework for distributed
// runs.
type Distribution int

// Supported frameworks. LengthBased is the paper's contribution: records
// are stored at the single worker owning their length and probe only the
// workers whose length ranges are compatible, so the index is never
// replicated and communication stays small. PrefixBased replicates records
// along prefix-token shards (the offline state of the art adapted to
// streams); BroadcastBased probes everywhere.
const (
	LengthBased Distribution = iota
	PrefixBased
	BroadcastBased
)

// String implements fmt.Stringer.
func (d Distribution) String() string {
	switch d {
	case LengthBased:
		return "length"
	case PrefixBased:
		return "prefix"
	case BroadcastBased:
		return "broadcast"
	default:
		return fmt.Sprintf("Distribution(%d)", int(d))
	}
}

// Partitioner selects how LengthBased splits the length domain across
// workers.
type Partitioner int

// Supported partitioners. LoadAware balances the estimated local join cost
// (the paper's method); EvenLength and EvenFrequency are the baselines it
// is evaluated against.
const (
	LoadAware Partitioner = iota
	EvenLength
	EvenFrequency
)

// String implements fmt.Stringer.
func (p Partitioner) String() string {
	switch p {
	case LoadAware:
		return "load-aware"
	case EvenLength:
		return "even-length"
	case EvenFrequency:
		return "even-frequency"
	default:
		return fmt.Sprintf("Partitioner(%d)", int(p))
	}
}

// DistributedConfig parameterizes RunDistributed.
type DistributedConfig struct {
	// Config carries the join parameters (threshold, function, algorithm,
	// window, bundling).
	Config
	// Workers is the joiner parallelism (required, >= 1).
	Workers int
	// Distribution selects the framework (default LengthBased).
	Distribution Distribution
	// Partitioner selects the length-partitioning strategy for
	// LengthBased (default LoadAware).
	Partitioner Partitioner
	// SampleSize bounds how many records bootstrap the length histogram
	// for the partitioner (default 10000, negative is an error; the records
	// are still joined).
	SampleSize int
	// CollectPairs returns every result pair in the summary; leave false
	// for large runs and read Results instead.
	CollectPairs bool
}

// DistributedResult summarizes a distributed run.
type DistributedResult struct {
	// Results counts verified pairs; Pairs holds them when requested.
	Results uint64
	Pairs   []Pair
	// Records processed and wall-clock Elapsed.
	Records uint64
	Elapsed time.Duration
	// ThroughputPerSec is Records/Elapsed.
	ThroughputPerSec float64
	// CommTuples/CommBytes count dispatcher→worker traffic.
	CommTuples, CommBytes uint64
	// StoredCopies counts index entries across workers; equal to Records
	// means no replication.
	StoredCopies uint64
	// LoadImbalance is max/mean over the workers of the merge steps spent
	// (verification and union bounds) plus the postings walked, 1.0 being
	// perfectly balanced. Counts, so it repeats exactly per input — and only
	// a proxy for time: a step and a posting are not the same nanoseconds,
	// and what a worker pays per result or per cache miss is not in it (on
	// the Enron-like benchmark stream the cut that balances the two workers'
	// time read 1.45 in this unit before the signature widths were scaled).
	LoadImbalance float64
	// LatencyMeanNs / LatencyP99Ns summarize per-record processing latency
	// as topology.Result.Latency measures it: from the stamp of the source
	// chunk a record's worker batch opened in to the end of that batch's
	// step, an upper bound of the record's enqueue-to-probe time (larger by
	// at most the batch's fill time plus its step time).
	LatencyMeanNs, LatencyP99Ns int64
}

// toRecords converts token multisets into positional records.
func toRecords(records [][]uint32) []*record.Record {
	recs := make([]*record.Record, len(records))
	for i, set := range records {
		recs[i] = &record.Record{ID: record.ID(i), Time: int64(i), Tokens: ownedSet(set)}
	}
	return recs
}

// session is the one planning step of a distributed run, whichever
// runtime executes it: it maps the public enums, checks Workers and
// SampleSize, and runs the partitioner over the first SampleSize of recs.
// The strategy is the session's own Plan, built from its Hello as every
// fleet worker builds it.
func (cfg DistributedConfig) session(recs []*record.Record) (remote.Session, dispatch.Strategy, error) {
	params, win, alg, bcfg, err := cfg.Config.build()
	switch {
	case err != nil:
		return remote.Session{}, nil, err
	case cfg.Workers < 1:
		return remote.Session{}, nil, fmt.Errorf("ssjoin: Workers must be >= 1, got %d", cfg.Workers)
	case cfg.SampleSize < 0:
		return remote.Session{}, nil, fmt.Errorf("ssjoin: SampleSize must be >= 0, got %d", cfg.SampleSize)
	}
	s := remote.Session{Params: params, Algorithm: alg, Window: win, Bundle: bcfg, Strategy: cfg.Distribution.String()}
	if cfg.Distribution == LengthBased {
		n := cfg.SampleSize
		if n == 0 {
			n = partition.SampleSize
		}
		sample := recs[:min(len(recs), n)]
		var h partition.Histogram
		for _, r := range sample {
			h.Add(r.Len())
		}
		switch cfg.Partitioner {
		case LoadAware:
			s.Bounds = partition.Fit(params, sample, cfg.Workers).Bounds
		case EvenLength:
			s.Bounds = partition.EvenLength(h.MaxLen(), cfg.Workers).Bounds
		case EvenFrequency:
			s.Bounds = partition.EvenFrequency(&h, cfg.Workers).Bounds
		default:
			return s, nil, fmt.Errorf("ssjoin: unknown partitioner %d", int(cfg.Partitioner))
		}
	}
	_, strat, err := s.Plan(cfg.Workers)
	return s, strat, err
}

// Session plans cfg over records as RunDistributed does and returns the
// plan as the join spec of a worker fleet (remote.Run, remote.RunFT), one
// worker per task of cfg.Workers.
func (cfg DistributedConfig) Session(records [][]uint32) (remote.Session, error) {
	// The planner reads at most the first SampleSize records (the default
	// when unset), so only those are copied.
	sample := records[:min(len(records), max(cfg.SampleSize, partition.SampleSize))]
	s, _, err := cfg.session(toRecords(sample))
	return s, err
}

// plan validates cfg and builds the engine configuration for recs, the
// step RunDistributed and RunDistributedBi share.
func (cfg DistributedConfig) plan(recs []*record.Record) (topology.Config, error) {
	s, strat, err := cfg.session(recs)
	if err != nil {
		return topology.Config{}, err
	}
	return topology.Config{
		Workers:      cfg.Workers,
		Strategy:     strat,
		Algorithm:    s.Algorithm,
		Params:       s.Params,
		Window:       s.Window,
		Bundle:       s.Bundle,
		CollectPairs: cfg.CollectPairs,
	}, nil
}

// RunDistributed joins the record slice on an in-process worker fleet and
// returns the summary. Records are token multisets; IDs are positional.
func RunDistributed(records [][]uint32, cfg DistributedConfig) (*DistributedResult, error) {
	recs := toRecords(records)
	tc, err := cfg.plan(recs)
	if err != nil {
		return nil, err
	}
	res, err := topology.Run(recs, tc)
	if err != nil {
		return nil, err
	}
	return summarize(res), nil
}

// summarize converts an engine result into the public summary shape.
func summarize(res *topology.Result) *DistributedResult {
	out := &DistributedResult{
		Results:          res.Results,
		Records:          res.Records,
		Elapsed:          res.Elapsed,
		ThroughputPerSec: res.Throughput().PerSecond(),
		CommTuples:       res.CommTuples,
		CommBytes:        res.CommBytes,
		StoredCopies:     res.StoredCopies,
		LatencyMeanNs:    int64(res.Latency.Mean()),
		LatencyP99Ns:     int64(res.Latency.Quantile(0.99)),
	}
	loads := make([]float64, len(res.WorkerCosts))
	for i, c := range res.WorkerCosts {
		loads[i] = float64(c.RealizedLoad())
	}
	out.LoadImbalance = metrics.SummarizeLoads(loads).Imbalance
	for _, p := range res.Pairs {
		out.Pairs = append(out.Pairs, Pair{A: uint64(p.First), B: uint64(p.Second), Similarity: p.Sim})
	}
	return out
}

// SideSet is one record of a two-stream join: its token multiset plus the
// stream side it belongs to (false = R/left, true = S/right).
type SideSet struct {
	Right  bool
	Tokens []uint32
}

// RunDistributedBi joins a two-sided stream (data integration: records
// match only across sides) on an in-process worker fleet. The slice is the
// interleaved arrival order; IDs in the result pairs are positions in it.
func RunDistributedBi(stream []SideSet, cfg DistributedConfig) (*DistributedResult, error) {
	sets := make([][]uint32, len(stream))
	right := make([]bool, len(stream))
	for i, s := range stream {
		sets[i], right[i] = s.Tokens, s.Right
	}
	recs := toRecords(sets)
	tc, err := cfg.plan(recs)
	if err != nil {
		return nil, err
	}
	res, err := topology.RunBi(recs, right, tc)
	if err != nil {
		return nil, err
	}
	return summarize(res), nil
}
