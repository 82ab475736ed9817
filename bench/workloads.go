package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/dispatch"
	"repro/internal/filter"
	"repro/internal/partition"
	"repro/internal/record"
	"repro/internal/remote"
	"repro/internal/similarity"
	"repro/internal/window"
	"repro/internal/workload"
)

// The three runtimes a workload's closed-loop drain can go through.
const (
	runtimeEngine = "engine" // topology.Run: in-process stream engine
	runtimeFleet  = "fleet"  // remote.Run over loopback TCP
	runtimeText   = "text"   // one ssjoin.TextStream on one goroutine
)

// sampleSize is the number of leading records that bootstrap the partition
// histogram and the text ordering (ssjoin.DistributedConfig's default).
const sampleSize = 10000

// job is one benchmark workload. Every size is a constant here, stated for
// a run of BENCHMARK.json's run_seconds on a 2-core box; --seconds scales
// records and pacedRecords linearly and nothing else. Nothing is ever
// derived from a measurement at run time.
type job struct {
	name    string
	profile func(seed int64) workload.Profile
	runtime string
	// records is the stream length of one closed-loop drain.
	records int
	tau     float64
	// window is the count window, fixed so per-record cost is stationary.
	window  int64
	workers int
	// paceRate is the arrival rate (records/s) of a traced run's open-loop
	// latency pass; pacedRecords is how many arrivals it times after an
	// untimed preload of one window.
	paceRate     float64
	pacedRecords int
	// newPacer makes the clock of one open-loop segment; nil means the wall
	// clock. The self-tests substitute a clock of their own, so that they
	// assert nothing about this machine's speed.
	newPacer func() pacer
}

// jobs is the workload table; bench/README.md gives the reason for each.
var jobs = []job{
	{name: "aol_engine", profile: workload.AOLLike, runtime: runtimeEngine,
		records: 200_000, tau: 0.8, window: 50_000, workers: 2, paceRate: 10_000, pacedRecords: 60_000},
	{name: "aol_fleet", profile: workload.AOLLike, runtime: runtimeFleet,
		records: 200_000, tau: 0.8, window: 50_000, workers: 2, paceRate: 10_000, pacedRecords: 60_000},
	{name: "enron_verify", profile: workload.EnronLike, runtime: runtimeEngine,
		records: 60_000, tau: 0.7, window: 20_000, workers: 2, paceRate: 2_500, pacedRecords: 15_000},
	{name: "tweet_text_local", profile: workload.TweetLike, runtime: runtimeText,
		records: 400_000, tau: 0.8, window: 2_000, workers: 1, paceRate: 20_000, pacedRecords: 120_000},
}

func jobByName(name string) *job {
	for i := range jobs {
		if jobs[i].name == name {
			return &jobs[i]
		}
	}
	return nil
}

// sizes are a job's record counts after --seconds scaling.
type sizes struct {
	Records int `json:"records"`
	// Preload is the untimed head of a latency pass. The closed-loop pass
	// times the rest of the stream, the open-loop pass the next Paced
	// records.
	Preload int `json:"preload"`
	Paced   int `json:"paced"`
	// Warmup is the unmeasured drain before the measured repetitions.
	Warmup int `json:"warmup"`
}

func (j *job) sizes(scale float64) sizes {
	s := sizes{
		Records: int(float64(j.records) * scale),
		Paced:   int(float64(j.pacedRecords) * scale),
		Preload: int(j.window),
	}
	if s.Records < 100 {
		s.Records = 100
	}
	if s.Paced < 20 {
		s.Paced = 20
	}
	// At reduced scale the stream may be shorter than one window.
	if s.Preload+s.Paced > s.Records {
		s.Preload = s.Records / 4
		if s.Paced > s.Records-s.Preload {
			s.Paced = s.Records - s.Preload
		}
	}
	s.Warmup = s.Records / 10
	return s
}

// inputs is everything set-up produces: what exists before the first
// measured record.
type inputs struct {
	job    *job
	sz     sizes
	recs   []*record.Record
	texts  []string // runtimeText only
	params filter.Params
	win    window.Count
	// Distributed runtimes: the partition plan and its strategy. planTime
	// is the part of set-up spent in Histogram + Weights + LoadAware.
	weights  []float64
	part     partition.Partition
	strat    dispatch.Strategy
	planTime time.Duration
	fleet    *fleet // runtimeFleet only
}

// setUp generates the stream from the seed and prepares the workload's
// runtime: partition plan for the distributed ones, listeners and a first
// dial for the fleet, rendered texts for the text stream. Its wall time is
// the setup_s metric.
func (j *job) setUp(seed int64, scale float64) (*inputs, error) {
	in := &inputs{
		job:    j,
		sz:     j.sizes(scale),
		params: filter.Params{Func: similarity.Jaccard, Threshold: j.tau},
		win:    window.Count{N: j.window},
	}
	in.recs = workload.NewGenerator(j.profile(seed)).Generate(in.sz.Records)
	switch j.runtime {
	case runtimeText:
		in.texts = renderTexts(in.recs)
		// Building the ordering from the sample is part of what a user
		// pays before the first record.
		if _, err := in.newTextStream(); err != nil {
			return nil, err
		}
	default:
		start := time.Now()
		var h partition.Histogram
		for i, r := range in.recs {
			if i >= sampleSize {
				break
			}
			h.Add(r.Len())
		}
		in.weights = partition.CostModel{Params: in.params}.Weights(&h)
		in.part = partition.LoadAware(in.weights, j.workers)
		in.planTime = time.Since(start)
		in.strat = dispatch.NewLengthBased(in.params, in.part)
	}
	if j.runtime == runtimeFleet {
		f, err := startFleet(j.workers)
		if err != nil {
			return nil, err
		}
		in.fleet = f
		conns, err := f.dial()
		if err != nil {
			f.stop()
			return nil, err
		}
		closeAll(conns)
	}
	return in, nil
}

// close releases what setUp started; safe on nil.
func (in *inputs) close() {
	if in != nil && in.fleet != nil {
		in.fleet.stop()
	}
}

// renderTexts turns rank sets into whitespace-separated words, one distinct
// lower-case word per rank, so the word tokenizer recovers exactly the
// generator's sets and the join result is unchanged.
func renderTexts(recs []*record.Record) []string {
	texts := make([]string, len(recs))
	var sb strings.Builder
	for i, r := range recs {
		sb.Reset()
		for k, t := range r.Tokens {
			if k > 0 {
				sb.WriteByte(' ')
			}
			sb.WriteByte('w')
			sb.WriteString(strconv.FormatUint(uint64(t), 36))
		}
		texts[i] = sb.String()
	}
	return texts
}

// fleet is a set of in-process remote workers listening on loopback TCP.
type fleet struct {
	cancel    context.CancelFunc
	listeners []net.Listener
	served    sync.WaitGroup
}

func startFleet(k int) (*fleet, error) {
	ctx, cancel := context.WithCancel(context.Background())
	f := &fleet{cancel: cancel}
	for i := 0; i < k; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.stop()
			return nil, fmt.Errorf("fleet: %w", err)
		}
		f.listeners = append(f.listeners, ln)
		f.served.Add(1)
		go func() {
			defer f.served.Done()
			// ServeWorker returns nil once its listener closes; a session
			// failure surfaces to the coordinator as a read error.
			_ = remote.ServeWorker(ctx, ln, func(string, ...interface{}) {})
		}()
	}
	return f, nil
}

// dial opens one fresh connection per worker: a connection carries exactly
// one join session.
func (f *fleet) dial() ([]net.Conn, error) {
	var conns []net.Conn
	for _, ln := range f.listeners {
		c, err := net.DialTimeout("tcp", ln.Addr().String(), 5*time.Second)
		if err != nil {
			closeAll(conns)
			return nil, fmt.Errorf("fleet: %w", err)
		}
		conns = append(conns, c)
	}
	return conns, nil
}

// stop closes the listeners and waits for every worker goroutine, which in
// turn waits for its in-flight sessions.
func (f *fleet) stop() {
	f.cancel()
	for _, ln := range f.listeners {
		ln.Close()
	}
	f.served.Wait()
}

func closeAll(conns []net.Conn) {
	for _, c := range conns {
		c.Close()
	}
}

func readWriters(conns []net.Conn) []io.ReadWriter {
	out := make([]io.ReadWriter, len(conns))
	for i, c := range conns {
		out[i] = c
	}
	return out
}
