package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	ssjoin "repro"
	"repro/internal/local"
	"repro/internal/remote"
	"repro/internal/topology"
)

func (in *inputs) streamConfig() ssjoin.Config {
	return ssjoin.Config{Threshold: in.job.tau, WindowRecords: in.job.window}
}

func (in *inputs) newTextStream() (*ssjoin.TextStream, error) {
	sample := in.texts
	if len(sample) > sampleSize {
		sample = sample[:sampleSize]
	}
	return ssjoin.NewTextStream(in.streamConfig(), ssjoin.Words, sample)
}

func (in *inputs) session() remote.Session {
	return remote.Session{
		Params:    in.params,
		Algorithm: local.Bundled,
		Window:    in.win,
		Strategy:  "length",
		Bounds:    in.part.Bounds,
	}
}

// drained is the outcome of one closed-loop drain. wall is measured here,
// around the runtime's entry point, not taken from the runtime's own
// report.
type drained struct {
	results uint64
	wall    time.Duration
	topo    *topology.Result   // runtimeEngine
	sum     *remote.RunSummary // runtimeFleet
}

// drain pushes the first n records through the workload's runtime as fast
// as it takes them (closed loop) and waits for the complete result.
func (in *inputs) drain(n int) (drained, error) {
	switch in.job.runtime {
	case runtimeEngine:
		start := time.Now()
		res, err := topology.Run(in.recs[:n], topology.Config{
			Workers:   in.job.workers,
			Strategy:  in.strat,
			Algorithm: local.Bundled,
			Params:    in.params,
			Window:    in.win,
		})
		if err != nil {
			return drained{}, err
		}
		return drained{results: res.Results, wall: time.Since(start), topo: res}, nil
	case runtimeFleet:
		conns, err := in.fleet.dial()
		if err != nil {
			return drained{}, err
		}
		defer closeAll(conns)
		start := time.Now()
		sum, err := remote.Run(context.Background(), readWriters(conns), in.session(), in.recs[:n], false)
		if err != nil {
			return drained{}, err
		}
		return drained{results: sum.Results, wall: time.Since(start), sum: sum}, nil
	case runtimeText:
		ts, err := in.newTextStream()
		if err != nil {
			return drained{}, err
		}
		var results uint64
		start := time.Now()
		for _, text := range in.texts[:n] {
			_, ms := ts.Add(text)
			results += uint64(len(ms))
		}
		return drained{results: results, wall: time.Since(start)}, nil
	}
	return drained{}, fmt.Errorf("unknown runtime %q", in.job.runtime)
}

// paced is the outcome of one open-loop schedule.
type paced struct {
	latNs      []int64 // finish − due, one per paced record
	busy, span time.Duration
	// backlogMax is the largest number of records that were due but not
	// yet started when a record began; backlogEnd is that number at the
	// first start after the last arrival came due, i.e. what the generator
	// left behind when it finished. A sustainable rate keeps emptying the
	// queue, so a backlogEnd > 0 on every schedule of a run means the
	// backlog was growing and the latencies are void.
	backlogMax, backlogEnd int
}

// merge adds one segment's outcome to the totals of a pass. An
// unsustainable rate leaves a backlog at the end of every segment, a stall
// that happens to hit the end of one does not: the pass keeps the smallest.
func (p *paced) merge(seg paced) {
	p.busy += seg.busy
	p.span += seg.span
	if seg.backlogMax > p.backlogMax {
		p.backlogMax = seg.backlogMax
	}
	if p.backlogEnd < 0 || seg.backlogEnd < p.backlogEnd {
		p.backlogEnd = seg.backlogEnd
	}
}

// pacer runs an open-loop schedule against a clock. Arrivals are virtual:
// record i is due at due[i] after the pass starts, begins when it is due
// and the previous record has finished, and its latency is finish − due.
// A stall is therefore charged to every record that became due during it,
// and the generator is never late by construction.
type pacer struct {
	now  func() time.Duration      // time since the pass started
	wait func(until time.Duration) // returns once now() >= until
}

func wallPacer() pacer {
	t0 := time.Now()
	now := func() time.Duration { return time.Since(t0) }
	// Spinning keeps start times within a clock read of the schedule;
	// sleeping would add the scheduler's wake-up latency to every record.
	return pacer{now: now, wait: func(until time.Duration) {
		for now() < until {
		}
	}}
}

func (p pacer) run(due []time.Duration, step func(i int)) paced {
	res := paced{latNs: make([]int64, len(due)), backlogEnd: -1}
	next := 0 // first record not yet due at the last look
	for i := range due {
		if p.now() < due[i] {
			p.wait(due[i])
		}
		start := p.now()
		for next < len(due) && due[next] <= start {
			next++
		}
		backlog := next - i - 1
		if backlog > res.backlogMax {
			res.backlogMax = backlog
		}
		if next == len(due) && res.backlogEnd < 0 {
			res.backlogEnd = backlog
		}
		step(i)
		fin := p.now()
		res.latNs[i] = int64(fin - due[i])
		res.busy += fin - start
		res.span = fin
	}
	return res
}

// poissonSchedule draws n arrival offsets at the given mean rate.
func poissonSchedule(seed int64, rate float64, n int) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	due := make([]time.Duration, n)
	var t float64 // seconds
	for i := range due {
		t += rng.ExpFloat64() / rate
		due[i] = time.Duration(t * float64(time.Second))
	}
	return due
}

// latencySegments is the number of equal, consecutive segments a latency
// pass is cut into. The segments run spread over the whole run,
// segmentsPerSlot before each drain (warm-up included), and a latency metric
// is the median of the segments' own percentiles. On a shared 2-core box the
// machine's speed wanders by ±20 % over seconds; a percentile of one
// contiguous pass reports whatever state the machine was in for that second,
// the median of spread-out segments samples several states and ignores the
// few segments a stall or a collection cycle hit.
const (
	segmentsPerSlot = 2
	latencySegments = segmentsPerSlot * (1 + drainReps)
)

// latencyPass feeds the job's stream to the single-node, single-goroutine
// stream API (the single-threaded baseline of the same job), because that is
// the only entry point that takes records one at a time: topology.Run and
// remote.Run take a slice. It is timed in one of two ways, segment by
// segment: closed loop (one caller, each Add timed) or open loop (paced).
type latencyPass struct {
	in      *inputs
	add     func(i int) // feeds record i of the stream
	fed     int         // records fed so far
	results uint64      // result pairs found so far
}

// newLatencyPass builds the stream and preloads one window untimed, so the
// timed records all meet a full window.
func (in *inputs) newLatencyPass() (*latencyPass, error) {
	lp := &latencyPass{in: in}
	if in.job.runtime == runtimeText {
		ts, err := in.newTextStream()
		if err != nil {
			return nil, err
		}
		lp.add = func(i int) {
			_, ms := ts.Add(in.texts[i])
			lp.results += uint64(len(ms))
		}
	} else {
		s, err := ssjoin.NewStream(in.streamConfig())
		if err != nil {
			return nil, err
		}
		lp.add = func(i int) {
			_, ms := s.Add(in.recs[i].Tokens)
			lp.results += uint64(len(ms))
		}
	}
	for ; lp.fed < in.sz.Preload; lp.fed++ {
		lp.add(lp.fed)
	}
	return lp, nil
}

// closedSegment feeds segment k of the rest of the stream as one caller
// would: the next Add starts when the previous one has returned, and a
// record's latency is the duration of its own Add.
func (lp *latencyPass) closedSegment(k int) []int64 {
	rest := lp.in.sz.Records - lp.in.sz.Preload
	end := lp.in.sz.Preload + (k+1)*rest/latencySegments
	latNs := make([]int64, 0, end-lp.fed)
	for ; lp.fed < end; lp.fed++ {
		start := time.Now()
		lp.add(lp.fed)
		latNs = append(latNs, int64(time.Since(start)))
	}
	return latNs
}

// openSegment feeds segment k of the paced records as Poisson arrivals at
// the job's fixed rate, on a schedule of its own.
func (lp *latencyPass) openSegment(seed int64, k int) paced {
	first := lp.fed
	end := lp.in.sz.Preload + (k+1)*lp.in.sz.Paced/latencySegments
	due := poissonSchedule(seed+int64(k), lp.in.job.paceRate, end-first)
	newPacer := lp.in.job.newPacer
	if newPacer == nil {
		newPacer = wallPacer
	}
	lp.fed = end
	return newPacer().run(due, func(i int) { lp.add(first + i) })
}
