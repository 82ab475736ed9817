package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"repro/internal/bundle"
	"repro/internal/checkpoint"
	"repro/internal/local"
	"repro/internal/partition"
	"repro/internal/record"
	"repro/internal/remote"
	"repro/internal/similarity"
	"repro/internal/stream"
	"repro/internal/tokens"
	"repro/internal/wire"
)

// traceEvery is the span sampling stride: one record in this many keeps its
// spans.
const traceEvery = 64

// span is one timed call into a layer. Spans of one record share Record;
// the root span is named "record" and has Parent -1. Times are nanoseconds
// since the replay started.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Record  uint64 `json:"record"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// selfTimes sums, per span name, each span's duration minus the part its
// children cover.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] += s.EndNs - s.StartNs
		}
	}
	self := make(map[string]time.Duration)
	for _, s := range spans {
		self[s.Name] += time.Duration(s.EndNs - s.StartNs - children[s.ID])
	}
	return self
}

// layerValues collects per-layer metric values by name. Layers that are not
// on a workload's path are never set and report 0: that workload does no
// work there.
type layerValues map[string]float64

func perRec(total time.Duration, n int) float64 { return float64(total.Nanoseconds()) / float64(n) }

// ratio is a/b, or 0 when there was nothing to divide by.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// traceLayers takes every per-layer number from outside, by timing calls
// into each package's public functions over the workload's own stream.
// d is an untraced drain of the same stream, the base of the busy shares
// and of the tracing overhead.
func (in *inputs) traceLayers(d drained) (layerValues, []span, error) {
	v := layerValues{}
	n := in.sz.Records
	distributed := in.job.runtime != runtimeText

	if distributed {
		v["partition.plan_ms"] = ms(in.planTime)
		v["partition.imbalance_est"] = partition.Imbalance(in.part, in.weights)
		in.routeLayer(v)
	}
	switch in.job.runtime {
	case runtimeEngine:
		if err := in.engineLayers(v, d); err != nil {
			return nil, nil, err
		}
	case runtimeFleet:
		if err := in.wireLayer(v); err != nil {
			return nil, nil, err
		}
		if err := in.fleetLayers(v, d); err != nil {
			return nil, nil, err
		}
	}

	rp, err := in.replay()
	if err != nil {
		return nil, nil, err
	}
	if rp.results != d.results {
		return nil, nil, fmt.Errorf("isolated replay found %d result pairs, the drain %d", rp.results, d.results)
	}
	var st bundle.Stats
	var evict, probe, insert time.Duration
	var loadMax, loadSum float64
	for w, bx := range rp.indexes {
		s := bx.Stats()
		st.Scanned += s.Scanned
		st.MemberChecks += s.MemberChecks
		st.Verified += s.Verified
		st.Results += s.Results
		st.VerifySteps += s.VerifySteps
		st.KernelLinear += s.KernelLinear
		st.KernelGallop += s.KernelGallop
		st.KernelBitset += s.KernelBitset
		// The partitioner's cost unit, as ssjoin.RunDistributed reports it.
		load := float64(s.VerifySteps + s.UnionSteps + s.Scanned)
		loadSum += load
		if load > loadMax {
			loadMax = load
		}
		evict += rp.clocks[w].evict
		probe += rp.clocks[w].probe
		insert += rp.clocks[w].insert
	}
	if distributed {
		v["partition.imbalance_real"] = ratio(loadMax, loadSum/float64(len(rp.indexes)))
	}
	busyShare := float64(evict+probe+insert) / (float64(in.job.workers) * float64(d.wall))
	switch in.job.runtime {
	case runtimeEngine:
		v["topology.worker_busy_share"] = busyShare
	case runtimeFleet:
		v["remote.worker_busy_share"] = busyShare
	}
	if in.job.runtime == runtimeText {
		v["tokens.build_ns_per_rec"] = perRec(rp.tokenTime, n)
		v["tokens.tokens_per_rec"] = float64(rp.tokenCount) / float64(n)
	}
	v["results"] = float64(rp.results)
	v["bundle.evict_ns_per_rec"] = perRec(evict, n)
	v["bundle.probe_ns_per_rec"] = perRec(probe, n)
	v["bundle.insert_ns_per_rec"] = perRec(insert, n)
	v["bundle.scanned_per_rec"] = float64(st.Scanned) / float64(n)
	v["bundle.candidates_per_rec"] = float64(st.MemberChecks) / float64(n)
	v["bundle.verified_per_rec"] = float64(st.Verified) / float64(n)
	v["bundle.useful_ratio"] = ratio(float64(st.Results), float64(st.Verified))
	v["similarity.verify_steps_per_rec"] = float64(st.VerifySteps) / float64(n)
	v["similarity.gallop_share"] = ratio(float64(st.KernelGallop), float64(st.KernelLinear+st.KernelGallop+st.KernelBitset))
	v["similarity.verify_ns_per_step"] = in.verifyLayer(rp.matched)
	v["trace.overhead_ratio"] = float64(rp.wall) / float64(d.wall)

	if err := in.stepLayer(v, rp.built); err != nil {
		return nil, nil, err
	}
	return v, rp.spans, nil
}

// routeLayer times Strategy.Route over every record.
func (in *inputs) routeLayer(v layerValues) {
	k := in.job.workers
	buf := make([]int, 0, k)
	fanout := 0
	start := time.Now()
	for _, r := range in.recs {
		buf = in.strat.Route(r, k, buf[:0])
		fanout += len(buf)
	}
	v["dispatch.route_ns_per_rec"] = perRec(time.Since(start), len(in.recs))
	v["dispatch.fanout_per_rec"] = float64(fanout) / float64(len(in.recs))
}

// wireLayer encodes every routed record copy into a buffer and decodes it
// back. Routing happens before the clock starts: its cost is the dispatch
// layer's.
func (in *inputs) wireLayer(v layerValues) error {
	k := in.job.workers
	type routedCopy struct {
		rec   *record.Record
		store bool
	}
	var copies []routedCopy
	dests := make([]int, 0, k)
	for _, r := range in.recs {
		dests = in.strat.Route(r, k, dests[:0])
		for _, dst := range dests {
			copies = append(copies, routedCopy{rec: r, store: in.strat.Stores(r, dst, k)})
		}
	}

	var buf bytes.Buffer
	w := wire.NewWriter(&buf)
	start := time.Now()
	for _, c := range copies {
		if err := w.WriteRecord(c.store, c.rec); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	v["wire.encode_ns_per_rec"] = perRec(time.Since(start), len(in.recs))
	v["wire.bytes_per_rec"] = float64(buf.Len()) / float64(len(in.recs))

	rd := wire.NewReader(&buf)
	start = time.Now()
	for range copies {
		if _, err := rd.Next(); err != nil {
			return err
		}
		if _, err := rd.ReadRecord(); err != nil {
			return err
		}
	}
	v["wire.decode_ns_per_rec"] = perRec(time.Since(start), len(in.recs))
	return nil
}

type hopTuple struct{}

func (*hopTuple) SizeBytes() int { return 24 }

type hopSpout struct {
	left uint64
	t    *hopTuple
}

func (s *hopSpout) Next() (stream.Tuple, bool) {
	if s.left == 0 {
		return nil, false
	}
	s.left--
	return s.t, true
}

type hopRelay struct{}

func (hopRelay) Execute(t stream.Tuple, em stream.Emitter) { em.Emit(t) }

type hopSink struct{ seen uint64 }

func (s *hopSink) Execute(stream.Tuple, stream.Emitter) { s.seen++ }

// hopEdges is the number of edges of the pass-through topology: the same
// two a record crosses in the engine (source → dispatcher → worker).
const hopEdges = 2

// engineLayers reads the engine's own report and times a pass-through
// topology shipping as many tuples as the drain did, at the engine's
// default batch size and queue capacity.
func (in *inputs) engineLayers(v layerValues, d drained) error {
	n := float64(in.sz.Records)
	v["topology.results_per_rec"] = float64(d.topo.Results) / n
	v["topology.comm_bytes_per_rec"] = float64(d.topo.CommBytes) / n
	v["topology.engine_latency_p99_ms"] = ms(d.topo.Latency.Quantile(0.99))

	queueCap := (1024 + stream.DefaultBatchSize - 1) / stream.DefaultBatchSize
	tp := stream.New("hop", queueCap, stream.WithBatchSize(stream.DefaultBatchSize))
	tuples := d.topo.CommTuples
	tp.AddSpout("source", func(int) stream.Spout { return &hopSpout{left: tuples, t: &hopTuple{}} }, 1)
	tp.AddBolt("relay", func(int) stream.Bolt { return hopRelay{} }, 1).SubscribeTo("source", stream.Shuffle{})
	tp.AddBolt("sink", func(int) stream.Bolt { return &hopSink{} }, 1).SubscribeTo("relay", stream.Shuffle{})
	rep, err := tp.Run()
	if err != nil {
		return err
	}
	v["stream.hop_ns_per_tuple"] = ratio(float64(rep.Elapsed.Nanoseconds()), float64(tuples*hopEdges))
	return nil
}

// fleetLayers reads the coordinator's summary and times a session over zero
// records: hello, EOF and the final stats frame on every connection.
func (in *inputs) fleetLayers(v layerValues, d drained) error {
	v["remote.bytes_sent_per_rec"] = float64(d.sum.BytesSent) / float64(in.sz.Records)
	conns, err := in.fleet.dial()
	if err != nil {
		return err
	}
	defer closeAll(conns)
	start := time.Now()
	if _, err := remote.Run(context.Background(), readWriters(conns), in.session(), nil, false); err != nil {
		return err
	}
	v["remote.handshake_ms"] = ms(time.Since(start))
	return nil
}

// workerClock is the isolated join time of one worker's share.
type workerClock struct{ evict, probe, insert time.Duration }

// matchedPair is one verified result, kept to time the verification kernel
// on real matches.
type matchedPair struct{ a, b []tokens.Rank }

const matchedSample = 4096

type replayed struct {
	indexes []*bundle.Index
	clocks  []workerClock
	results uint64
	wall    time.Duration
	spans   []span
	matched []matchedPair
	// runtimeText only: the records the builder produced, and its cost.
	built      []*record.Record
	tokenTime  time.Duration
	tokenCount int
}

// replay walks the stream once on one goroutine and makes, for each record,
// the layer calls its runtime would make: build from text, route, encode
// and decode each copy, then evict / probe / insert on the destination
// worker's index (what Index.Process and the bundle joiner's Step do). The
// index calls are timed for every record; every traceEvery-th record keeps
// a span per call.
func (in *inputs) replay() (*replayed, error) {
	k := in.job.workers
	rp := &replayed{clocks: make([]workerClock, k)}
	for w := 0; w < k; w++ {
		rp.indexes = append(rp.indexes, bundle.New(in.params, in.win, bundle.Config{}))
	}

	var builder *record.Builder
	if in.job.runtime == runtimeText {
		sample := in.texts
		if len(sample) > sampleSize {
			sample = sample[:sampleSize]
		}
		dict, order := record.BuildOrderingFromSample(tokens.WordTokenizer{}, sample)
		builder = record.NewBuilder(dict, order, tokens.WordTokenizer{})
		rp.built = make([]*record.Record, 0, len(in.texts))
	}
	var (
		wbuf bytes.Buffer
		ww   = wire.NewWriter(&wbuf)
		wr   = wire.NewReader(&wbuf)
	)

	t0 := time.Now()
	now := func() int64 { return int64(time.Since(t0)) }
	var cur *record.Record
	emit := func(m bundle.Match) {
		rp.results++
		if len(rp.matched) < matchedSample {
			rp.matched = append(rp.matched, matchedPair{a: cur.Tokens, b: m.Rec.Tokens})
		}
	}
	dests := make([]int, 0, k)
	for i, r := range in.recs {
		sampled := i%traceEvery == 0
		root := -1
		add := func(name string, start, end int64) {
			rp.spans = append(rp.spans, span{ID: len(rp.spans), Parent: root, Name: name, Record: uint64(i), StartNs: start, EndNs: end})
		}
		if sampled {
			add("record", now(), 0) // closed at the end of the iteration
			root = len(rp.spans) - 1
		}

		if builder != nil {
			start := now()
			rec := builder.FromText(in.texts[i])
			end := now()
			rp.tokenTime += time.Duration(end - start)
			rp.tokenCount += len(rec.Tokens)
			r = &rec
			rp.built = append(rp.built, r)
			if sampled {
				add("tokens.build", start, end)
			}
			dests = append(dests[:0], 0)
		} else {
			start := now()
			dests = in.strat.Route(r, k, dests[:0])
			if sampled {
				add("dispatch.route", start, now())
			}
		}

		for _, w := range dests {
			store := builder != nil || in.strat.Stores(r, w, k)
			rw := r
			if in.job.runtime == runtimeFleet {
				wbuf.Reset()
				start := now()
				if err := ww.WriteRecord(store, r); err != nil {
					return nil, err
				}
				if err := ww.Flush(); err != nil {
					return nil, err
				}
				mid := now()
				if _, err := wr.Next(); err != nil {
					return nil, err
				}
				dec, err := wr.ReadRecord()
				if err != nil {
					return nil, err
				}
				if sampled {
					add("wire.encode", start, mid)
					add("wire.decode", mid, now())
				}
				rw, store = dec.Rec, dec.Store
			}
			bx, cl := rp.indexes[w], &rp.clocks[w]
			cur = rw
			a := now()
			bx.Evict(rw.ID, rw.Time)
			b := now()
			best, _ := bx.Probe(rw, emit)
			c := now()
			if store {
				bx.Insert(rw, best)
			}
			e := now()
			cl.evict += time.Duration(b - a)
			cl.probe += time.Duration(c - b)
			cl.insert += time.Duration(e - c)
			if sampled {
				add("bundle.evict", a, b)
				add("bundle.probe", b, c)
				add("bundle.insert", c, e)
			}
		}
		if sampled {
			rp.spans[root].EndNs = now()
		}
	}
	rp.wall = time.Since(t0)
	return rp, nil
}

// verifyPasses is how often verifyLayer walks the matched sample.
const verifyPasses = 64

// verifyLayer times similarity.VerifyOverlap over the matched sample and
// returns nanoseconds per merge step, a step being one advance of either
// cursor: |a| + |b| − |a∩b| for a pair that matches.
func (in *inputs) verifyLayer(matched []matchedPair) float64 {
	steps := 0
	start := time.Now()
	for pass := 0; pass < verifyPasses; pass++ {
		for _, m := range matched {
			o, _ := similarity.VerifyOverlap(m.a, m.b, in.params.RequiredOverlap(len(m.a), len(m.b)))
			steps += len(m.a) + len(m.b) - o
		}
	}
	if steps == 0 {
		return 0
	}
	return float64(time.Since(start).Nanoseconds()) / float64(steps)
}

type countingWriter struct{ n int64 }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// stepLayer feeds the same per-worker shares to local.Joiner.Step — the
// call both runtimes make — as a check on the three index clocks, then
// snapshots the end-of-run windows into a counting writer.
func (in *inputs) stepLayer(v layerValues, built []*record.Record) error {
	k := in.job.workers
	joiners := make([]local.Joiner, k)
	for w := range joiners {
		joiners[w] = local.New(local.Bundled, local.Options{Params: in.params, Window: in.win})
	}
	recs := in.recs
	if built != nil {
		recs = built
	}
	discard := func(local.Match) {}
	dests := make([]int, 0, k)
	var step time.Duration
	for _, r := range recs {
		if built != nil {
			dests = append(dests[:0], 0)
		} else {
			dests = in.strat.Route(r, k, dests[:0])
		}
		for _, w := range dests {
			store := built != nil || in.strat.Stores(r, w, k)
			start := time.Now()
			joiners[w].Step(r, store, discard)
			step += time.Since(start)
		}
	}
	v["local.step_ns_per_rec"] = perRec(step, len(recs))

	var out countingWriter
	stored := 0
	cur := checkpoint.Cursor{NextID: uint64(len(recs)), NextTime: int64(len(recs))}
	start := time.Now()
	for _, j := range joiners {
		if err := checkpoint.Write(&out, cur, j); err != nil {
			return err
		}
		stored += j.Size()
	}
	v["checkpoint.snapshot_ms"] = ms(time.Since(start))
	v["checkpoint.bytes_per_stored"] = ratio(float64(out.n), float64(stored))
	return nil
}
