package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Repetition counts. Set-up and the measured drain are repeated inside one
// process and the median repetition is reported, so one descheduled or
// collection-heavy repetition cannot move a metric.
const (
	setupReps = 3
	drainReps = 5
)

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is one run of one workload: the object the last line of
// standard output carries, plus what identifies the run.
type runResult struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Trace     bool                   `json:"trace"`
	Sizes     sizes                  `json:"sizes"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Notes are human-readable facts about the run: sample counts, result
	// counts, why it failed.
	Notes []string `json:"notes,omitempty"`
	spans []span
}

func (r *runResult) notef(format string, args ...interface{}) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentileUs returns the q-quantile (nearest rank) of sorted latencies in
// microseconds.
func percentileUs(sortedNs []int64, q float64) float64 {
	i := int(q * float64(len(sortedNs)))
	if i >= len(sortedNs) {
		i = len(sortedNs) - 1
	}
	return float64(sortedNs[i]) / 1e3
}

// peakRSSMiB reads the process's resident-set high-water mark.
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// heapSampler records the largest HeapInuse seen, looking every 100 ms.
type heapSampler struct {
	stop chan struct{}
	done sync.WaitGroup
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		var ms runtime.MemStats
		for {
			runtime.ReadMemStats(&ms)
			if ms.HeapInuse > h.peak {
				h.peak = ms.HeapInuse
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// peakMiB stops the sampler and returns its peak.
func (h *heapSampler) peakMiB() float64 {
	close(h.stop)
	h.done.Wait()
	return float64(h.peak) / (1 << 20)
}

// runWorkload runs one workload once. With trace off it measures the
// end-to-end metrics; with trace on it makes one drain and adds the
// per-layer measurements.
//
// The procedure is the same for every workload:
//
//  1. set-up, setupReps times (setup_s is the median);
//  2. latencySegments latency segments on the single-threaded stream API —
//     closed loop in an untraced run, open loop (paced) in a traced one —
//     alternating with
//  3. closed-loop drains through the workload's runtime: one unmeasured
//     warm-up over the first tenth of the stream, then drainReps measured
//     ones (throughput_rps is the median, alloc_bytes_per_rec the mean);
//  4. the result counts of 2 and 3 are compared with the reference.
//
// Every timed part starts from a collected heap, so that what the parts
// before it left behind does not decide when its first collection falls.
func runWorkload(spec *benchSpec, machine *refKernel, j *job, seed int64, scale float64, trace bool) (*runResult, error) {
	res := &runResult{Workload: j.name, Seed: seed, Trace: trace, Metrics: map[string]metricValue{}}
	sReps, dReps := setupReps, drainReps
	if trace {
		sReps, dReps = 1, 1
	}

	machine.readings = machine.readings[:0]
	probes := refProbes
	if scale < 1 {
		probes = int(refProbes*scale) + 1
	}
	var in *inputs
	defer func() { in.close() }()
	var setups []float64
	for rep := 0; rep < sReps; rep++ {
		in.close()
		in = nil
		runtime.GC()
		machine.read(probes)
		start := time.Now()
		next, err := j.setUp(seed, scale)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		machine.read(probes)
		in = next
	}
	res.Sizes = in.sz

	lp, err := in.newLatencyPass()
	if err != nil {
		return nil, fmt.Errorf("latency pass: %w", err)
	}
	var (
		p50s, p95s, p99s, rates []float64
		open                    = paced{backlogEnd: -1} // totals over the open-loop segments
		last                    drained
		alloc, mallocs          uint64
		gcCycles, gcPauseNs     uint64
		completed               int
		sampler                 *heapSampler
	)
	if trace {
		sampler = startHeapSampler()
	}
	// One slot per drain of an untraced run: segmentsPerSlot latency
	// segments, then the drain. A traced run drains in the first two slots
	// only; its segments all run.
	for k := 0; k <= drainReps; k++ {
		for s := 0; s < segmentsPerSlot; s++ {
			runtime.GC()
			machine.read(probes)
			var latNs []int64
			if trace {
				seg := lp.openSegment(seed, k*segmentsPerSlot+s)
				open.merge(seg)
				latNs = seg.latNs
			} else {
				latNs = lp.closedSegment(k*segmentsPerSlot + s)
			}
			slices.Sort(latNs)
			p50s = append(p50s, percentileUs(latNs, 0.50))
			p95s = append(p95s, percentileUs(latNs, 0.95))
			p99s = append(p99s, percentileUs(latNs, 0.99))
			machine.read(probes)
		}
		if k > dReps {
			continue
		}
		n := in.sz.Records
		if k == 0 {
			n = in.sz.Warmup
		}
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		machine.read(probes)
		d, err := in.drain(n)
		if err != nil {
			return nil, fmt.Errorf("drain %d: %w", k, err)
		}
		runtime.ReadMemStats(&after)
		machine.read(probes)
		if k == 0 {
			continue
		}
		if k > 1 && d.results != last.results {
			return nil, fmt.Errorf("drain %d found %d result pairs, drain %d found %d", k, d.results, k-1, last.results)
		}
		rates = append(rates, float64(n)/d.wall.Seconds())
		alloc += after.TotalAlloc - before.TotalAlloc
		mallocs += after.Mallocs - before.Mallocs
		gcCycles += uint64(after.NumGC - before.NumGC)
		gcPauseNs += after.PauseTotalNs - before.PauseTotalNs
		completed += n
		last = d
	}
	var heapPeak float64
	if trace {
		heapPeak = sampler.peakMiB()
	}
	// Before the reference join, whose own index must not count.
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	timed := lp.fed - in.sz.Preload
	if trace {
		res.notef("open loop: %d latency segments of %d records at %.0f rec/s, utilisation %.3f, backlog max %d end %d",
			latencySegments, timed/latencySegments, j.paceRate, float64(open.busy)/float64(open.span), open.backlogMax, open.backlogEnd)
	} else {
		res.notef("closed loop, 1 caller: %d latency segments of %d records, %d samples beyond each segment's p95",
			latencySegments, timed/latencySegments, timed/latencySegments/20)
	}
	slow := machine.slowdown()
	res.notef("machine: median of %d reference readings %.0f ns per probe, slowdown %.3f; the per-repetition values in these notes are as measured",
		len(machine.readings), median(machine.readings), slow)
	res.notef("per segment p50 us: %.2f", p50s)
	res.notef("per segment p95 us: %.1f", p95s)
	res.notef("per segment p99 us: %.1f", p99s)
	res.notef("per drain rec/s: %.0f; per set-up s: %.3f", rates, setups)

	var layers layerValues
	if trace {
		layers, res.spans, err = in.traceLayers(last)
		if err != nil {
			return nil, fmt.Errorf("layers: %w", err)
		}
	}

	ref, pinned := loadPins(spec).lookup(in, seed)
	if !pinned {
		ref = computeReference(in)
	}
	// The closed-loop pass has fed the whole stream, the open-loop one the
	// preload and the paced records.
	wantPass := ref.Results
	if trace {
		wantPass = ref.PrefixResults
	}
	res.notef("results: %d pairs (reference %d, pinned %v); latency pass over %d records: %d pairs (reference %d)",
		last.results, ref.Results, pinned, lp.fed, lp.results, wantPass)
	res.Attempted = int64(dReps*in.sz.Records + lp.fed)
	res.Failed = int64(dReps*in.sz.Records-completed) + absDiff(last.results, ref.Results) + absDiff(lp.results, wantPass)
	if open.backlogEnd > 0 {
		// The fixed rate was not sustained: every open-loop sample is void.
		res.Failed += int64(timed)
		res.notef("the open-loop backlog never emptied at the end of any segment (smallest %d)", open.backlogEnd)
	}
	if res.Failed > res.Attempted {
		res.Failed = res.Attempted
	}
	res.Correct = res.Failed == 0

	values := layerValues{}
	if trace {
		values = layers
		values["runtime.allocs_per_rec"] = float64(mallocs) / float64(completed)
		values["runtime.gc_cycles"] = float64(gcCycles)
		values["runtime.gc_pause_total_ms"] = float64(gcPauseNs) / 1e6
		values["runtime.heap_inuse_peak_mb"] = heapPeak
		values["pacer.utilisation"] = float64(open.busy) / float64(open.span)
		values["pacer.backlog_max"] = float64(open.backlogMax)
		values["pacer.backlog_end"] = float64(open.backlogEnd)
		values["pacer.latency_p50_us"] = median(p50s)
		values["pacer.latency_p95_us"] = median(p95s)
		values["pacer.latency_p99_us"] = median(p99s)
		values["machine.slowdown"] = slow
	} else {
		values["setup_s"] = median(setups) / slow
		values["throughput_rps"] = median(rates) * slow
		values["latency_p50_us"] = median(p50s) / slow
		values["latency_p95_us"] = median(p95s) / slow
		values["alloc_bytes_per_rec"] = float64(alloc) / float64(completed)
		values["peak_rss_mb"] = rss
	}
	for _, m := range spec.metrics(trace) {
		v, ok := values[m.Name]
		if !ok && !(trace && offPath(j.runtime, m.Name)) {
			return nil, fmt.Errorf("metric %q is declared in BENCHMARK.json but was not measured", m.Name)
		}
		if !trace && !(v > 0) {
			return nil, fmt.Errorf("end-to-end metric %q must be positive, got %v", m.Name, v)
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
		delete(values, m.Name)
	}
	for name := range values {
		return nil, fmt.Errorf("metric %q is measured but not declared in BENCHMARK.json", name)
	}
	return res, nil
}

// offPathLayers lists, per runtime, the packages a workload's records never
// pass through. Their per-layer metrics are reported as 0 — that workload
// does no work there — so that every run emits every declared name.
var offPathLayers = map[string][]string{
	runtimeEngine: {"tokens.", "wire.", "remote."},
	runtimeFleet:  {"tokens.", "stream.", "topology."},
	runtimeText:   {"partition.", "dispatch.", "wire.", "stream.", "topology.", "remote."},
}

func offPath(runtime, metric string) bool {
	for _, prefix := range offPathLayers[runtime] {
		if strings.HasPrefix(metric, prefix) {
			return true
		}
	}
	return false
}

func absDiff(a, b uint64) int64 {
	if a > b {
		return int64(a - b)
	}
	return int64(b - a)
}
