// Observability wiring for the stream engine. WithRegistry attaches an
// obs.Registry to a topology; Run then binds scrape-time callbacks for
// every edge and task and switches on per-batch timing. The instrumented
// costs stay off the per-tuple path: edge and task counters are published
// per batch whether or not anyone scrapes them (so a live series trails the
// truth by less than one batch per producer), queue depth and batch
// occupancy are read at scrape time, and latency observation happens twice
// per transport batch (batch age at dequeue, batch processing time), not
// per tuple. With no registry attached the emit and dispatch paths are
// byte-for-byte the uninstrumented ones.
package stream

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/obs"
)

// WithRegistry binds the run's counters, queue gauges, and latency
// histograms to reg. Callbacks registered here replace those of any earlier
// run, so a long-lived registry always reports the most recent topology.
func WithRegistry(reg *obs.Registry) Option {
	return func(tp *Topology) { tp.reg = reg }
}

// taskObs holds the per-task latency histograms an instrumented run
// maintains. Histograms are SyncLatency because scrapes snapshot them while
// the executor goroutine observes.
type taskObs struct {
	process metrics.SyncLatency
	wait    metrics.SyncLatency
}

// registerMetrics binds every edge counter and task gauge/histogram of this
// run to the topology's registry and enables batch stamping so consumers
// can measure batch age at dequeue.
func (tp *Topology) registerMetrics(report *Report, tasks map[string][]*taskRun) {
	reg := tp.reg
	tuples := reg.CounterVec("stream_edge_tuples_total",
		"Tuples shipped over a topology edge.", "edge")
	bytes := reg.CounterVec("stream_edge_bytes_total",
		"Approximate wire bytes shipped over a topology edge.", "edge")
	batches := reg.CounterVec("stream_edge_batches_total",
		"Transport batches (channel sends) shipped over a topology edge.", "edge")
	occ := reg.GaugeVec("stream_edge_batch_occupancy",
		"Mean tuples per shipped batch on a topology edge.", "edge")
	for key, ec := range report.Edges {
		ec := ec
		label := key.From + "->" + key.To
		tuples.SetFunc(label, func() float64 { return float64(ec.Tuples.Load()) })
		bytes.SetFunc(label, func() float64 { return float64(ec.Bytes.Load()) })
		batches.SetFunc(label, func() float64 { return float64(ec.Batches.Load()) })
		occ.SetFunc(label, ec.Occupancy)
	}

	executed := reg.CounterVec("stream_task_executed_total",
		"Tuples executed by a task instance.", "task")
	emitted := reg.CounterVec("stream_task_emitted_total",
		"Tuples emitted by a task instance.", "task")
	depth := reg.GaugeVec("stream_queue_depth_batches",
		"Input queue depth of a task instance, in transport batches.", "task")
	procH := reg.HistogramVec("stream_process_seconds",
		"Per-batch processing time of a task instance.", "task")
	waitH := reg.HistogramVec("stream_queue_wait_seconds",
		"Age of a transport batch at dequeue: fill time plus queue wait.", "task")
	for name, runs := range tasks {
		for _, tr := range runs {
			tr := tr
			label := fmt.Sprintf("%s/%d", name, tr.idx)
			executed.SetFunc(label, func() float64 { return float64(tr.counters.Executed.Load()) })
			emitted.SetFunc(label, func() float64 { return float64(tr.counters.Emitted.Load()) })
			if tr.in != nil {
				tr.obs = &taskObs{}
				depth.SetFunc(label, func() float64 { return float64(len(tr.in)) })
				procH.SetFunc(label, tr.obs.process.Snapshot)
				waitH.SetFunc(label, tr.obs.wait.Snapshot)
			}
		}
	}

	// Stamp batches at creation so consumers can observe their age.
	for _, runs := range tasks {
		for _, tr := range runs {
			for _, out := range tr.outs {
				out.stamp = true
			}
		}
	}
}
