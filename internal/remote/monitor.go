package remote

import (
	"encoding/json"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
)

// Monitor aggregates worker-process counters and serves them over HTTP —
// the operational surface a deployed worker needs. Wire it with
// WorkerOpts.Mon and mount Handler on any mux; RegisterMetrics
// additionally exposes everything through an obs.Registry on /metrics.
type Monitor struct {
	SessionsStarted  atomic.Uint64
	SessionsFinished atomic.Uint64
	SessionsFailed   atomic.Uint64
	RecordsSeen      atomic.Uint64
	ResultsEmitted   atomic.Uint64
	// InFlightRecords counts records currently being processed across all
	// sessions — the worker's instantaneous queue depth.
	InFlightRecords atomic.Int64
	// CheckpointsWritten counts window checkpoints persisted by
	// fault-tolerant sessions (periodic and on unclean exit).
	CheckpointsWritten atomic.Uint64
	// SessionsResumed counts FT sessions whose window was restored from a
	// checkpoint at handshake.
	SessionsResumed atomic.Uint64
	// DuplicateRecords counts records dropped by the FT replay/duplicate
	// filter (ID at or below the resume cursor).
	DuplicateRecords atomic.Uint64
	// UnackedResults gauges result pairs buffered by collecting FT
	// sessions awaiting a coordinator acknowledgement — the worker-side
	// backpressure signal. A session at 8192 or more withholds record
	// credit, so one session's buffer stays within 8192 + 4096 × (the
	// most pairs one record emits), even if the coordinator stops acking.
	UnackedResults atomic.Int64
	// SessionLatency tracks wall time per completed session (failures
	// included).
	SessionLatency metrics.SyncLatency
	// RecordLatency tracks per-record processing time (read to step
	// completion) across sessions.
	RecordLatency metrics.SyncLatency

	lastCkptNs atomic.Int64 // unix ns of the newest checkpoint write
}

// MarkCheckpoint stamps the time of the newest checkpoint write; the
// worker_checkpoint_age_seconds gauge measures from this stamp.
func (m *Monitor) MarkCheckpoint() {
	m.lastCkptNs.Store(time.Now().UnixNano())
}

// CheckpointAge returns seconds since the last checkpoint write, or -1 if
// no checkpoint has been written yet.
func (m *Monitor) CheckpointAge() float64 {
	ns := m.lastCkptNs.Load()
	if ns == 0 {
		return -1
	}
	return time.Since(time.Unix(0, ns)).Seconds()
}

// Snapshot returns the current counter values. Session latency quantiles
// are reported in microseconds.
func (m *Monitor) Snapshot() map[string]uint64 {
	// Ends load before starts: a session counts its start before its end,
	// so every end read here has its start in the later read, and
	// sessions_active cannot underflow however sessions race the loads.
	finished := m.SessionsFinished.Load()
	failed := m.SessionsFailed.Load()
	started := m.SessionsStarted.Load()
	lat := m.SessionLatency.Snapshot()
	rlat := m.RecordLatency.Snapshot()
	inflight := m.InFlightRecords.Load()
	if inflight < 0 {
		inflight = 0
	}
	unacked := m.UnackedResults.Load()
	if unacked < 0 {
		unacked = 0
	}
	return map[string]uint64{
		"sessions_started":  started,
		"sessions_finished": finished,
		"sessions_failed":   failed,
		"sessions_active":   started - finished - failed,
		"sessions_resumed":  m.SessionsResumed.Load(),
		"unacked_results":   uint64(unacked),
		"records_seen":      m.RecordsSeen.Load(),
		"results_emitted":   m.ResultsEmitted.Load(),
		"inflight_records":  uint64(inflight),
		"checkpoints":       m.CheckpointsWritten.Load(),
		"duplicate_records": m.DuplicateRecords.Load(),
		"session_us_p50":    uint64(lat.Quantile(0.5).Microseconds()),
		"session_us_p99":    uint64(lat.Quantile(0.99).Microseconds()),
		"record_us_p50":     uint64(rlat.Quantile(0.5).Microseconds()),
		"record_us_p99":     uint64(rlat.Quantile(0.99).Microseconds()),
	}
}

// RegisterMetrics exposes the monitor through reg: the session/record
// counters, the in-flight queue-depth gauge, and the session and record
// latency histograms. A record rate is rate(worker_records_total).
func (m *Monitor) RegisterMetrics(reg *obs.Registry) {
	reg.CounterFunc("worker_sessions_started_total",
		"Join sessions accepted by this worker.",
		func() float64 { return float64(m.SessionsStarted.Load()) })
	reg.CounterFunc("worker_sessions_finished_total",
		"Join sessions completed without error.",
		func() float64 { return float64(m.SessionsFinished.Load()) })
	reg.CounterFunc("worker_sessions_failed_total",
		"Join sessions ended with an error.",
		func() float64 { return float64(m.SessionsFailed.Load()) })
	reg.CounterFunc("worker_records_total",
		"Records received across all sessions.",
		func() float64 { return float64(m.RecordsSeen.Load()) })
	reg.CounterFunc("worker_results_total",
		"Result pairs emitted across all sessions.",
		func() float64 { return float64(m.ResultsEmitted.Load()) })
	reg.GaugeFunc("worker_inflight_records",
		"Records currently being processed — the worker's queue depth.",
		func() float64 {
			n := m.InFlightRecords.Load()
			if n < 0 {
				n = 0
			}
			return float64(n)
		})
	reg.CounterFunc("worker_checkpoints_total",
		"Window checkpoints written by fault-tolerant sessions.",
		func() float64 { return float64(m.CheckpointsWritten.Load()) })
	reg.CounterFunc("worker_sessions_resumed_total",
		"FT sessions restored from a checkpoint at handshake.",
		func() float64 { return float64(m.SessionsResumed.Load()) })
	reg.CounterFunc("worker_duplicate_records_total",
		"Records dropped by the FT replay/duplicate filter.",
		func() float64 { return float64(m.DuplicateRecords.Load()) })
	reg.GaugeFunc("worker_unacked_results",
		"Result pairs buffered by collecting FT sessions awaiting coordinator acknowledgement.",
		func() float64 {
			n := m.UnackedResults.Load()
			if n < 0 {
				n = 0
			}
			return float64(n)
		})
	reg.HistogramFunc("worker_session_seconds",
		"Wall time per completed join session.",
		m.SessionLatency.Snapshot)
	reg.HistogramFunc("worker_record_seconds",
		"Per-record processing time, frame read to step completion.",
		m.RecordLatency.Snapshot)
	reg.GaugeFunc("worker_checkpoint_age_seconds",
		"Seconds since the last checkpoint write; -1 before the first.",
		m.CheckpointAge)
}

// Handler serves GET /stats (JSON counters, keys sorted) and GET /healthz
// ("ok").
func (m *Monitor) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte("ok\n")) //nolint:errcheck
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		// Snapshot returns a map; encoding/json emits map keys in sorted
		// order, so scrapes diff cleanly.
		if err := json.NewEncoder(w).Encode(m.Snapshot()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	return mux
}
