// Live introspection endpoints. AttachDebug mounts the observability
// surface onto any mux: /metrics (Prometheus text exposition),
// /debug/events (the journal) and the standard net/http/pprof handlers
// under /debug/pprof/. ssjoinworker and the ssjoin coordinator serve this
// mux with -http.
package obs

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"time"
)

// DebugOptions selects what AttachDebug mounts. Registry is mandatory;
// Journal is optional and nil-safe.
type DebugOptions struct {
	// Registry backs /metrics.
	Registry *Registry
	// Journal backs /debug/events.
	Journal *Journal
}

// AttachDebug mounts /metrics, /debug/events, and /debug/pprof/* on mux
// according to o.
func AttachDebug(mux *http.ServeMux, o DebugOptions) {
	reg := o.Registry
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", ExpositionContentType)
		reg.WriteExposition(w) //nolint:errcheck — best effort over HTTP
	})
	mux.HandleFunc("/debug/events", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		snap := o.Journal.Snapshot()
		if n, _ := strconv.Atoi(req.URL.Query().Get("n")); n > 0 && n < len(snap.Events) {
			snap.Events = snap.Events[len(snap.Events)-n:]
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(snap) //nolint:errcheck — best effort over HTTP
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// RegisterProcessMetrics adds process-wide runtime gauges (goroutines,
// heap, GC, uptime) to reg. All readings happen at scrape time.
func RegisterProcessMetrics(reg *Registry) {
	start := time.Now()
	reg.GaugeFunc("process_goroutines",
		"Number of live goroutines.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	reg.GaugeFunc("process_heap_alloc_bytes",
		"Bytes of allocated heap objects.",
		func() float64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return float64(ms.HeapAlloc)
		})
	reg.CounterFunc("process_gc_cycles_total",
		"Completed GC cycles since process start.",
		func() float64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return float64(ms.NumGC)
		})
	reg.GaugeFunc("process_uptime_seconds",
		"Seconds since the process registered its metrics.",
		func() float64 { return time.Since(start).Seconds() })
}
