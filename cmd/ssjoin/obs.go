// The coordinator's -http surface for remote runs: /metrics (process and
// journal counters), /debug/events (the coordinator's journal),
// /debug/traces, /debug/pprof and a plain /healthz, served for the length
// of the run.
package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"time"

	"repro/internal/obs"
)

// serveDebug starts the coordinator's debug server on addr. It returns
// the journal the run writes its lifecycle events to and a function that
// shuts the server down. An empty addr serves nothing: the journal is nil
// (a no-op sink) and stop returns at once.
func serveDebug(addr string) (journal *obs.Journal, stop func()) {
	if addr == "" {
		return nil, func() {}
	}
	journal = obs.NewJournal(0)
	reg := obs.NewRegistry()
	obs.RegisterProcessMetrics(reg)
	journal.RegisterMetrics(reg)
	mux := http.NewServeMux()
	obs.AttachDebug(mux, obs.DebugOptions{Registry: reg, Journal: journal})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	srv := &http.Server{Addr: addr, Handler: mux}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			fmt.Fprintln(os.Stderr, "ssjoin: debug server:", err)
		}
	}()
	return journal, func() {
		sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		srv.Shutdown(sctx) //nolint:errcheck
		<-done
	}
}
