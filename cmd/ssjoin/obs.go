// The coordinator's -http surface for remote runs: /metrics (process,
// journal and coord_* fault counters), /debug/events (the
// coordinator's journal), /debug/pprof and a plain /healthz, served for the
// length of the run.
package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"time"

	"repro/internal/obs"
)

// debugSinks are what a remote run reports into: the registry /metrics
// serves and the journal /debug/events reads. Both are nil without -http,
// and a nil sink records nothing.
type debugSinks struct {
	reg     *obs.Registry
	journal *obs.Journal
}

// serveDebug starts the coordinator's debug server on addr. It returns
// the sinks the server reads and a function that shuts the server down.
// An empty addr serves nothing: the sinks are nil and stop returns at once.
func serveDebug(addr string) (dbg debugSinks, stop func()) {
	if addr == "" {
		return debugSinks{}, func() {}
	}
	dbg = debugSinks{reg: obs.NewRegistry(), journal: obs.NewJournal(0)}
	obs.RegisterProcessMetrics(dbg.reg)
	dbg.journal.RegisterMetrics(dbg.reg)
	mux := http.NewServeMux()
	obs.AttachDebug(mux, obs.DebugOptions{Registry: dbg.reg, Journal: dbg.journal})
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
	return dbg, func() {
		sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		srv.Shutdown(sctx) //nolint:errcheck
		<-done
	}
}
