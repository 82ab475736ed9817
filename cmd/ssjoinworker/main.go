// Command ssjoinworker serves join worker sessions over TCP. Start one per
// machine (or per core), then point the coordinator at them:
//
//	ssjoinworker -listen :7401 &
//	ssjoinworker -listen :7402 &
//	ssjoin -remote 127.0.0.1:7401,127.0.0.1:7402 -profile aol -n 100000
//
// Each coordinator connection is one self-contained join session carrying
// its own configuration, so a worker can serve many sessions concurrently
// and needs no local configuration at all. A worker keeps no state between
// connections: after a reconnect the coordinator replays the window.
//
// SIGINT/SIGTERM trigger a graceful shutdown: the listener closes, in-flight
// sessions drain, and the monitor server (if any) shuts down cleanly.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/remote"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		listen   = flag.String("listen", ":7401", "TCP address to listen on")
		httpAddr = flag.String("http", "", "optional HTTP address serving /healthz, /stats, /metrics, /debug/events, and /debug/pprof")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ssjoinworker:", err)
		return 1
	}

	var mon remote.Monitor
	journal := obs.NewJournal(0)
	monDone := make(chan struct{})
	if *httpAddr != "" {
		reg := obs.NewRegistry()
		obs.RegisterProcessMetrics(reg)
		mon.RegisterMetrics(reg)
		journal.RegisterMetrics(reg)
		mux := http.NewServeMux()
		mux.Handle("/healthz", mon.Handler())
		mux.Handle("/stats", mon.Handler())
		obs.AttachDebug(mux, obs.DebugOptions{Registry: reg, Journal: journal})
		srv := &http.Server{Addr: *httpAddr, Handler: mux}
		go func() {
			defer close(monDone)
			log.Printf("ssjoinworker: monitoring on http://%s/stats", *httpAddr)
			if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Printf("ssjoinworker: monitor server: %v", err)
			}
		}()
		defer func() {
			sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			srv.Shutdown(sctx) //nolint:errcheck
			<-monDone
		}()
	} else {
		close(monDone)
	}

	log.Printf("ssjoinworker: listening on %s", ln.Addr())
	err = remote.ServeWorkerOpts(ctx, ln, remote.WorkerOpts{
		Mon:     &mon,
		Logf:    log.Printf,
		Journal: journal,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "ssjoinworker:", err)
		return 1
	}
	log.Printf("ssjoinworker: shut down cleanly")
	return 0
}
