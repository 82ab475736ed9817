// Command ssjoinbench regenerates the paper's tables and figures.
//
//	ssjoinbench                 # run everything at default scale
//	ssjoinbench -exp E1         # one experiment
//	ssjoinbench -records 50000 -workers 8 -seed 7
//	ssjoinbench -json out.json  # machine-readable results
//	ssjoinbench -list           # inventory
//
// Output is aligned text, one table per experiment, matching the
// per-experiment index in EXPERIMENTS.md. With -json, the same tables are
// additionally written to a JSON file together with per-experiment wall
// time, allocation counts, and a metrics-registry snapshot, for benchmark
// tracking across commits.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
)

// runRecord is one experiment's table plus measurement metadata, the unit
// of the -json report.
type runRecord struct {
	ID              string               `json:"id"`
	Title           string               `json:"title"`
	ElapsedSec      float64              `json:"elapsed_sec"`
	AllocsPerRecord float64              `json:"allocs_per_record"`
	Columns         []string             `json:"columns"`
	Rows            [][]string           `json:"rows"`
	Notes           string               `json:"notes,omitempty"`
	Metrics         []obs.MetricSnapshot `json:"metrics,omitempty"`
}

// jsonReport is the top-level -json document. GOMAXPROCS and NumCPU pin
// the machine's core budget each run used, so BENCH_*.json entries stay
// comparable across machines.
type jsonReport struct {
	Records     int         `json:"records"`
	Workers     int         `json:"workers"`
	Seed        int64       `json:"seed"`
	GOMAXPROCS  int         `json:"gomaxprocs"`
	NumCPU      int         `json:"num_cpu"`
	Experiments []runRecord `json:"experiments"`
}

func main() {
	var (
		expID   = flag.String("exp", "", "experiment ID to run (default: all)")
		records = flag.Int("records", 0, "records per run (default: experiment default)")
		workers = flag.Int("workers", 0, "worker parallelism (default: experiment default)")
		seed    = flag.Int64("seed", 0, "workload seed (default: experiment default)")
		list    = flag.Bool("list", false, "list experiments and exit")
		format  = flag.String("format", "text", "output format: text or csv")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf = flag.String("memprofile", "", "write a heap profile to this file at exit")
		jsonOut = flag.String("json", "", "also write machine-readable results to this file")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		return
	}

	scale := experiments.DefaultScale()
	if *records > 0 {
		scale.Records = *records
	}
	if *workers > 0 {
		scale.Workers = *workers
	}
	if *seed != 0 {
		scale.Seed = *seed
	}

	var runs []experiments.Experiment
	if *expID != "" {
		e, err := experiments.ByID(*expID)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		runs = []experiments.Experiment{e}
	} else {
		runs = experiments.All()
	}

	if *format == "text" {
		fmt.Printf("scale: records=%d workers=%d seed=%d gomaxprocs=%d\n\n",
			scale.Records, scale.Workers, scale.Seed, runtime.GOMAXPROCS(0))
	}
	report := jsonReport{
		Records:    scale.Records,
		Workers:    scale.Workers,
		Seed:       scale.Seed,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
	var ms runtime.MemStats
	for _, e := range runs {
		if *jsonOut != "" {
			// Observability is opt-in: a registry (and the per-run
			// instrumentation it switches on inside the engine) only exists
			// when -json will snapshot it, so plain benchmark runs keep the
			// uninstrumented hot path. A fresh one per experiment keeps
			// each -json entry to its own run.
			scale.Registry = obs.NewRegistry()
			obs.RegisterProcessMetrics(scale.Registry)
		}
		runtime.ReadMemStats(&ms)
		mallocsBefore := ms.Mallocs
		start := time.Now()
		tab := e.Run(scale)
		elapsed := time.Since(start)
		runtime.ReadMemStats(&ms)
		switch *format {
		case "csv":
			fmt.Printf("# %s — %s\n%s\n", tab.ID, tab.Title, tab.CSV())
		default:
			fmt.Print(tab.Format())
			fmt.Printf("(%v)\n\n", elapsed.Round(time.Millisecond))
		}
		rec := runRecord{
			ID:              tab.ID,
			Title:           tab.Title,
			ElapsedSec:      elapsed.Seconds(),
			AllocsPerRecord: float64(ms.Mallocs-mallocsBefore) / float64(scale.Records),
			Columns:         tab.Columns,
			Rows:            tab.Rows,
			Notes:           tab.Notes,
		}
		if scale.Registry != nil {
			rec.Metrics = scale.Registry.Snapshot()
		}
		report.Experiments = append(report.Experiments, rec)
	}

	if *jsonOut != "" {
		buf, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := os.WriteFile(*jsonOut, append(buf, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	if *memProf != "" {
		f, err := os.Create(*memProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}
