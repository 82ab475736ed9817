// Command bench is the repository's performance gate: four named workloads,
// end-to-end metrics with fixed regression bounds, and a per-layer budget
// taken from outside by timing calls into each package's public functions.
// BENCHMARK.json at the repository root declares the workloads, metrics and
// bounds; bench/README.md explains them.
//
//	bash bench/run.sh -all -seed 42                       every workload, end-to-end metrics
//	bash bench/run.sh -all -seed 42 -trace 1              every workload, per-layer metrics and spans
//	bash bench/run.sh -workload aol_engine -seed 7        one workload
//	bash bench/run.sh -pin                                recompute bench/pins.json
//	bash bench/run.sh -compare A1.json A2.json -- B1.json B2.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
)

// runMeta records the conditions of a run file.
type runMeta struct {
	Commit     string    `json:"commit"`
	GoVersion  string    `json:"go_version"`
	NumCPU     int       `json:"nproc"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	GOGC       int       `json:"gogc"`
	Seconds    int       `json:"seconds"`
	RunSeconds int       `json:"run_seconds"`
	SetupReps  int       `json:"setup_reps"`
	DrainReps  int       `json:"drain_reps"`
	SampleSize int       `json:"sample_size"`
	Workloads  []jobInfo `json:"workloads"`
}

// jobInfo is a job's constants as written to run files.
type jobInfo struct {
	Name         string  `json:"name"`
	Profile      string  `json:"profile"`
	Runtime      string  `json:"runtime"`
	Records      int     `json:"records"`
	Tau          float64 `json:"tau"`
	Window       int64   `json:"window"`
	Workers      int     `json:"workers"`
	PaceRate     float64 `json:"pace_rate"`
	PacedRecords int     `json:"paced_records"`
}

// runFile is what -json writes and -compare reads.
type runFile struct {
	Meta runMeta      `json:"meta"`
	Runs []*runResult `json:"runs"`
}

func newMeta(spec *benchSpec, seconds int) runMeta {
	m := runMeta{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seconds:    seconds,
		RunSeconds: spec.RunSeconds,
		SetupReps:  setupReps,
		DrainReps:  drainReps,
		SampleSize: sampleSize,
	}
	m.GOGC = debug.SetGCPercent(100)
	debug.SetGCPercent(m.GOGC)
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				m.Commit = s.Value
			}
		}
	}
	for _, j := range jobs {
		m.Workloads = append(m.Workloads, jobInfo{
			Name: j.name, Profile: j.profile(0).Name, Runtime: j.runtime, Records: j.records, Tau: j.tau,
			Window: j.window, Workers: j.workers, PaceRate: j.paceRate, PacedRecords: j.pacedRecords,
		})
	}
	return m
}

func writeJSON(path string, v interface{}) error {
	raw, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func runName(workload string, seed int64, trace bool) string {
	name := fmt.Sprintf("%s-seed%d", workload, seed)
	if trace {
		name += "-trace"
	}
	return name + ".json"
}

func printResult(spec *benchSpec, res *runResult) {
	fmt.Printf("workload %s  seed %d  trace %v  records %d\n", res.Workload, res.Seed, res.Trace, res.Sizes.Records)
	for _, m := range spec.metrics(res.Trace) {
		fmt.Printf("  %-34s %18.6f %s\n", m.Name, res.Metrics[m.Name].Value, m.Unit)
	}
	for _, n := range res.Notes {
		fmt.Printf("  # %s\n", n)
	}
	if res.Trace {
		self := selfTimes(res.spans)
		names := make([]string, 0, len(self))
		for name := range self {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Printf("  # self time over %d sampled records: %-16s %v\n", (res.Sizes.Records+traceEvery-1)/traceEvery, name, self[name])
		}
	}
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		workloadName = fs.String("workload", "", "run one workload by name")
		all          = fs.Bool("all", false, "run every workload, each in its own process")
		seed         = fs.Int64("seed", 42, "workload seed: the same seed gives the same inputs")
		seconds      = fs.Int("seconds", 0, "run length; record counts scale with seconds/run_seconds (default run_seconds)")
		traceFlag    = fs.Int("trace", 0, "1 measures the per-layer metrics and writes spans; 0 measures the end-to-end metrics")
		jsonPath     = fs.String("json", "", "write the run file here (default bench/out/<workload>-seed<n>[-trace].json)")
		pin          = fs.Bool("pin", false, "recompute bench/pins.json for the pinned seeds")
		compare      = fs.Bool("compare", false, "compare run files: A.json... -- B.json...")
	)
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	trace := *traceFlag != 0
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	spec, err := loadSpec()
	if err != nil {
		return fail(err)
	}
	if *compare {
		worse, err := compareFiles(spec, os.Stdout, fs.Args())
		if err != nil {
			return fail(err)
		}
		if worse {
			return 1
		}
		return 0
	}

	// The load generator is this one process; it uses at most nproc OS
	// threads of its own and refuses a box on which the two-worker
	// workloads cannot run in parallel.
	procs := runtime.NumCPU()
	if procs > 4 {
		procs = 4
	}
	if procs < 2 {
		return fail(fmt.Errorf("GOMAXPROCS would be %d; the benchmark needs at least 2 CPUs", procs))
	}
	runtime.GOMAXPROCS(procs)
	if *seconds <= 0 {
		*seconds = spec.RunSeconds
	}
	scale := float64(*seconds) / float64(spec.RunSeconds)

	switch {
	case *pin:
		if err := writePins(spec); err != nil {
			return fail(err)
		}
		return 0
	case *all:
		return runAll(spec, *seed, *seconds, trace, *jsonPath)
	case *workloadName != "":
		j := jobByName(*workloadName)
		if j == nil {
			return fail(fmt.Errorf("unknown workload %q", *workloadName))
		}
		res, err := runWorkload(spec, newRefKernel(), j, *seed, scale, trace)
		if err != nil {
			return fail(fmt.Errorf("%s: %w", j.name, err))
		}
		printResult(spec, res)
		path := *jsonPath
		if path == "" {
			path = filepath.Join(spec.outDir(), runName(j.name, *seed, trace))
		}
		if err := writeJSON(path, runFile{Meta: newMeta(spec, *seconds), Runs: []*runResult{res}}); err != nil {
			return fail(err)
		}
		if trace {
			if err := writeJSON(filepath.Join(spec.outDir(), j.name+".trace.json"), res.spans); err != nil {
				return fail(err)
			}
		}
		last, err := json.Marshal(struct {
			Correct   bool                   `json:"correct"`
			Attempted int64                  `json:"attempted"`
			Failed    int64                  `json:"failed"`
			Metrics   map[string]metricValue `json:"metrics"`
		}{res.Correct, res.Attempted, res.Failed, res.Metrics})
		if err != nil {
			return fail(err)
		}
		fmt.Println(string(last))
		if !res.Correct {
			return 1
		}
		return 0
	}
	fs.Usage()
	return 2
}

// runAll runs every workload in a process of its own, so that peak_rss_mb
// is each workload's own, and merges the run files.
func runAll(spec *benchSpec, seed int64, seconds int, trace bool, jsonPath string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	merged := runFile{Meta: newMeta(spec, seconds)}
	code := 0
	traceArg := "0"
	if trace {
		traceArg = "1"
	}
	for _, j := range jobs {
		part := filepath.Join(spec.outDir(), runName(j.name, seed, trace))
		os.Remove(part) // a stale file must not stand in for a failed child
		cmd := exec.Command(self, "-workload", j.name, "-seed", fmt.Sprint(seed),
			"-seconds", fmt.Sprint(seconds), "-trace", traceArg, "-json", part)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", j.name, err)
			code = 1
		}
		raw, err := os.ReadFile(part)
		if err != nil {
			continue // the child failed before writing; already reported
		}
		var rf runFile
		if err := json.Unmarshal(raw, &rf); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", part, err)
			code = 1
			continue
		}
		merged.Runs = append(merged.Runs, rf.Runs...)
	}
	if jsonPath == "" {
		jsonPath = filepath.Join(spec.outDir(), runName("all", seed, trace))
	}
	if err := writeJSON(jsonPath, merged); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Printf("wrote %s\n", jsonPath)
	return code
}
