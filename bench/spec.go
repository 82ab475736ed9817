package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
)

// metricSpec is one metric declared in BENCHMARK.json. Bound is the share of
// the baseline median by which an end-to-end metric may get worse; per-layer
// metrics have none.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec mirrors BENCHMARK.json. The tool reads metric names, units,
// bounds and the reference run length from it, so the contract file and the
// program cannot drift apart.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`

	// root is the directory BENCHMARK.json was found in (the checkout
	// root); run outputs go to <root>/bench/out.
	root string
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// loadSpec finds BENCHMARK.json in the working directory or its parent
// (`go -C bench run .` and `go test` both run from bench/).
func loadSpec() (*benchSpec, error) {
	var lastErr error
	for _, dir := range []string{".", ".."} {
		raw, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err != nil {
			lastErr = err
			continue
		}
		var s benchSpec
		if err := json.Unmarshal(raw, &s); err != nil {
			return nil, fmt.Errorf("BENCHMARK.json: %w", err)
		}
		s.root = dir
		if err := s.validate(); err != nil {
			return nil, fmt.Errorf("BENCHMARK.json: %w", err)
		}
		return &s, nil
	}
	return nil, fmt.Errorf("BENCHMARK.json not found in . or ..: %w", lastErr)
}

func (s *benchSpec) validate() error {
	if s.RunSeconds < 1 {
		return fmt.Errorf("run_seconds must be >= 1, got %d", s.RunSeconds)
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metricSpec{}, s.EndToEnd...), s.PerLayer...) {
		if !nameRE.MatchString(m.Name) {
			return fmt.Errorf("bad metric name %q", m.Name)
		}
		if seen[m.Name] {
			return fmt.Errorf("metric %q declared twice", m.Name)
		}
		seen[m.Name] = true
		if m.Better != "lower" && m.Better != "higher" {
			return fmt.Errorf("metric %q: better must be lower or higher", m.Name)
		}
	}
	for _, w := range s.Workloads {
		if jobByName(w.Name) == nil {
			return fmt.Errorf("workload %q has no definition in bench/workloads.go", w.Name)
		}
	}
	if len(s.Workloads) != len(jobs) {
		return fmt.Errorf("%d workloads declared, %d defined", len(s.Workloads), len(jobs))
	}
	return nil
}

// metrics returns the metric set one run must emit: end-to-end with tracing
// off, per-layer with tracing on.
func (s *benchSpec) metrics(trace bool) []metricSpec {
	if trace {
		return s.PerLayer
	}
	return s.EndToEnd
}

func (s *benchSpec) outDir() string { return filepath.Join(s.root, "bench", "out") }
