package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// Verdicts of one (workload, end-to-end metric) comparison.
const (
	verdictWorse      = "worse"
	verdictNoWorse    = "no-worse"
	verdictUnresolved = "unresolved"
)

// quartiles returns the three cut points of Python's
// statistics.quantiles(vals, n=4) (the exclusive method), which is what
// the acceptance check uses. It needs at least two values.
func quartiles(vals []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the distance between the first and third quartile as a share
// of the median.
func spread(vals []float64) float64 {
	q1, q2, q3 := quartiles(vals)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

// judge compares side B with its base A for one metric: worse when B's
// median is worse than A's by more than the bound, unresolved when A's own
// runs spread wider than the bound, so that the bound cannot be told from
// noise.
func judge(m metricSpec, a, b []float64) (verdict string, ratio float64) {
	ma, mb := median(a), median(b)
	ratio = mb / ma
	worse := ratio > 1+m.Bound
	if m.Better == "higher" {
		worse = ratio < 1-m.Bound
	}
	switch {
	case worse:
		return verdictWorse, ratio
	case len(a) < 2 || spread(a) > m.Bound:
		return verdictUnresolved, ratio
	}
	return verdictNoWorse, ratio
}

// sideValues reads run files into workload → metric → values, keeping only
// untraced runs: bounds exist for end-to-end metrics alone.
func sideValues(paths []string) (map[string]map[string][]float64, error) {
	out := map[string]map[string][]float64{}
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var rf runFile
		if err := json.Unmarshal(raw, &rf); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		for _, r := range rf.Runs {
			if r.Trace {
				continue
			}
			if out[r.Workload] == nil {
				out[r.Workload] = map[string][]float64{}
			}
			for name, m := range r.Metrics {
				out[r.Workload][name] = append(out[r.Workload][name], m.Value)
			}
		}
	}
	return out, nil
}

// compareFiles prints, for every workload and end-to-end metric, each
// side's median and quartiles, the ratio B/A and a verdict from the bounds
// in BENCHMARK.json. args is "A.json... -- B.json...". It reports whether
// any pair came out worse.
func compareFiles(spec *benchSpec, w io.Writer, args []string) (bool, error) {
	sep := -1
	for i, a := range args {
		if a == "--" {
			sep = i
		}
	}
	if sep <= 0 || sep == len(args)-1 {
		return false, fmt.Errorf("usage: -compare A.json... -- B.json...")
	}
	a, err := sideValues(args[:sep])
	if err != nil {
		return false, err
	}
	b, err := sideValues(args[sep+1:])
	if err != nil {
		return false, err
	}
	anyWorse := false
	fmt.Fprintf(w, "%-17s %-20s %5s  %-38s %-38s %-16s %s\n", "workload", "metric", "bound", "A median [q1, q3] (n)", "B median [q1, q3] (n)", "B/A", "verdict")
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			va, vb := a[wl.Name][m.Name], b[wl.Name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			verdict, ratio := judge(m, va, vb)
			if verdict == verdictWorse {
				anyWorse = true
			}
			fmt.Fprintf(w, "%-17s %-20s %4.0f%%  %-38s %-38s %-16s %s\n", wl.Name, m.Name, 100*m.Bound,
				describe(va), describe(vb), fmt.Sprintf("%.4f of %.5g", ratio, median(va)), verdict)
		}
	}
	return anyWorse, nil
}

func describe(vals []float64) string {
	if len(vals) < 2 {
		return fmt.Sprintf("%.5g (n=%d)", median(vals), len(vals))
	}
	q1, q2, q3 := quartiles(vals)
	return fmt.Sprintf("%.5g [%.5g, %.5g] (n=%d)", q2, q1, q3, len(vals))
}
