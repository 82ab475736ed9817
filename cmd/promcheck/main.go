// Command promcheck validates Prometheus text exposition (format 0.0.4) as
// served by the /metrics endpoints of ssjoinworker and the ssjoin
// coordinator. It reads a file argument or stdin, parses it with
// obs.ParseExposition, and exits non-zero on malformed input. CI pipes a
// live worker scrape through it to keep the exposition contract honest
// without a Prometheus dependency.
//
//	curl -s http://worker:8080/metrics | promcheck
//	promcheck -min-series 5 scrape.txt
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/obs"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		minSeries = flag.Int("min-series", 1, "fail unless at least this many samples parse")
		verbose   = flag.Bool("v", false, "list parsed families")
	)
	flag.Parse()

	var r io.Reader = os.Stdin
	name := "<stdin>"
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, "promcheck:", err)
			return 1
		}
		defer f.Close()
		r = f
		name = flag.Arg(0)
	}

	pm, err := obs.ParseExposition(r)
	if err != nil {
		fmt.Fprintf(os.Stderr, "promcheck: %s: %v\n", name, err)
		return 1
	}
	samples := 0
	names := make([]string, 0, len(pm))
	for n, fam := range pm {
		samples += len(fam.Samples)
		names = append(names, n)
	}
	if samples < *minSeries {
		fmt.Fprintf(os.Stderr, "promcheck: %s: %d samples, want at least %d\n",
			name, samples, *minSeries)
		return 1
	}
	if *verbose {
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("%s: %d sample(s)\n", n, len(pm[n].Samples))
		}
	}
	fmt.Printf("promcheck: %s: ok (%d families, %d samples)\n", name, len(pm), samples)
	return 0
}
