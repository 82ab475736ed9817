package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/counts.golden from this run")

// goldenScale is the one scale the counts golden is taken at.
func goldenScale() Scale {
	sc := DefaultScale()
	sc.Records = 5000
	return sc
}

// countsOf renders every experiment's table at goldenScale as CSV under a
// "# ID — Title" line, each cell of a timedColumns column replaced by "~":
// what is left is counts, ratios of counts and parameters, which repeat
// byte for byte for one seed.
func countsOf() []byte {
	var b bytes.Buffer
	for _, e := range All() {
		tab := e.Run(goldenScale())
		masked := Table{Columns: tab.Columns}
		for _, row := range tab.Rows {
			cells := append([]string(nil), row...)
			for j, c := range tab.Columns {
				if slices.Contains(timedColumns[e.ID], c) {
					cells[j] = "~"
				}
			}
			masked.Rows = append(masked.Rows, cells)
		}
		fmt.Fprintf(&b, "# %s — %s\n%s\n", tab.ID, tab.Title, masked.CSV())
	}
	return b.Bytes()
}

// TestExperimentCountsGolden runs every experiment at 5 000 records, seed
// 42 and the default workers, and compares every cell outside timedColumns
// with testdata/counts.golden. Both runtimes are in it: E14 runs the fleet
// over loopback TCP, the other tables the in-process engine or a single
// joiner. `go test ./internal/experiments/ -run TestExperimentCountsGolden
// -update` rewrites the file; a change that moves a count must say which
// cells moved and why.
func TestExperimentCountsGolden(t *testing.T) {
	path := filepath.Join("testdata", "counts.golden")
	got := countsOf()
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to write it)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	section, bad := "", 0
	for i := 0; i < max(len(gl), len(wl)) && bad < 20; i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if strings.HasPrefix(w, "# ") {
			section = w
		}
		if g != w {
			bad++
			t.Errorf("%s, line %d:\n got  %q\n want %q", section, i+1, g, w)
		}
	}
}
