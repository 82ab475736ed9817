package experiments

import (
	"slices"
	"strconv"
	"strings"
	"testing"
)

func tinyScale() Scale { return Scale{Records: 600, Workers: 3, Seed: 5} }

// timedColumns names, per experiment, the columns that hold a wall-clock
// time or a rate derived from one. Every other cell is a count, a ratio of
// counts or a parameter, and must repeat byte for byte on a second run
// with the same seed.
var timedColumns = map[string][]string{
	"E1":  {"length", "prefix", "broadcast", "length/broadcast", "length/prefix"},
	"E2":  {"length", "prefix", "broadcast"},
	"E6":  {"throughput rec/s"},
	"E7":  {"throughput rec/s"},
	"E8":  {"throughput rec/s"},
	"E9":  {"throughput rec/s"},
	"E9b": {"throughput rec/s"},
	"E10": {"mean", "p50", "p99", "max"},
	"E11": {"throughput rec/s"},
	"E12": {"throughput rec/s"},
	"E13": {"throughput rec/s"},
	"E14": {"throughput rec/s"},
	"E15": {"throughput rec/s"},
	"E16": {"length", "prefix", "broadcast", "length/broadcast"},
	"E17": {"throughput rec/s"},
	"E18": {"throughput rec/s"},
	"E19": {"throughput rec/s"},
}

// TestAllExperimentsRunAndProduceTables runs every experiment twice at the
// same scale and seed: each table must be well formed, and every cell
// outside timedColumns must match between the two runs.
func TestAllExperimentsRunAndProduceTables(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tab := e.Run(tinyScale())
			if tab.ID != e.ID {
				t.Fatalf("table id %q != experiment id %q", tab.ID, e.ID)
			}
			if len(tab.Columns) == 0 || len(tab.Rows) == 0 {
				t.Fatalf("empty table: %+v", tab)
			}
			for i, row := range tab.Rows {
				if len(row) != len(tab.Columns) {
					t.Fatalf("row %d has %d cells, want %d", i, len(row), len(tab.Columns))
				}
			}
			out := tab.Format()
			if !strings.Contains(out, tab.Title) {
				t.Fatal("formatted output missing title")
			}

			timed := make(map[string]bool)
			for _, c := range timedColumns[e.ID] {
				if !slices.Contains(tab.Columns, c) {
					t.Errorf("timedColumns names %q, which the table does not have", c)
				}
				timed[c] = true
			}
			again := e.Run(tinyScale())
			if len(again.Rows) != len(tab.Rows) {
				t.Fatalf("second run has %d rows, first %d", len(again.Rows), len(tab.Rows))
			}
			for i, row := range tab.Rows {
				for j, cell := range row {
					if !timed[tab.Columns[j]] && again.Rows[i][j] != cell {
						t.Errorf("row %d column %q: %q then %q on the same seed", i, tab.Columns[j], cell, again.Rows[i][j])
					}
				}
			}
		})
	}
}

func TestByID(t *testing.T) {
	if _, err := ByID("E1"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByID("E99"); err == nil {
		t.Fatal("expected error")
	}
}

func TestE1ReportsAllThresholds(t *testing.T) {
	tab := E1(tinyScale())
	if len(tab.Rows) != len(thresholds) {
		t.Fatalf("rows: %d want %d", len(tab.Rows), len(thresholds))
	}
	for i, tau := range thresholds {
		if !strings.HasPrefix(tab.Cell(i, 0), strconv.FormatFloat(tau, 'f', 1, 64)) {
			t.Fatalf("row %d threshold cell %q", i, tab.Cell(i, 0))
		}
	}
}

func TestE7ResultsAgreeAcrossAlgorithms(t *testing.T) {
	tab := E7(tinyScale())
	if len(tab.Rows) != 3 {
		t.Fatalf("rows: %d", len(tab.Rows))
	}
	resCol := 3
	first := tab.Cell(0, resCol)
	for i := 1; i < 3; i++ {
		if tab.Cell(i, resCol) != first {
			t.Fatalf("algorithms disagree on results: %q vs %q", first, tab.Cell(i, resCol))
		}
	}
}

func TestE8ResultsIdenticalAndStepsSaved(t *testing.T) {
	tab := E8(Scale{Records: 1500, Workers: 2, Seed: 9})
	if tab.Cell(0, 2) != tab.Cell(1, 2) {
		t.Fatalf("results differ: %q vs %q", tab.Cell(0, 2), tab.Cell(1, 2))
	}
	single, err := strconv.ParseUint(tab.Cell(0, 1), 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := strconv.ParseUint(tab.Cell(1, 1), 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	if batch >= single {
		t.Fatalf("batch verification not cheaper: %d vs %d", batch, single)
	}
}

func TestE4LengthBasedNeverReplicates(t *testing.T) {
	tab := E4(tinyScale())
	for _, row := range tab.Rows {
		if row[1] == "length" && row[2] != "1.000" {
			t.Fatalf("length-based replication factor %q != 1.000", row[2])
		}
	}
}

func TestE5LoadAwareBestEstimatedBalance(t *testing.T) {
	tab := E5(Scale{Records: 3000, Workers: 4, Seed: 11})
	// Rows come in triples per profile: even-length, even-frequency,
	// load-aware. Estimated imbalance of load-aware must be the smallest
	// of its triple.
	for base := 0; base+2 < len(tab.Rows); base += 3 {
		parse := func(i int) float64 {
			v, err := strconv.ParseFloat(tab.Cell(base+i, 2), 64)
			if err != nil {
				t.Fatalf("bad cell: %v", err)
			}
			return v
		}
		la := parse(2)
		if la > parse(0)+1e-9 || la > parse(1)+1e-9 {
			t.Fatalf("load-aware not best at rows %d..%d: %v vs %v, %v",
				base, base+2, la, parse(0), parse(1))
		}
	}
}

func TestQuickMedian(t *testing.T) {
	if m := quickMedian([]int{5, 1, 9, 3, 7}); m != 5 {
		t.Fatalf("median: %d", m)
	}
	if m := quickMedian(nil); m != 0 {
		t.Fatalf("empty median: %d", m)
	}
}

func TestWorkerSweep(t *testing.T) {
	if got := workerSweep(8); len(got) != 4 || got[3] != 8 {
		t.Fatalf("sweep(8): %v", got)
	}
	if got := workerSweep(3); len(got) != 2 {
		t.Fatalf("sweep(3): %v", got)
	}
}

func TestTableFormatAlignment(t *testing.T) {
	tab := &Table{ID: "X", Title: "t", Columns: []string{"a", "bb"}}
	tab.AddRow(1, 2.5)
	tab.AddRow("long-cell", 3.25)
	out := tab.Format()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, rule, two rows
		t.Fatalf("lines: %d\n%s", len(lines), out)
	}
}

func TestTableCSV(t *testing.T) {
	tab := &Table{ID: "X", Title: "t", Columns: []string{"a", "b,c"}}
	tab.AddRow("plain", `has "quotes"`)
	got := tab.CSV()
	want := "a,\"b,c\"\nplain,\"has \"\"quotes\"\"\"\n"
	if got != want {
		t.Fatalf("csv:\n%q\nwant\n%q", got, want)
	}
}
