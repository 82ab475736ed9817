package main

import (
	"errors"
	"testing"

	ssjoin "repro"
)

// TestFatalLineHasOnePrefix: a refused flag prints one "ssjoin:" prefix,
// both for an error the library already prefixes (-window -1, in process and
// -remote) and for one the command makes itself.
func TestFatalLineHasOnePrefix(t *testing.T) {
	cfg, err := joinConfig(0.8, "jaccard", "bundle", "length", "load-aware", -1)
	if err != nil {
		t.Fatal(err)
	}
	sets := [][]uint32{{1, 2, 3}, {1, 2, 4}}
	const want = "ssjoin: window sizes must be non-negative"
	if _, err := cfg.Session(sets); err == nil || fatalLine(err) != want {
		t.Fatalf("-remote -window -1 prints %q, want %q", line(err), want)
	}
	cfg.Workers = 2
	if _, err := ssjoin.RunDistributed(sets, cfg); err == nil || fatalLine(err) != want {
		t.Fatalf("-window -1 prints %q, want %q", line(err), want)
	}
	if got := fatalLine(errors.New("-ft requires -remote")); got != "ssjoin: -ft requires -remote" {
		t.Fatalf("the command's own error prints %q", got)
	}
}

// line is fatalLine of err, or a note that there was none.
func line(err error) string {
	if err == nil {
		return "no error"
	}
	return fatalLine(err)
}
