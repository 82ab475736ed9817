package ssjoin

import (
	"os/exec"
	"strings"
	"testing"
)

// TestSystemImportSet fails when the system — the two commands and this
// package — reaches a package that only seed tests, experiments and
// tooling hold: the generic stream engine (the join runs on
// internal/topology's own pipeline), the watermark reorder buffer, MinHash,
// the fault-injecting connection and the experiments harness.
func TestSystemImportSet(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to the go tool")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool on PATH")
	}
	out, err := exec.Command(goTool, "list", "-deps", "./cmd/ssjoin", "./cmd/ssjoinworker", ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go list -deps: %v\n%s", err, out)
	}
	deps := map[string]bool{}
	for _, p := range strings.Fields(string(out)) {
		deps[p] = true
	}
	if !deps["repro/internal/topology"] {
		t.Fatalf("go list -deps does not list repro/internal/topology:\n%s", out)
	}
	for _, p := range []string{
		"repro/internal/stream",
		"repro/internal/reorder",
		"repro/internal/minhash",
		"repro/internal/faultwire",
		"repro/internal/experiments",
	} {
		if deps[p] {
			t.Errorf("the system imports %s", p)
		}
	}
}
