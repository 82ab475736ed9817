package ssjoin

import (
	"os/exec"
	"testing"
)

// TestBenchModuleCompiles vets and tests bench/, the module of its own that
// BENCHMARK.json runs: it is compiled against internal/*, so a change there
// can break it, or break what its self-tests check of the judge, while the
// root `go build ./... && go test ./...` would otherwise stay green. The
// self-tests take a few seconds; `make bench-selftest` runs them alone.
func TestBenchModuleCompiles(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to the go tool")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool on PATH")
	}
	for _, args := range [][]string{{"vet", "./..."}, {"test", "./..."}} {
		cmd := exec.Command(goTool, append([]string{"-C", "bench"}, args...)...)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go -C bench %s %s: %v\n%s", args[0], args[1], err, out)
		}
	}
}
