package ssjoin

import (
	"os/exec"
	"testing"
)

// TestBenchModuleCompiles vets bench/, the module of its own that
// BENCHMARK.json runs: it is compiled against internal/*, so a change there
// can break it while `go build ./... && go test ./...` stays green. This is
// compile-only; the module's self-tests are `make bench-selftest`.
func TestBenchModuleCompiles(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to the go tool")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool on PATH")
	}
	if out, err := exec.Command(goTool, "-C", "bench", "vet", "./...").CombinedOutput(); err != nil {
		t.Fatalf("go -C bench vet ./...: %v\n%s", err, out)
	}
}
