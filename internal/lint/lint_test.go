package lint

import (
	"os"
	"path/filepath"
	"testing"
)

// TestAnalyzerFixtures runs every analyzer over its known-bad fixture
// testdata/<Name> and checks the produced diagnostics against the // want
// comments: each expected finding must fire, nothing extra may fire, and
// //lint:ignore must suppress.
func TestAnalyzerFixtures(t *testing.T) {
	for _, a := range All() {
		t.Run(a.Name, func(t *testing.T) {
			t.Parallel()
			for _, err := range CheckFixture(filepath.Join("testdata", a.Name), []*Analyzer{a}) {
				t.Error(err)
			}
		})
	}
}

// TestFixturesAreKnownBad guards the fixtures themselves, in both
// directions: every analyzer has a fixture directory and every fixture
// directory names an analyzer, so a fixture left behind by a deleted
// analyzer fails; and every fixture contains at least one // want
// expectation, so a fixture that rots into all-clean fails loudly instead
// of testing nothing.
func TestFixturesAreKnownBad(t *testing.T) {
	dirs, err := os.ReadDir("testdata")
	if err != nil {
		t.Fatal(err)
	}
	fixtures := make(map[string]bool, len(dirs))
	for _, d := range dirs {
		if d.IsDir() {
			fixtures[d.Name()] = true
		}
	}
	for _, a := range All() {
		if !fixtures[a.Name] {
			t.Errorf("analyzer %s has no fixture testdata/%s", a.Name, a.Name)
		}
		delete(fixtures, a.Name)
	}
	for name := range fixtures {
		t.Errorf("fixture testdata/%s names no analyzer in All()", name)
	}
	for _, a := range All() {
		pkg, err := LoadDir(filepath.Join("testdata", a.Name))
		if err != nil {
			t.Errorf("%s: %v", a.Name, err)
			continue
		}
		wants, err := collectWants(pkg)
		if err != nil {
			t.Fatal(err)
		}
		if len(wants) == 0 {
			t.Errorf("%s: fixture has no // want expectations", a.Name)
		}
	}
}

// TestByName checks suite lookup — every analyzer in All() resolves by
// its own name — and the unknown-analyzer error.
func TestByName(t *testing.T) {
	all, err := ByName("")
	if err != nil || len(all) != len(All()) {
		t.Fatalf("ByName(\"\") = %d analyzers, err %v", len(all), err)
	}
	for _, a := range All() {
		got, err := ByName(a.Name)
		if err != nil || len(got) != 1 || got[0] != a {
			t.Errorf("ByName(%q) = %v, err %v", a.Name, got, err)
		}
	}
	two, err := ByName("lockcheck, ctxcheck")
	if err != nil || len(two) != 2 {
		t.Fatalf("ByName pair = %d analyzers, err %v", len(two), err)
	}
	if _, err := ByName("nosuch"); err == nil {
		t.Fatal("unknown analyzer accepted")
	}
}

// TestSuiteCleanOnRepo runs the full suite over the whole module — the
// same gate `make lint` applies — and requires zero findings, so the tree
// cannot drift from its own invariants between lint runs. The
// whole-program RunAll entry point matters here: wirestate needs every
// package's facts before its Finish hook judges the repo.
func TestSuiteCleanOnRepo(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	pkgs, err := Load("../..", []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("suspiciously few packages loaded: %d", len(pkgs))
	}
	diags, err := RunAll(pkgs, All())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}
