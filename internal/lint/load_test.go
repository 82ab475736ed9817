package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestLoadDirErrors covers the fixture loader's failure branches.
func TestLoadDirErrors(t *testing.T) {
	if _, err := LoadDir(filepath.Join("testdata", "no-such-dir")); err == nil {
		t.Error("LoadDir on a missing directory succeeded")
	}
	empty := t.TempDir()
	if _, err := LoadDir(empty); err == nil || !strings.Contains(err.Error(), "no Go files") {
		t.Errorf("LoadDir on an empty directory: err = %v", err)
	}
	broken := t.TempDir()
	if err := os.WriteFile(filepath.Join(broken, "bad.go"), []byte("package broken\nfunc {"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadDir(broken); err == nil || !strings.Contains(err.Error(), "parsing") {
		t.Errorf("LoadDir on unparsable source: err = %v", err)
	}
	typebad := t.TempDir()
	if err := os.WriteFile(filepath.Join(typebad, "bad.go"), []byte("package typebad\nvar x undefinedType\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadDir(typebad); err == nil || !strings.Contains(err.Error(), "type-checking") {
		t.Errorf("LoadDir on untypeable source: err = %v", err)
	}
}

// TestLoadErrors covers the go list fallback path: bad patterns and bad
// directories must surface go list's stderr, not a crash.
func TestLoadErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go tool")
	}
	if _, err := Load("", []string{"./no/such/pattern/..."}); err == nil || !strings.Contains(err.Error(), "go list") {
		t.Errorf("Load with a bad pattern: err = %v", err)
	}
	if _, err := Load(string(filepath.Separator)+"no-such-dir-for-lint-test", []string{"./..."}); err == nil {
		t.Error("Load with a bad dir succeeded")
	}
}

// TestTypecheckFilesMissingExport covers the export-data lookup error
// branch: an import with no export data available must fail cleanly.
func TestTypecheckFilesMissingExport(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "p.go")
	if err := os.WriteFile(src, []byte("package p\nimport \"strings\"\nvar X = strings.ToUpper(\"x\")\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	imp := newExportImporter(fset, map[string]string{}) // no export data at all
	if _, err := typecheckFiles(fset, "p", []string{src}, imp); err == nil {
		t.Error("typecheckFiles resolved an import with no export data")
	}
}

// parseOne parses a single source string for ignore-index tests.
func parseOne(t *testing.T, src string) (*token.FileSet, []*ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "ignore.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return fset, []*ast.File{f}
}

// TestIgnoreIndexMultiAnalyzer checks multi-analyzer ignore lists: each
// listed analyzer is suppressed on the directive's line and the next,
// unlisted analyzers are not.
func TestIgnoreIndexMultiAnalyzer(t *testing.T) {
	fset, files := parseOne(t, `package p

//lint:ignore lockcheck,allocheck documented reason
var x = 1
`)
	var diags []Diagnostic
	idx := buildIgnoreIndex(fset, files, &diags)
	if len(diags) != 0 {
		t.Fatalf("well-formed directive reported: %v", diags)
	}
	pos := token.Position{Filename: "ignore.go", Line: 4}
	for _, a := range []string{"lockcheck", "allocheck"} {
		if !idx.covers(pos, a) {
			t.Errorf("line 4 not covered for %s", a)
		}
		if !idx.covers(token.Position{Filename: "ignore.go", Line: 3}, a) {
			t.Errorf("directive line not covered for %s", a)
		}
	}
	if idx.covers(pos, "wirestate") {
		t.Error("unlisted analyzer suppressed")
	}
	if idx.covers(token.Position{Filename: "ignore.go", Line: 5}, "lockcheck") {
		t.Error("coverage leaked past the next line")
	}
}

// TestIgnoreIndexMandatoryReason checks that a directive without a reason
// (or without an analyzer list) suppresses nothing and is itself
// reported as a malformed-directive finding.
func TestIgnoreIndexMandatoryReason(t *testing.T) {
	fset, files := parseOne(t, `package p

//lint:ignore lockcheck
var x = 1

//lint:ignore
var y = 2
`)
	var diags []Diagnostic
	idx := buildIgnoreIndex(fset, files, &diags)
	if len(diags) != 2 {
		t.Fatalf("malformed directives reported %d findings, want 2: %v", len(diags), diags)
	}
	for _, d := range diags {
		if d.Analyzer != "lint" || !strings.Contains(d.Message, "malformed //lint:ignore") {
			t.Errorf("unexpected malformed-directive finding: %s", d)
		}
	}
	if idx.covers(token.Position{Filename: "ignore.go", Line: 4}, "lockcheck") {
		t.Error("reason-less directive suppressed a finding")
	}
}
