package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
)

// Package is one parsed and type-checked package ready for analysis.
type Package struct {
	// Path is the import path ("repro/internal/wire").
	Path string
	// Fset positions the syntax trees.
	Fset *token.FileSet
	// Files are the package's non-test sources with comments.
	Files []*ast.File
	// Types is the type-checked package object.
	Types *types.Package
	// Info holds full type information for Files.
	Info *types.Info
}

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	Export     string
	DepOnly    bool
	Standard   bool
}

// goList runs `go list -export -deps -json` over the patterns and decodes
// the JSON stream. Export data for every dependency (standard library
// included) comes from the build cache, so the loader works offline.
func goList(dir string, patterns []string) ([]*listedPackage, error) {
	args := []string{"list", "-export", "-deps",
		"-json=ImportPath,Name,Dir,GoFiles,Export,DepOnly,Standard"}
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("lint: go list: %v\n%s", err, stderr.String())
	}
	var pkgs []*listedPackage
	dec := json.NewDecoder(&stdout)
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %w", err)
		}
		pkgs = append(pkgs, &p)
	}
	return pkgs, nil
}

// exportImporter resolves imports from compiled export data files.
type exportImporter struct {
	base    types.ImporterFrom
	exports map[string]string // import path -> export file
}

func newExportImporter(fset *token.FileSet, exports map[string]string) *exportImporter {
	ei := &exportImporter{exports: exports}
	lookup := func(path string) (io.ReadCloser, error) {
		file, ok := ei.exports[path]
		if !ok || file == "" {
			return nil, fmt.Errorf("lint: no export data for %q", path)
		}
		return os.Open(file)
	}
	ei.base = importer.ForCompiler(fset, "gc", lookup).(types.ImporterFrom)
	return ei
}

// Import implements types.Importer.
func (ei *exportImporter) Import(path string) (*types.Package, error) {
	return ei.base.ImportFrom(path, "", 0)
}

// newInfo allocates a types.Info with every map analyzers consult.
func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

// typecheckFiles parses and type-checks one package from explicit source
// files, resolving imports through imp. Load and LoadDir both build on it.
func typecheckFiles(fset *token.FileSet, path string, filenames []string, imp types.Importer) (*Package, error) {
	var files []*ast.File
	for _, fn := range filenames {
		f, err := parser.ParseFile(fset, fn, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: parsing %s: %w", fn, err)
		}
		files = append(files, f)
	}
	info := newInfo()
	conf := types.Config{Importer: imp, Sizes: types.SizesFor("gc", "amd64")}
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	return &Package{Path: path, Fset: fset, Files: files, Types: tpkg, Info: info}, nil
}

// Load lists, parses, and type-checks the packages matching the patterns
// (relative to dir; empty dir means the current directory). Only the
// matched packages themselves are analyzed; their dependencies are loaded
// from export data.
func Load(dir string, patterns []string) ([]*Package, error) {
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string, len(listed))
	var targets []*listedPackage
	for _, p := range listed {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly && !p.Standard {
			targets = append(targets, p)
		}
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].ImportPath < targets[j].ImportPath })

	fset := token.NewFileSet()
	imp := newExportImporter(fset, exports)
	var pkgs []*Package
	for _, p := range targets {
		if len(p.GoFiles) == 0 {
			continue
		}
		filenames := make([]string, len(p.GoFiles))
		for i, f := range p.GoFiles {
			filenames[i] = filepath.Join(p.Dir, f)
		}
		pkg, err := typecheckFiles(fset, p.ImportPath, filenames, imp)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// LoadDir parses and type-checks a single directory of Go files as one
// package, resolving imports from standard library source. It backs the
// fixture harness, where packages live under testdata and are invisible
// to the go tool.
func LoadDir(dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: reading %s: %w", dir, err)
	}
	var filenames []string
	for _, e := range entries {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".go" {
			filenames = append(filenames, filepath.Join(dir, e.Name()))
		}
	}
	if len(filenames) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	sort.Strings(filenames)
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "source", nil)
	return typecheckFiles(fset, filepath.Base(dir), filenames, imp)
}
