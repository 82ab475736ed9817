// Package lint is a repo-specific static analysis framework in the shape
// of golang.org/x/tools/go/analysis, built on the standard library alone
// (go/ast + go/types + export data) so the module stays dependency-free.
// It exists because the distribution layer — internal/remote, the stream
// runtime, the topology glue — encodes concurrency and protocol invariants
// that comments cannot enforce; the analyzers in this package turn those
// invariants into machine-checked build gates. docs/LINTING.md describes
// each analyzer and its invariant.
//
// The model mirrors go/analysis: an Analyzer owns a Run function invoked
// once per package with a Pass carrying the syntax trees and full type
// information. Diagnostics can be suppressed per line with
//
//	//lint:ignore <analyzer>[,<analyzer>...] reason
//
// placed on the offending line or the line directly above it; the reason
// is mandatory so every suppression documents itself.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Analyzer is one named check run over a package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and ignore comments.
	Name string
	// Doc is the one-paragraph invariant description shown by -help.
	Doc string
	// Run inspects the package and reports findings through pass.Report.
	Run func(pass *Pass) error
	// Finish, when non-nil, runs once after every package's Run completed,
	// with access to every package's facts through the Session. It is
	// where whole-program checks live: wirestate's protocol-coverage
	// accounting.
	Finish func(s *Session) error
}

// Pass carries one package's worth of material to an Analyzer.
type Pass struct {
	// Analyzer is the check currently running.
	Analyzer *Analyzer
	// Fset maps token positions back to file/line.
	Fset *token.FileSet
	// Files are the parsed syntax trees, comments included.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// Info is the full type information for Files.
	Info *types.Info

	facts   *FactStore
	diags   *[]Diagnostic
	ignores ignoreIndex
}

// Diagnostic is one finding, positioned for file:line:col rendering.
type Diagnostic struct {
	// Pos locates the finding.
	Pos token.Position
	// Analyzer names the check that produced the finding.
	Analyzer string
	// Message states the violated invariant.
	Message string
}

// String renders the diagnostic in the conventional vet format.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Reportf records a finding at pos unless an ignore comment covers it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	position := p.Fset.Position(pos)
	if p.ignores.covers(position, p.Analyzer.Name) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ignoreIndex records, per file and line, which analyzers are suppressed.
type ignoreIndex map[string]map[int]map[string]bool

var ignoreRe = regexp.MustCompile(`^//lint:ignore\s+(\S+)\s+\S`)

var ignorePrefixRe = regexp.MustCompile(`^//lint:ignore\b`)

// buildIgnoreIndex scans all comments for //lint:ignore directives,
// recording them in idx. A directive covers its own line and the next
// one, so it works both as a trailing comment and as a line of its own
// above the finding. A directive that is missing its analyzer list or its
// mandatory reason is itself a finding — suppressions must document
// themselves — reported under the pseudo-analyzer name "lint" (which no
// ignore directive can silence).
func buildIgnoreIndex(fset *token.FileSet, files []*ast.File, diags *[]Diagnostic) ignoreIndex {
	idx := make(ignoreIndex)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := ignoreRe.FindStringSubmatch(c.Text)
				if m == nil {
					if ignorePrefixRe.MatchString(c.Text) && diags != nil {
						*diags = append(*diags, Diagnostic{
							Pos:      fset.Position(c.Pos()),
							Analyzer: "lint",
							Message:  "malformed //lint:ignore directive: need an analyzer list and a reason (//lint:ignore <analyzer>[,<analyzer>...] reason)",
						})
					}
					continue
				}
				pos := fset.Position(c.Pos())
				lines := idx[pos.Filename]
				if lines == nil {
					lines = make(map[int]map[string]bool)
					idx[pos.Filename] = lines
				}
				for _, name := range strings.Split(m[1], ",") {
					for _, line := range []int{pos.Line, pos.Line + 1} {
						set := lines[line]
						if set == nil {
							set = make(map[string]bool)
							lines[line] = set
						}
						set[name] = true
					}
				}
			}
		}
	}
	return idx
}

func (idx ignoreIndex) covers(pos token.Position, analyzer string) bool {
	lines := idx[pos.Filename]
	if lines == nil {
		return false
	}
	set := lines[pos.Line]
	return set[analyzer] || set["all"]
}

// Session is the shared state of one whole-program analysis: the fact
// store every pass writes, the merged suppression index, and the
// accumulated diagnostics. Finish hooks receive it after the last
// package's Run.
type Session struct {
	facts   *FactStore
	ignores ignoreIndex
	diags   []Diagnostic
}

// NewSession returns an empty session with a fresh fact store.
func NewSession() *Session {
	return &Session{facts: NewFactStore(), ignores: make(ignoreIndex)}
}

// AllPackageFacts returns every package fact of proto's type, sorted by
// package path.
func (s *Session) AllPackageFacts(proto Fact) []StoredFact {
	return s.facts.allFacts(proto)
}

// Reportf records a finding from a Finish hook at an explicit position,
// honoring the same suppression index as Pass.Reportf. The analyzer is
// named by string so Finish hooks avoid an initialization cycle with their
// own Analyzer variable.
func (s *Session) Reportf(analyzer string, pos token.Position, format string, args ...interface{}) {
	if s.ignores.covers(pos, analyzer) {
		return
	}
	s.diags = append(s.diags, Diagnostic{
		Pos:      pos,
		Analyzer: analyzer,
		Message:  fmt.Sprintf(format, args...),
	})
}

// mergeIgnores folds one package's suppression index into the session's.
// Keys are file paths, so packages never collide.
func (s *Session) mergeIgnores(idx ignoreIndex) {
	for file, lines := range idx {
		s.ignores[file] = lines
	}
}

// runPackage executes the analyzers' Run phase over one package inside
// the session.
func (s *Session) runPackage(pkg *Package, analyzers []*Analyzer) error {
	s.mergeIgnores(buildIgnoreIndex(pkg.Fset, pkg.Files, &s.diags))
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			facts:    s.facts,
			diags:    &s.diags,
			ignores:  s.ignores,
		}
		if err := a.Run(pass); err != nil {
			return fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.Path, err)
		}
	}
	return nil
}

// finish runs every Finish hook and returns the sorted diagnostics.
func (s *Session) finish(analyzers []*Analyzer) ([]Diagnostic, error) {
	for _, a := range analyzers {
		if a.Finish == nil {
			continue
		}
		if err := a.Finish(s); err != nil {
			return nil, fmt.Errorf("lint: %s finish: %w", a.Name, err)
		}
	}
	sort.Slice(s.diags, func(i, j int) bool {
		a, b := s.diags[i].Pos, s.diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return s.diags, nil
}

// RunAll executes the analyzers over all packages with a shared fact
// store, runs the Finish hooks, and returns the surviving diagnostics
// sorted by position. This is the entry point repolint and the repo-wide
// test gate use.
func RunAll(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	s := NewSession()
	for _, pkg := range pkgs {
		if err := s.runPackage(pkg, analyzers); err != nil {
			return nil, err
		}
	}
	return s.finish(analyzers)
}

// Run executes the analyzers (Run and Finish phases) over one loaded
// package and returns the surviving diagnostics sorted by position. The
// fixture harness builds on it; whole-repo callers use RunAll so Finish
// hooks see every package's facts.
func Run(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	return RunAll([]*Package{pkg}, analyzers)
}

// All returns the full analyzer suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		LockCheck,
		GoroutineCheck,
		CtxCheck,
		WireState,
	}
}

// ByName resolves a comma-separated analyzer list; the empty string means
// the full suite.
func ByName(names string) ([]*Analyzer, error) {
	if names == "" {
		return All(), nil
	}
	byName := make(map[string]*Analyzer)
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range strings.Split(names, ",") {
		a, ok := byName[strings.TrimSpace(n)]
		if !ok {
			return nil, fmt.Errorf("lint: unknown analyzer %q", n)
		}
		out = append(out, a)
	}
	return out, nil
}
