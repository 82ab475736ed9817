// Facts: how an analyzer carries what it learned about one package to a
// whole-program check. A pass exports a package fact — a small struct
// summarising the package — and the analyzer's Finish hook, which runs
// after every package's Run, reads the facts of all packages through the
// Session. The mechanism mirrors golang.org/x/tools/go/analysis package
// facts, built on the standard library alone; facts are plain structs held
// in memory for the length of one session.
package lint

import (
	"reflect"
	"sort"
)

// Fact is the marker interface every fact type implements. A fact must be
// a pointer to a struct.
type Fact interface {
	// AFact marks the type as a lint fact; it is never called.
	AFact()
}

// factKey addresses one fact: the exporting package's import path and the
// fact's type.
type factKey struct {
	pkg string
	typ reflect.Type
}

// FactStore accumulates the package facts of one analysis session.
type FactStore struct {
	m map[factKey]Fact
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore {
	return &FactStore{m: make(map[factKey]Fact)}
}

// set stores f for pkg, replacing any previous fact of the same type.
func (s *FactStore) set(pkg string, f Fact) {
	s.m[factKey{pkg: pkg, typ: reflect.TypeOf(f)}] = f
}

// ExportPackageFact attaches f to the package under analysis.
func (p *Pass) ExportPackageFact(f Fact) {
	p.facts.set(p.Pkg.Path(), f)
}

// StoredFact is one fact together with the package that exported it, as
// returned by Session.AllPackageFacts.
type StoredFact struct {
	// Pkg is the import path of the package the fact was exported from.
	Pkg string
	// Fact is the stored fact value. Treat it as read-only.
	Fact Fact
}

// allFacts returns every stored fact of proto's type, sorted by package
// path, so Finish hooks iterate deterministically.
func (s *FactStore) allFacts(proto Fact) []StoredFact {
	want := reflect.TypeOf(proto)
	var out []StoredFact
	for k, f := range s.m {
		if k.typ == want {
			out = append(out, StoredFact{Pkg: k.pkg, Fact: f})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pkg < out[j].Pkg })
	return out
}
