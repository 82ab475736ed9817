// Facts: the interprocedural layer of the lint framework. An analyzer
// running on one package can export typed facts about that package's
// objects (functions, constants) or about the package as a whole; passes
// over dependent packages — analyzed later, in dependency order — import
// those facts to reason across package boundaries without re-reading the
// dependency's source. The mechanism mirrors golang.org/x/tools/go/analysis
// facts, built on the standard library alone; facts are plain structs held
// in memory for the length of one session.
//
// Whole-program checks that cannot be phrased package-at-a-time (cycle
// detection over the merged lock graph, protocol-coverage accounting) run
// in an Analyzer's Finish hook, after every package's Run completed, with
// access to the full accumulated fact store through the Session.
package lint

import (
	"go/types"
	"reflect"
	"sort"
)

// Fact is the marker interface every fact type implements. A fact must be
// a pointer to a struct.
type Fact interface {
	// AFact marks the type as a lint fact; it is never called.
	AFact()
}

// factKey addresses one fact: the declaring package's import path, the
// object's path within it ("" for a package-level fact), and the fact's
// type.
type factKey struct {
	pkg string
	obj string
	typ reflect.Type
}

// FactStore accumulates the facts of one analysis session. One store is
// threaded through every pass of a RunAll invocation, in dependency order.
type FactStore struct {
	m map[factKey]Fact
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore {
	return &FactStore{m: make(map[factKey]Fact)}
}

// objectPath returns the stable intra-package path of an object: the bare
// name for package-level declarations, "Recv.Method" for methods. Objects
// facts cannot address (locals, imports) yield "".
func objectPath(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			name := recvTypeName(recv.Type())
			if name == "" {
				return ""
			}
			return name + "." + fn.Name()
		}
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return obj.Name()
}

// recvTypeName resolves a receiver type to its named type's bare name.
func recvTypeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// set stores f under the key, replacing any previous fact of the same type.
func (s *FactStore) set(pkg, obj string, f Fact) {
	s.m[factKey{pkg: pkg, obj: obj, typ: reflect.TypeOf(f)}] = f
}

// get copies the stored fact for the key into target (which selects the
// fact type) and reports whether one was found. The copy is shallow:
// callers may reassign target's fields but must not mutate the slices or
// maps it shares with the store.
func (s *FactStore) get(pkg, obj string, target Fact) bool {
	stored, ok := s.m[factKey{pkg: pkg, obj: obj, typ: reflect.TypeOf(target)}]
	if ok {
		reflect.ValueOf(target).Elem().Set(reflect.ValueOf(stored).Elem())
	}
	return ok
}

// ExportObjectFact attaches f to obj, making it visible to later passes
// over packages that import this one. obj must be addressable by a stable
// path (package-level declaration or method); other objects are ignored.
func (p *Pass) ExportObjectFact(obj types.Object, f Fact) {
	if path := objectPath(obj); path != "" {
		p.facts.set(obj.Pkg().Path(), path, f)
	}
}

// ImportObjectFact copies the fact of f's type attached to obj into f and
// reports whether one was found.
func (p *Pass) ImportObjectFact(obj types.Object, f Fact) bool {
	path := objectPath(obj)
	return path != "" && p.facts.get(obj.Pkg().Path(), path, f)
}

// ExportPackageFact attaches f to the package under analysis.
func (p *Pass) ExportPackageFact(f Fact) {
	p.facts.set(p.Pkg.Path(), "", f)
}

// StoredFact is one fact together with its address, as returned by the
// Session accessors Finish hooks use.
type StoredFact struct {
	// Pkg is the import path of the package the fact was exported from.
	Pkg string
	// Obj is the object path within Pkg; empty for package-level facts.
	Obj string
	// Fact is the stored fact value. Treat it as read-only.
	Fact Fact
}

// allFacts returns every stored fact of proto's type, sorted by package
// path then object path, so Finish hooks iterate deterministically.
func (s *FactStore) allFacts(proto Fact) []StoredFact {
	want := reflect.TypeOf(proto)
	var out []StoredFact
	for k, f := range s.m {
		if k.typ == want {
			out = append(out, StoredFact{Pkg: k.pkg, Obj: k.obj, Fact: f})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pkg != out[j].Pkg {
			return out[i].Pkg < out[j].Pkg
		}
		return out[i].Obj < out[j].Obj
	})
	return out
}
