package lint

import (
	"path/filepath"
	"testing"
)

// testFact is a fact type private to the tests.
type testFact struct {
	N int
	S string
}

// AFact marks testFact as a fact.
func (*testFact) AFact() {}

// TestFactStoreRoundtrip exercises set/get copy semantics.
func TestFactStoreRoundtrip(t *testing.T) {
	s := NewFactStore()
	s.set("pkg/a", "F", &testFact{N: 1, S: "x"})
	s.set("pkg/a", "", &testFact{N: 2})
	s.set("pkg/b", "T.M", &testFact{N: 3})

	var got testFact
	if !s.get("pkg/a", "F", &got) || got.N != 1 || got.S != "x" {
		t.Fatalf("get pkg/a.F = %+v", got)
	}
	// Mutating the caller's copy must not corrupt the store.
	got.N = 99
	var again testFact
	if !s.get("pkg/a", "F", &again) || again.N != 1 {
		t.Fatalf("store mutated through caller copy: %+v", again)
	}
	if s.get("pkg/a", "G", &again) {
		t.Fatal("get reported a fact that was never set")
	}
	var m testFact
	if !s.get("pkg/b", "T.M", &m) || m.N != 3 {
		t.Fatalf("get pkg/b.T.M = %+v", m)
	}
	// The fact type is part of the key.
	var af AllocFact
	if s.get("pkg/a", "F", &af) {
		t.Fatal("get matched a fact of another type")
	}
}

// TestSessionFactAccessors checks that the Finish hook accessor returns
// package-level facts only, in deterministic order.
func TestSessionFactAccessors(t *testing.T) {
	s := NewSession()
	s.facts.set("pkg/b", "", &testFact{N: 1})
	s.facts.set("pkg/a", "", &testFact{N: 2})
	s.facts.set("pkg/a", "F", &testFact{N: 3})

	pf := s.AllPackageFacts(&testFact{})
	if len(pf) != 2 || pf[0].Pkg != "pkg/a" || pf[1].Pkg != "pkg/b" {
		t.Fatalf("AllPackageFacts = %+v", pf)
	}
	if pf[0].Fact.(*testFact).N != 2 {
		t.Fatalf("AllPackageFacts returned %+v for pkg/a", pf[0].Fact)
	}
}

// TestObjectPath pins the addressing scheme facts rely on.
func TestObjectPath(t *testing.T) {
	pkg, err := LoadDir(filepath.Join("testdata", "allocheck"))
	if err != nil {
		t.Fatal(err)
	}
	scope := pkg.Types.Scope()
	if got := objectPath(scope.Lookup("helper")); got != "helper" {
		t.Errorf("objectPath(helper) = %q", got)
	}
	if got := objectPath(nil); got != "" {
		t.Errorf("objectPath(nil) = %q", got)
	}
}
