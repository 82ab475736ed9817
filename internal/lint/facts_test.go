package lint

import "testing"

// testFact is a fact type private to the tests.
type testFact struct {
	N int
}

// AFact marks testFact as a fact.
func (*testFact) AFact() {}

// otherFact is a second fact type, to check that the type is part of the
// key.
type otherFact struct{}

// AFact marks otherFact as a fact.
func (*otherFact) AFact() {}

// TestSessionFactAccessors checks that the Finish hook accessor returns
// the package facts of the requested type only, one per package, in
// package order.
func TestSessionFactAccessors(t *testing.T) {
	s := NewSession()
	s.facts.set("pkg/b", &testFact{N: 1})
	s.facts.set("pkg/a", &testFact{N: 2})
	s.facts.set("pkg/a", &testFact{N: 3})
	s.facts.set("pkg/a", &otherFact{})

	pf := s.AllPackageFacts(&testFact{})
	if len(pf) != 2 || pf[0].Pkg != "pkg/a" || pf[1].Pkg != "pkg/b" {
		t.Fatalf("AllPackageFacts = %+v", pf)
	}
	if pf[0].Fact.(*testFact).N != 3 {
		t.Fatalf("AllPackageFacts returned %+v for pkg/a, want the last fact set", pf[0].Fact)
	}
	if of := s.AllPackageFacts(&otherFact{}); len(of) != 1 || of[0].Pkg != "pkg/a" {
		t.Fatalf("AllPackageFacts(otherFact) = %+v", of)
	}
}
