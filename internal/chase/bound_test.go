package chase

import (
	"testing"
)

func TestTerminationBoundWeaklyAcyclic(t *testing.T) {
	s := mustSetting(t, example21)
	bound, ok := TerminationBound(s, 3)
	if !ok {
		t.Fatal("Example 2.1 is weakly acyclic: a bound must exist")
	}
	if bound < 4 {
		t.Fatalf("bound %d too small for Example 2.1", bound)
	}
	// The actual chase must finish well within the bound.
	src := mustInstance(t, source21)
	res, err := Standard(s, src, Options{MaxSteps: bound})
	if err != nil {
		t.Fatalf("chase within the bound: %v", err)
	}
	if res.Steps > bound {
		t.Fatalf("steps %d exceeded bound %d", res.Steps, bound)
	}
	// Huge inputs saturate instead of overflowing.
	if bound, ok := TerminationBound(s, 1<<30); !ok || bound <= 0 {
		t.Fatalf("bound must clamp: %d %v", bound, ok)
	}
}

func TestTerminationBoundRejectsNonWeaklyAcyclic(t *testing.T) {
	s := mustSetting(t, `
source S/2.
target E/2.
st:
  S(x,y) -> E(x,y).
target-deps:
  E(x,y) -> exists z : E(y,z).
`)
	if _, ok := TerminationBound(s, 5); ok {
		t.Fatal("no bound for non-weakly-acyclic settings")
	}
}

func TestStandardBounded(t *testing.T) {
	// A saturated TerminationBound is still a usable MaxSteps budget: the
	// standard chase under it terminates with a solution.
	s := mustSetting(t, example21)
	src := mustInstance(t, source21)
	bound, _ := TerminationBound(s, 1<<30)
	res, err := Standard(s, src, Options{MaxSteps: bound})
	if err != nil {
		t.Fatal(err)
	}
	if !IsSolution(s, src, res.Target) {
		t.Fatal("bounded chase must produce a solution")
	}
}
