package certain

import (
	"testing"

	"repro/internal/chase"
	"repro/internal/cwa"
)

func TestAnswersUCQIneqEgdOnlyDispatch(t *testing.T) {
	s := mustSetting(t, `
source N/2, W/2.
target F/2.
st:
  N(x,y) -> exists z : F(x,z).
  W(x,y) -> F(x,y).
target-deps:
  F(x,y) & F(x,z) -> y = z.
`)
	src := mustInstance(t, `N(a,b). W(a,e). N(c,d).`)
	u := mustUCQ(t, "q(x) :- F(x,y), y != x.")
	if m := Choose(s, u, CertainCap); m != FixpointCanSol {
		t.Fatalf("planner chose %v, want %v", m, FixpointCanSol)
	}
	fast, err := Answers(s, u, src, CertainCap, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Cross-check against the characterisation: certain⊓ = □Q(CanSol).
	can, err := cwa.CanSol(s, src, chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := Box(s, u, can, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !fast.Equal(slow) {
		t.Fatalf("dispatch %v != □Q(CanSol) %v", fast, slow)
	}
}

func TestAnswersUCQIneqFullDispatch(t *testing.T) {
	s := mustSetting(t, `
source R/2.
target E/2, T/2.
st:
  R(x,y) -> E(x,y).
target-deps:
  E(x,y) -> T(x,y).
  T(x,y) & E(y,z) -> T(x,z).
`)
	src := mustInstance(t, `R(a,b). R(b,c).`)
	u := mustUCQ(t, "q(x,z) :- T(x,z), x != z.")
	if m := Choose(s, u, CertainCap); m != NullFree {
		t.Fatalf("planner chose %v, want %v", m, NullFree)
	}
	got, err := Answers(s, u, src, CertainCap, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Null-free closure: T = {(a,b),(b,c),(a,c)}, all with x != z.
	if got.Len() != 3 {
		t.Fatalf("answers = %v", got)
	}
}

func TestAnswersUCQIneqGenericFallback(t *testing.T) {
	// Example 2.1 is neither egd-only nor full: the generic path runs.
	s := mustSetting(t, example21)
	src := mustInstance(t, smallSource)
	u := mustUCQ(t, "q(x) :- E(x,y), y != x.")
	if m := Choose(s, u, CertainCap); m != ByDef {
		t.Fatalf("planner chose %v, want %v", m, ByDef)
	}
	got, err := Answers(s, u, src, CertainCap, Options{})
	if err != nil {
		t.Fatal(err)
	}
	byDef, err := ByDefinition(s, u, src, CertainCap, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(byDef) {
		t.Fatalf("fallback %v != by definition %v", got, byDef)
	}
}

// Two inequalities in a disjunct leave the PTIME cell (Theorem 7.5): the
// planner never hands such a query to the fixpoint, which rejects it, and
// answers it by Box over CanSol instead.
func TestAnswersUCQIneqRejectsTwoInequalities(t *testing.T) {
	s := mustSetting(t, `
source N/2.
target F/2.
st:
  N(x,y) -> exists z : F(x,z).
target-deps:
  F(x,y) & F(x,z) -> y = z.
`)
	src := mustInstance(t, `N(a,b). N(c,d).`)
	u := mustUCQ(t, "q(x) :- F(x,y), y != x, F(w,z), z != x.")
	can, err := cwa.CanSol(s, src, chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BoxUCQIneqPTime(s, u, can); err == nil {
		t.Fatal("the fixpoint must reject two inequalities per disjunct")
	}
	for _, sem := range []Semantics{CertainCap, CertainCup} {
		if m := Choose(s, u, sem); m == FixpointCore || m == FixpointCanSol {
			t.Fatalf("%v: planner chose %v for two inequalities", sem, m)
		}
	}
	got, err := Answers(s, u, src, CertainCap, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Box(s, u, can, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("planner %v != □Q(CanSol) %v", got, want)
	}
}

// Randomized cross-check: the PTIME fixpoint must agree with the
// exponential valuation enumeration across random egd-only workloads.
func TestQuickFixpointAgreesWithEnumeration(t *testing.T) {
	s := mustSetting(t, `
source N/2, W/2.
target F/2.
st:
  N(x,y) -> exists z : F(x,z).
  W(x,y) -> F(x,y).
target-deps:
  F(x,y) & F(x,z) -> y = z.
`)
	queries := []string{
		"q(x) :- F(x,y), y != x.",
		"q(x,y) :- F(x,y).",
		"q(y) :- F(x,y), x != y.",
		"q() :- F(x,y), F(y,z), z != x.",
	}
	for seed := int64(0); seed < 10; seed++ {
		// Small sources keep the enumeration affordable (≤ ~6 nulls).
		src := genwlEgdOnlySource(4, seed)
		can, err := cwa.CanSol(s, src, chase.Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(can.Nulls()) > 6 {
			continue
		}
		for _, qs := range queries {
			u := mustUCQ(t, qs)
			fast, err := BoxUCQIneqPTime(s, u, can)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, qs, err)
			}
			slow, err := Box(s, u, can, Options{})
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, qs, err)
			}
			if !fast.Equal(slow) {
				t.Errorf("seed %d query %s: fixpoint %v != enumeration %v\n(CanSol %v)",
					seed, qs, fast, slow, can)
			}
		}
	}
}
