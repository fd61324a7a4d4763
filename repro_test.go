package repro_test

import (
	"testing"

	"repro"
)

const setting = `
source M/2, N/2.
target E/2, F/2, G/2.
st:
  d1: M(x1,x2) -> E(x1,x2).
  d2: N(x,y) -> exists z1,z2 : E(x,z1) & F(x,z2).
target-deps:
  d3: F(y,x) -> exists z : G(x,z).
  d4: F(x,y) & F(x,z) -> y = z.
`

func TestFacadeEndToEnd(t *testing.T) {
	s, err := repro.ParseSetting(setting)
	if err != nil {
		t.Fatal(err)
	}
	if !repro.WeaklyAcyclic(s) || !repro.RichlyAcyclic(s) {
		t.Fatal("Example 2.1 is richly acyclic")
	}
	src, err := repro.ParseInstance(`M(a,b). N(a,b). N(a,c).`)
	if err != nil {
		t.Fatal(err)
	}
	exists, err := repro.ExistsCWASolution(s, src, repro.ChaseOptions{})
	if err != nil || !exists {
		t.Fatalf("exists = %v, %v", exists, err)
	}
	sol, err := repro.CWASolution(s, src, repro.ChaseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ok, err := repro.IsCWASolution(s, src, sol, repro.ChaseOptions{})
	if err != nil || !ok {
		t.Fatalf("minimal CWA-solution check: %v %v", ok, err)
	}
	want, err := repro.ParseInstance(`E(a,b). F(a,_1). G(_1,_2).`)
	if err != nil {
		t.Fatal(err)
	}
	if !repro.Isomorphic(sol, want) {
		t.Fatalf("CWASolution = %v, want ≅ %v", sol, want)
	}
	u, err := repro.ParseUCQ(`q(x,y) :- E(x,y).`)
	if err != nil {
		t.Fatal(err)
	}
	ans, err := repro.CertainAnswersUCQ(s, u, src, repro.ChaseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ans.Len() != 1 || !ans.Has(repro.Tuple{repro.Const("a"), repro.Const("b")}) {
		t.Fatalf("certain answers = %v", ans)
	}
}

func TestFacadeSemantics(t *testing.T) {
	s, _ := repro.ParseSetting(setting)
	src, _ := repro.ParseInstance(`M(a,b). N(a,b).`)
	q, err := repro.ParseUCQ(`q(x) :- E(x,y).`)
	if err != nil {
		t.Fatal(err)
	}
	capAns, err := repro.Answers(s, q, src, repro.CertainCap, repro.CertainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cupAns, err := repro.Answers(s, q, src, repro.CertainCup, repro.CertainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !capAns.SubsetOf(cupAns) {
		t.Fatalf("certain⊓ %v ⊄ certain⊔ %v", capAns, cupAns)
	}
}

func TestFacadeEnumerate(t *testing.T) {
	s, _ := repro.ParseSetting(setting)
	src, _ := repro.ParseInstance(`M(a,b). N(a,b).`)
	sols, err := repro.EnumerateCWASolutions(s, src, repro.EnumOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sols) == 0 {
		t.Fatal("no CWA-solutions enumerated")
	}
	for _, sol := range sols {
		if !repro.IsSolution(s, src, sol) {
			t.Errorf("%v is not a solution", sol)
		}
		if !repro.IsCWAPresolution(s, src, sol) {
			t.Errorf("%v is not a presolution", sol)
		}
	}
}

func TestFacadeChaseAndCore(t *testing.T) {
	s, _ := repro.ParseSetting(setting)
	src, _ := repro.ParseInstance(`M(a,b). N(a,c).`)
	res, err := repro.Chase(s, src, repro.ChaseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Target.Len() == 0 {
		t.Fatal("chase produced nothing")
	}
	core := repro.Core(res.Target)
	if !repro.HomomorphismExists(res.Target, core) || !repro.HomomorphismExists(core, res.Target) {
		t.Fatal("core must be hom-equivalent to the chase result")
	}
	u, err := repro.UniversalSolution(s, src, repro.ChaseOptions{})
	if err != nil || !u.Equal(res.Target) {
		t.Fatal("UniversalSolution must match the chase target")
	}
}

func TestFacadeExtendedAPI(t *testing.T) {
	s, _ := repro.ParseSetting(setting)
	src, _ := repro.ParseInstance(`M(a,b). N(a,b).`)

	// Oblivious chase terminates (Example 2.1 is richly acyclic).
	res, err := repro.ObliviousChase(s, src, repro.ChaseOptions{MaxSteps: 10000})
	if err != nil || !repro.IsSolution(s, src, res.Target) {
		t.Fatalf("oblivious: %v %v", res, err)
	}

	// Termination bound exists and suffices.
	bound, ok := repro.ChaseTerminationBound(s, 3)
	if !ok || bound < 1 {
		t.Fatalf("bound = %d, %v", bound, ok)
	}

	// Justification witnesses behind the minimal CWA-solution.
	core, err := repro.CWASolution(s, src, repro.ChaseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	alpha, ok := repro.FindPresolutionAlpha(s, src, core)
	if !ok || len(alpha) == 0 {
		t.Fatalf("alpha = %v, %v", alpha, ok)
	}

	// Canonical fact of the core holds in every solution built here.
	fact := repro.CanonicalFact(core)
	u, _ := repro.UniversalSolution(s, src, repro.ChaseOptions{})
	if !fact.Holds(u) {
		t.Fatal("ϕ_core must hold in the universal solution")
	}

	// Containment and minimization.
	q1, _ := repro.ParseCQ("q(x) :- E(x,y), E(x,z).")
	q2, _ := repro.ParseCQ("q(x) :- E(x,y).")
	contained, err := repro.CQContainedIn(q1, q2)
	if err != nil || !contained {
		t.Fatalf("containment: %v %v", contained, err)
	}
	min, err := repro.CQMinimize(q1)
	if err != nil || len(min.Atoms) != 1 {
		t.Fatalf("minimize: %v %v", min, err)
	}
}

func TestFacadeUCQIneqRejectsTwoInequalities(t *testing.T) {
	s, err := repro.ParseSetting(`
source N/2.
target F/2.
st:
  N(x,y) -> F(x,y).
`)
	if err != nil {
		t.Fatal(err)
	}
	src, _ := repro.ParseInstance(`N(a,b).`)
	u, _ := repro.ParseUCQ("q(x) :- F(x,y), y != x, F(y,z), z != y.")
	if _, err := repro.CertainAnswersUCQIneq(s, u, src, repro.CertainOptions{}); err == nil {
		t.Fatal("two inequalities per disjunct must be rejected")
	}
}

func TestFacadeUCQIneqAndPossible(t *testing.T) {
	egdOnly, err := repro.ParseSetting(`
source N/2, W/2.
target F/2.
st:
  N(x,y) -> exists z : F(x,z).
  W(x,y) -> F(x,y).
target-deps:
  F(x,y) & F(x,z) -> y = z.
`)
	if err != nil {
		t.Fatal(err)
	}
	src, _ := repro.ParseInstance(`N(a,b). W(a,e).`)
	u, _ := repro.ParseUCQ("q(x) :- F(x,y), y != x.")
	ans, err := repro.CertainAnswersUCQIneq(egdOnly, u, src, repro.CertainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !ans.Has(repro.Tuple{repro.Const("a")}) {
		t.Fatalf("a is certain (F(a,e), e != a): %v", ans)
	}

	noDeps, _ := repro.ParseSetting(`
source M/2.
target E/2.
st:
  M(x,y) -> exists z : E(x,z).
`)
	tgt, _ := repro.ParseInstance(`E(a,_0).`)
	b, _ := repro.ParseUCQ("q() :- E('a','a').")
	possible, err := repro.PossibleUCQ(noDeps, b, tgt)
	if err != nil || !possible {
		t.Fatalf("possible: %v %v", possible, err)
	}
}
