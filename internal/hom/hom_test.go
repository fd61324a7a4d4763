package hom

import (
	"math/rand"
	"testing"

	"repro/internal/genwl"
	"repro/internal/instance"
)

func c(n string) instance.Value { return instance.Const(n) }
func nl(i int64) instance.Value { return instance.Null(i) }

func atoms(as ...instance.Atom) *instance.Instance { return instance.FromAtoms(as...) }

// Example 2.1 solutions.
func t1() *instance.Instance {
	return atoms(
		instance.NewAtom("E", c("a"), c("b")),
		instance.NewAtom("E", c("a"), nl(1)),
		instance.NewAtom("E", c("c"), nl(2)),
		instance.NewAtom("F", c("a"), c("d")),
		instance.NewAtom("G", c("d"), nl(3)),
	)
}

func t2() *instance.Instance {
	return atoms(
		instance.NewAtom("E", c("a"), c("b")),
		instance.NewAtom("E", c("a"), nl(1)),
		instance.NewAtom("E", c("a"), nl(2)),
		instance.NewAtom("F", c("a"), nl(3)),
		instance.NewAtom("G", nl(3), nl(4)),
	)
}

func t3() *instance.Instance {
	return atoms(
		instance.NewAtom("E", c("a"), c("b")),
		instance.NewAtom("F", c("a"), nl(1)),
		instance.NewAtom("G", nl(1), nl(2)),
	)
}

func TestFindBasic(t *testing.T) {
	from := atoms(instance.NewAtom("E", c("a"), nl(0)))
	to := atoms(instance.NewAtom("E", c("a"), c("b")))
	m, ok := Find(from, to)
	if !ok || m[nl(0)] != c("b") {
		t.Fatalf("hom = %v ok=%v", m, ok)
	}
}

func TestFindConstantsFixed(t *testing.T) {
	from := atoms(instance.NewAtom("E", c("a"), c("b")))
	to := atoms(instance.NewAtom("E", c("b"), c("a")))
	if Exists(from, to) {
		t.Fatal("constants must map to themselves")
	}
}

func TestExample21Homomorphisms(t *testing.T) {
	// The paper: T2 and T3 are universal, T1 is not — no hom T1 → T2.
	if Exists(t1(), t2()) {
		t.Fatal("paper: no homomorphism from T1 to T2")
	}
	if !Exists(t2(), t1()) {
		t.Fatal("T2 is universal: hom T2 → T1 must exist")
	}
	if !Exists(t2(), t3()) || !Exists(t3(), t2()) {
		t.Fatal("T2 and T3 are hom-equivalent")
	}
	if !HomEquivalent(t2(), t3()) {
		t.Fatal("HomEquivalent(T2,T3)")
	}
}

func TestFindRepeatedNull(t *testing.T) {
	from := atoms(
		instance.NewAtom("E", nl(0), nl(0)),
	)
	noLoop := atoms(instance.NewAtom("E", c("a"), c("b")))
	if Exists(from, noLoop) {
		t.Fatal("E(_0,_0) needs a self-loop in the target")
	}
	loop := atoms(instance.NewAtom("E", c("a"), c("a")))
	if !Exists(from, loop) {
		t.Fatal("self-loop target should admit hom")
	}
}

func TestOddCycleHomomorphism(t *testing.T) {
	// 9-cycle on nulls → 3-cycle exists; → edge (2-path) does not.
	cycle := func(n int64) *instance.Instance {
		ins := instance.New()
		for i := int64(0); i < n; i++ {
			ins.Add(instance.NewAtom("E", nl(i), nl((i+1)%n)))
		}
		return ins
	}
	if !Exists(cycle(9), cycle(3)) {
		t.Fatal("9-cycle maps onto triangle")
	}
	if Exists(cycle(3), cycle(9)) {
		t.Fatal("triangle cannot map to 9-cycle (no triangles there)")
	}
}

func TestForced(t *testing.T) {
	from := atoms(instance.NewAtom("E", nl(0), nl(1)))
	to := atoms(
		instance.NewAtom("E", c("a"), c("b")),
		instance.NewAtom("E", c("c"), c("d")),
	)
	m, ok := Find(from, to, Forced(Mapping{nl(0): c("c")}))
	if !ok || m[nl(1)] != c("d") {
		t.Fatalf("forced hom = %v ok=%v", m, ok)
	}
	if _, ok := Find(from, to, Forced(Mapping{nl(0): c("b")})); ok {
		t.Fatal("forcing _0=b admits no hom")
	}
}

func TestInjective(t *testing.T) {
	from := atoms(
		instance.NewAtom("E", nl(0), nl(1)),
		instance.NewAtom("E", nl(1), nl(2)),
	)
	collapsed := atoms(
		instance.NewAtom("E", c("a"), c("b")),
		instance.NewAtom("E", c("b"), c("a")),
	)
	if _, ok := Find(from, collapsed); !ok {
		t.Fatal("non-injective hom exists")
	}
	if _, ok := Find(from, collapsed, Injective()); ok {
		t.Fatal("injective hom should not exist into 2-cycle (3 distinct nulls)")
	}
	path := atoms(
		instance.NewAtom("E", c("x"), c("y")),
		instance.NewAtom("E", c("y"), c("z")),
	)
	if _, ok := Find(from, path, Injective()); !ok {
		t.Fatal("injective hom onto 3-path exists")
	}
}

func TestIsomorphic(t *testing.T) {
	a := atoms(instance.NewAtom("E", c("a"), nl(5)), instance.NewAtom("F", nl(5), nl(7)))
	b := atoms(instance.NewAtom("E", c("a"), nl(0)), instance.NewAtom("F", nl(0), nl(1)))
	if !Isomorphic(a, b) {
		t.Fatal("isomorphic up to null renaming")
	}
	cIns := atoms(instance.NewAtom("E", c("a"), nl(0)), instance.NewAtom("F", nl(1), nl(2)))
	if Isomorphic(a, cIns) {
		t.Fatal("different null identification pattern: not isomorphic")
	}
	if Isomorphic(a, atoms(instance.NewAtom("E", c("a"), nl(0)))) {
		t.Fatal("different sizes")
	}
}

func TestEndomorphismAndWithout(t *testing.T) {
	tt := atoms(
		instance.NewAtom("E", c("a"), c("b")),
		instance.NewAtom("E", c("a"), nl(0)),
	)
	sub := Without(tt, nl(0))
	if sub.Len() != 1 || !sub.Has(instance.NewAtom("E", c("a"), c("b"))) {
		t.Fatalf("Without = %v", sub)
	}
	m, ok := Endomorphism(tt, nl(0))
	if !ok || m[nl(0)] != c("b") {
		t.Fatalf("endo = %v ok=%v", m, ok)
	}
	// A core admits no null-dropping endomorphism.
	coreLike := atoms(instance.NewAtom("E", c("a"), nl(0)))
	if _, ok := Endomorphism(coreLike, nl(0)); ok {
		t.Fatal("single-atom instance with one null is a core")
	}
}

func TestCanonicalNullForm(t *testing.T) {
	a := atoms(instance.NewAtom("E", nl(42), nl(17)), instance.NewAtom("F", nl(17)))
	canon := CanonicalNullForm(a)
	if !Isomorphic(a, canon) {
		t.Fatal("canonical form must be isomorphic to the original")
	}
	if canon.MaxNullLabel() != 1 {
		t.Fatalf("canonical labels should be 0..1, got max %d", canon.MaxNullLabel())
	}
}

func TestMappingApply(t *testing.T) {
	m := Mapping{nl(0): c("a")}
	if m.Apply(nl(0)) != c("a") || m.Apply(c("b")) != c("b") || m.Apply(nl(1)) != nl(1) {
		t.Fatal("Apply semantics")
	}
	img := m.ApplyInstance(atoms(instance.NewAtom("E", nl(0), nl(1))))
	if !img.Has(instance.NewAtom("E", c("a"), nl(1))) {
		t.Fatalf("ApplyInstance = %v", img)
	}
}

// CanonicalNullString renders exactly CanonicalNullForm(t).String(), on
// instances over several relations with shuffled null labels, constants
// that sort between them, and dead rows left by removals.
func TestCanonicalNullStringMatchesForm(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var next int64 = 7
	for i := 0; i < 200; i++ {
		ins := withRandomNulls(genwl.RandomEdges("E", 1+rng.Intn(8), rng.Int63()), rng, 0.5, &next)
		ins.AddAll(withRandomNulls(genwl.RandomEdges("D", rng.Intn(4), rng.Int63()), rng, 0.5, &next))
		ins.Add(instance.NewAtom("F", nl(rng.Int63n(next+1)), c("_0")))
		for _, a := range ins.Atoms() {
			if rng.Intn(4) == 0 {
				ins.Remove(a)
			}
		}
		if got, want := CanonicalNullString(ins), CanonicalNullForm(ins).String(); got != want {
			t.Fatalf("CanonicalNullString(%v) = %s, want %s", ins, got, want)
		}
	}
	if got := CanonicalNullString(instance.New()); got != "{}" {
		t.Fatalf("empty instance renders %q", got)
	}
}
