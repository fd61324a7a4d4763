package hom

// Randomized crosscheck of the refute-only prefilter and the
// decision-mode probe against the compiled search: PrecheckRefute may only
// refute when no homomorphism exists, and FindAvoidingAC must agree with
// Find(..., Avoiding(avoid)).

import (
	"math/rand"
	"testing"

	"repro/internal/genwl"
	"repro/internal/instance"
)

// randomPair draws a (from, to) instance pair with enough nulls on the
// source side for real search choice points.
func randomPair(rng *rand.Rand, nextNull *int64) (*instance.Instance, *instance.Instance) {
	from := withRandomNulls(genwl.RandomEdges("E", 2+rng.Intn(6), rng.Int63()), rng, 0.7, nextNull)
	to := withRandomNulls(genwl.RandomEdges("E", 4+rng.Intn(8), rng.Int63()), rng, 0.2, nextNull)
	return from, to
}

func TestPrecheckCrosscheck(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	var nextNull int64
	refuted, open := 0, 0
	for i := 0; i < 400; i++ {
		from, to := randomPair(rng, &nextNull)
		if i%3 == 0 {
			// A near-singleton target leaves most candidate domains empty.
			to = withRandomNulls(genwl.RandomEdges("E", 1+rng.Intn(2), rng.Int63()), rng, 0.2, &nextNull)
		}
		exists := Exists(from, to)
		if PrecheckRefute(from.Atoms(), to) {
			if exists {
				t.Fatalf("case %d: PrecheckRefute refuted but a homomorphism exists\nfrom: %v\nto:   %v", i, from, to)
			}
			refuted++
		} else {
			open++
		}

		// Avoiding: the compiled decision pass against Find(..., Avoiding(avoid)).
		dom := to.Dom()
		avoid := dom[rng.Intn(len(dom))]
		_, aExists := Find(from, to, Avoiding(avoid))
		fm, fok := CompileSource(from).FindAvoidingAC(to, avoid)
		if fok != aExists {
			t.Fatalf("case %d: FindAvoidingAC(%v)=%v, Find(Avoiding)=%v", i, avoid, fok, aExists)
		}
		if fok {
			isHom(t, fm, from, to)
			for _, a := range fm.ApplyInstance(from).Atoms() {
				for _, v := range a.Args {
					if v == avoid {
						t.Fatalf("case %d: FindAvoidingAC mapping mentions the avoided value %v in image atom %v", i, avoid, a)
					}
				}
			}
		}
	}
	if refuted == 0 || open == 0 {
		t.Fatalf("degenerate workload: refuted=%d open=%d; want both outcomes", refuted, open)
	}
}

// TestPrecheckRefuteGroundAtom: a ground atom whose constants each occur at
// their positions, but never together, cannot embed; a null in place of
// one constant can.
func TestPrecheckRefuteGroundAtom(t *testing.T) {
	a, b, u, v := instance.Const("a"), instance.Const("b"), instance.Const("u"), instance.Const("v")
	to := instance.New()
	to.Add(instance.NewAtom("E", a, b))
	to.Add(instance.NewAtom("E", u, v))
	if !PrecheckRefute([]instance.Atom{instance.NewAtom("E", a, v)}, to) {
		t.Error("E(a,v) must be refuted against {E(a,b), E(u,v)}")
	}
	if PrecheckRefute([]instance.Atom{instance.NewAtom("E", a, instance.Null(0))}, to) {
		t.Error("E(a,_0) embeds into {E(a,b), E(u,v)} and must not be refuted")
	}
}

// PrecheckRefute runs once per candidate witness tuple in cwa.Enumerate,
// so it must not allocate for a head of a few atoms and nulls, whether it
// refutes or not.
func TestPrecheckRefuteAllocFree(t *testing.T) {
	a, b := instance.Const("a"), instance.Const("b")
	to := instance.FromAtoms(instance.NewAtom("E", a, b), instance.NewAtom("F", b, a))
	n0, n1, n2 := instance.Null(0), instance.Null(1), instance.Null(2)
	open := []instance.Atom{instance.NewAtom("E", a, n0), instance.NewAtom("F", n0, n1), instance.NewAtom("E", n1, n2)}
	refuted := []instance.Atom{instance.NewAtom("E", n0, n1), instance.NewAtom("F", n0, n2)}
	if PrecheckRefute(open, to) || !PrecheckRefute(refuted, to) {
		t.Fatal("unexpected verdicts")
	}
	for name, atoms := range map[string][]instance.Atom{"open": open, "refuted": refuted} {
		if avg := testing.AllocsPerRun(50, func() { PrecheckRefute(atoms, to) }); avg != 0 {
			t.Errorf("%s: PrecheckRefute allocates %.0f objects per call", name, avg)
		}
	}
}
