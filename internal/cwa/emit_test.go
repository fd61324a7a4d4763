package cwa

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/hom"
	"repro/internal/instance"
)

// randState returns a random instance over three relations whose nulls
// have labels below nulls, built by adds, a rollback and removals so that
// some rows are dead, with constants that include one named like a null.
func randState(rng *rand.Rand, nulls int) *instance.Instance {
	consts := []instance.Value{instance.Const("a"), instance.Const("b"), instance.Const("_0")}
	val := func() instance.Value {
		if rng.Intn(2) == 0 {
			return instance.Null(int64(rng.Intn(nulls)))
		}
		return consts[rng.Intn(len(consts))]
	}
	atom := func() instance.Atom {
		switch rng.Intn(3) {
		case 0:
			return instance.NewAtom("E", val(), val())
		case 1:
			return instance.NewAtom("F", val())
		}
		return instance.NewAtom("G", val(), val(), val())
	}
	t := instance.New()
	for i := 0; i < 3+rng.Intn(8); i++ {
		t.Add(atom())
	}
	m := t.Mark()
	for i := 0; i < rng.Intn(4); i++ {
		t.Add(atom())
	}
	t.Rollback(m)
	for i := 0; i < rng.Intn(3); i++ {
		t.Remove(atom())
	}
	return t
}

// relabel returns t with its atoms added in a random order and its nulls
// renamed by a random permutation of the labels below nulls.
func relabel(rng *rand.Rand, t *instance.Instance, nulls int) *instance.Instance {
	perm := rng.Perm(nulls)
	atoms := t.Atoms()
	rng.Shuffle(len(atoms), func(i, j int) { atoms[i], atoms[j] = atoms[j], atoms[i] })
	out := instance.New()
	for _, a := range atoms {
		for i, v := range a.Args {
			if v.IsNull() {
				a.Args[i] = instance.Null(int64(perm[v.NullLabel()]))
			}
		}
		out.Add(a)
	}
	return out
}

// canon.pass renames as hom.CanonicalNullForm does, row order included,
// its rows render to hom.CanonicalNullString, and two states' dedup keys
// are equal exactly when their renamed atom sets are.
func TestCanonPassMatchesCanonicalForm(t *testing.T) {
	const nulls = 4
	var c1, c2 canon
	equalKeys := 0
	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		t1 := randState(rng, nulls)
		var t2 *instance.Instance
		if rng.Intn(2) == 0 {
			t2 = relabel(rng, t1, nulls)
		} else {
			t2 = randState(rng, nulls)
		}
		c1.pass(t1, nulls)
		a1 := c1.atoms()
		if got, want := instance.AtomSetString(a1), hom.CanonicalNullString(t1); got != want {
			t.Fatalf("seed %d: rendered %s, CanonicalNullString %s", seed, got, want)
		}
		if got, want := instance.FromAtoms(a1...).Atoms(), hom.CanonicalNullForm(t1).Atoms(); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: rows %v, CanonicalNullForm %v", seed, got, want)
		}
		c2.pass(t2, nulls)
		same := instance.FromAtoms(a1...).Equal(instance.FromAtoms(c2.atoms()...))
		if keys := string(c1.key) == string(c2.key); keys != same {
			t.Fatalf("seed %d: keys equal %v, renamed sets equal %v:\n%v\n%v", seed, keys, same, t1, t2)
		}
		if same {
			equalKeys++
		}
	}
	if equalKeys < 50 || equalKeys > 350 {
		t.Fatalf("%d of 400 pairs had equal keys; the test needs both outcomes often", equalKeys)
	}
}

// A state holding the constant '_0' and one holding a null in its place
// render the same display key, {E(a,_0)}, but are not isomorphic: emit
// keeps them in separate classes. A repeat with its null renamed stops at
// the dedup key; an isomorphic state whose rows come in another order
// renames its nulls otherwise, joins the class and, rendering smaller,
// becomes its representative.
func TestEmitSeparatesConstantFromNull(t *testing.T) {
	a, c0 := instance.Const("a"), instance.Const("_0")
	n0, n1 := instance.Null(0), instance.Null(1)
	e := &enumerator{}
	emit := func(nextNull int64, atoms ...instance.Atom) {
		e.emit(&walker{cur: instance.FromAtoms(atoms...)}, nextNull)
	}
	emit(0, instance.NewAtom("E", a, c0))
	emit(1, instance.NewAtom("E", a, n0))
	emit(2, instance.NewAtom("E", a, n1))
	emit(2, instance.NewAtom("E", n1, a), instance.NewAtom("E", n0, n1))
	emit(2, instance.NewAtom("E", n0, n1), instance.NewAtom("E", n1, a))
	want := []string{"{E(a,_0)}", "{E(a,_0)}", "{E(_0,_1), E(_1,a)}"}
	if len(e.found) != len(want) {
		t.Fatalf("%d classes, want %d", len(e.found), len(want))
	}
	for i, k := range want {
		if e.found[i].key != k {
			t.Fatalf("class %d has key %s, want %s", i, e.found[i].key, k)
		}
		if got := instance.AtomSetString(e.found[i].atoms); got != k {
			t.Fatalf("class %d's representative renders %s, its key is %s", i, got, k)
		}
	}
	if !e.found[0].atoms[0].Args[1].IsConst() || !e.found[1].atoms[0].Args[1].IsNull() {
		t.Fatalf("class representatives mixed up: %v, %v", e.found[0].atoms, e.found[1].atoms)
	}
	if len(e.seen) != 4 {
		t.Fatalf("%d dedup keys, want 4 (the third state repeats the second)", len(e.seen))
	}
}
