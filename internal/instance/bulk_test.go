package instance

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// randBulkAtoms returns n random atoms over the randAtom relations with
// repeats and interleaved relations, plus an arity-0 relation.
func randBulkAtoms(rng *rand.Rand, consts []Value, n int) []Atom {
	atoms := make([]Atom, 0, n)
	for i := 0; i < n; i++ {
		switch {
		case len(atoms) > 0 && rng.Intn(5) == 0:
			atoms = append(atoms, atoms[rng.Intn(len(atoms))])
		case rng.Intn(20) == 0:
			atoms = append(atoms, Atom{Rel: "Z"})
		default:
			atoms = append(atoms, randAtom(rng, consts))
		}
	}
	return atoms
}

// requireSameBuild fails unless bulk and added (built by Add) agree on
// every observable: atom order, content key, domain, version, relation
// order, posting lists and insertion log.
func requireSameBuild(t *testing.T, bulk, added *Instance, tag string) {
	t.Helper()
	if got, want := bulk.Atoms(), added.Atoms(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Atoms() = %v, Add-built %v", tag, got, want)
	}
	if bulk.ContentKey() != added.ContentKey() {
		t.Fatalf("%s: ContentKey differs", tag)
	}
	if got, want := bulk.Dom(), added.Dom(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Dom() = %v, Add-built %v", tag, got, want)
	}
	if bulk.Version() != added.Version() {
		t.Fatalf("%s: Version() = %d, Add-built %d", tag, bulk.Version(), added.Version())
	}
	if !reflect.DeepEqual(bulk.names, added.names) {
		t.Fatalf("%s: relation names %v, Add-built %v", tag, bulk.names, added.names)
	}
	for i, r := range added.byID {
		b := bulk.byID[i]
		if b.name != r.name || b.id != r.id || b.nRows != r.nRows || b.nLive != r.nLive {
			t.Fatalf("%s: relation %d is %s/%d with %d rows, Add-built %s/%d with %d", tag, i, b.name, b.id, b.nRows, r.name, r.id, r.nRows)
		}
		if !reflect.DeepEqual(b.cols, r.cols) || !reflect.DeepEqual(b.live, r.live) {
			t.Fatalf("%s: relation %s storage differs", tag, r.name)
		}
		if !reflect.DeepEqual(b.byKey, r.byKey) || !reflect.DeepEqual(b.byPos, r.byPos) {
			t.Fatalf("%s: relation %s indexes differ", tag, r.name)
		}
	}
	if !reflect.DeepEqual(bulk.seq, added.seq) {
		t.Fatalf("%s: insertion log %v, Add-built %v", tag, bulk.seq, added.seq)
	}
	if bulk.Mark() != added.Mark() {
		t.Fatalf("%s: Mark() = %v, Add-built %v", tag, bulk.Mark(), added.Mark())
	}
}

// FromAtoms builds what adding the atoms one by one builds, and the two
// stay equal through the same random Add, Remove, Rollback and Clone
// operations afterwards; clones of the bulk build stay intact throughout.
func TestFromAtomsMatchesAdd(t *testing.T) {
	consts := make([]Value, 6)
	for i := range consts {
		consts[i] = Const(fmt.Sprintf("c%d", i))
	}
	if FromAtoms().Len() != 0 || FromAtoms().Mark() != New().Mark() {
		t.Fatal("FromAtoms() is not empty")
	}
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		atoms := randBulkAtoms(rng, consts, 1+rng.Intn(120))
		bulk, added := FromAtoms(atoms...), New()
		model := newTupleModel()
		for _, a := range atoms {
			added.Add(a)
			model.add(a)
		}
		requireSameBuild(t, bulk, added, fmt.Sprintf("seed %d", seed))
		checkConsistent(t, bulk, model, fmt.Sprintf("seed %d bulk", seed))
		type frozen struct {
			ins   *Instance
			model *tupleModel
		}
		var clones []frozen
		marks := []Mark{{}, bulk.Mark()}
		for step := 0; step < 60; step++ {
			tag := fmt.Sprintf("seed %d step %d", seed, step)
			switch op := rng.Intn(10); {
			case op < 5:
				a := randAtom(rng, consts)
				if bulk.Add(a) != added.Add(a) {
					t.Fatalf("%s: Add(%v) disagrees", tag, a)
				}
				model.add(a)
			case op < 6:
				marks = append(marks, bulk.Mark())
			case op < 8:
				m := marks[rng.Intn(len(marks))]
				if !bulk.MarkValid(m) {
					continue // a rollback past it
				}
				var undone []Atom
				bulk.EachAddedBetween(m, bulk.Mark(), nil, func(a Atom) bool {
					undone = append(undone, NewAtom(a.Rel, a.Args...))
					return true
				})
				bulk.Rollback(m)
				added.Rollback(m)
				for _, a := range undone {
					model.remove(a)
				}
			case op < 9:
				clones = append(clones, frozen{bulk.Clone(), model.clone()})
			default:
				var a Atom
				if live := model.atoms(); len(live) > 0 {
					a = live[rng.Intn(len(live))]
				}
				if a.Rel == "" {
					continue
				}
				if bulk.Remove(a) != added.Remove(a) {
					t.Fatalf("%s: Remove(%v) disagrees", tag, a)
				}
				model.remove(a)
				marks = []Mark{bulk.Mark()} // the removal invalidated the others
			}
			checkConsistent(t, bulk, model, tag)
			if got, want := bulk.Atoms(), added.Atoms(); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: Atoms() = %v, Add-built %v", tag, got, want)
			}
		}
		for i, c := range clones {
			checkConsistent(t, c.ins, c.model, fmt.Sprintf("seed %d clone %d", seed, i))
		}
	}
}

// Map builds its image in bulk, as adding the image atoms in Atoms order
// would.
func TestMapMatchesAdd(t *testing.T) {
	consts := []Value{Const("a"), Const("b"), Const("c")}
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ins := FromAtoms(randBulkAtoms(rng, consts, 40)...)
		h := map[Value]Value{}
		for _, v := range ins.Dom() {
			if rng.Intn(2) == 0 {
				h[v] = randValue(rng, consts)
			}
		}
		want := New()
		for _, a := range ins.Atoms() {
			for i, v := range a.Args {
				if w, ok := h[v]; ok {
					a.Args[i] = w
				}
			}
			want.Add(a)
		}
		requireSameBuild(t, ins.Map(h), want, fmt.Sprintf("seed %d", seed))
	}
}
