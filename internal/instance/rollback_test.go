package instance

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// posCounts returns, per relation and position, the EachPosValue counts.
func posCounts(ins *Instance) map[string]map[Value]int {
	out := make(map[string]map[Value]int)
	for _, rel := range ins.Relations() {
		for p := 0; p < ins.Arity(rel); p++ {
			m := make(map[Value]int)
			ins.EachPosValue(rel, p, func(v Value, count int) bool {
				m[v] = count
				return true
			})
			out[fmt.Sprintf("%s/%d", rel, p)] = m
		}
	}
	return out
}

// A random add / mark / add / Rollback sequence, on an instance built by
// Add or (odd seeds) by FromAtoms, restores the content, the domain and
// the position indexes the instance had at the mark; clones
// taken between the mark and the rollback keep theirs while the
// rolled-back instance re-adds atoms into the same relations.
func TestRollbackRestoresMark(t *testing.T) {
	consts := make([]Value, 6)
	for i := range consts {
		consts[i] = Const(fmt.Sprintf("c%d", i))
	}
	for seed := int64(0); seed < 16; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ins := New()
		model := newTupleModel()
		if seed%2 == 1 {
			// Start from a bulk build.
			atoms := randBulkAtoms(rng, consts, 30)
			ins = FromAtoms(atoms...)
			for _, a := range atoms {
				model.add(a)
			}
		}
		for i := 0; i < 30; i++ {
			a := randAtom(rng, consts)
			ins.Add(a)
			model.add(a)
		}
		// Removals before the mark leave dead rows behind it.
		for i := 0; i < 5; i++ {
			a := randAtom(rng, consts)
			ins.Remove(a)
			model.remove(a)
		}
		for round := 0; round < 4; round++ {
			tag := fmt.Sprintf("seed %d round %d", seed, round)
			m := ins.Mark()
			key, dom, counts := ins.ContentKey(), ins.Dom(), posCounts(ins)
			type frozen struct {
				ins   *Instance
				model *tupleModel
			}
			var clones []frozen
			added := model.clone()
			for i := 0; i < 1+rng.Intn(40); i++ {
				a := randAtom(rng, consts)
				if rng.Intn(8) == 0 {
					// A relation the instance has not seen yet.
					a = Atom{Rel: fmt.Sprintf("N%d_%d", round, len(a.Args)), Args: a.Args}
				}
				ins.Add(a)
				added.add(a)
				if rng.Intn(10) == 0 {
					clones = append(clones, frozen{ins.Clone(), added.clone()})
				}
			}
			ins.Rollback(m)
			if got := ins.ContentKey(); got != key {
				t.Fatalf("%s: ContentKey changed across the rollback", tag)
			}
			if got := ins.Dom(); !reflect.DeepEqual(got, dom) {
				t.Fatalf("%s: Dom = %v, want %v", tag, got, dom)
			}
			if got := posCounts(ins); !reflect.DeepEqual(got, counts) {
				t.Fatalf("%s: position counts = %v, want %v", tag, got, counts)
			}
			checkConsistent(t, ins, model, tag)
			// Re-add into the slots the rollback freed.
			for i := 0; i < 20; i++ {
				a := randAtom(rng, consts)
				ins.Add(a)
				model.add(a)
			}
			checkConsistent(t, ins, model, tag+" re-added")
			for i, c := range clones {
				checkConsistent(t, c.ins, c.model, fmt.Sprintf("%s clone %d", tag, i))
			}
		}
	}
}

// Marks taken at or before the rollback mark stay valid and keep
// describing the same deltas.
func TestRollbackKeepsEarlierMarks(t *testing.T) {
	ins := New()
	ins.Add(NewAtom("R", Const("a"), Const("b")))
	m0 := ins.Mark()
	ins.Add(NewAtom("R", Const("b"), Const("c")))
	ins.Add(NewAtom("S", Const("c")))
	m1 := ins.Mark()
	ins.Add(NewAtom("R", Const("c"), Const("d")))
	ins.Add(NewAtom("T", Null(0)))
	ins.Rollback(m1)
	if !ins.MarkValid(m0) || !ins.MarkValid(m1) {
		t.Fatal("a mark at or before the rollback mark was invalidated")
	}
	var delta []string
	ins.EachAddedBetween(m0, m1, nil, func(a Atom) bool {
		delta = append(delta, a.String())
		return true
	})
	if want := []string{"R(b,c)", "S(c)"}; !reflect.DeepEqual(delta, want) {
		t.Fatalf("delta m0..m1 = %v, want %v", delta, want)
	}
	if ins.Mark() != m1 {
		t.Fatalf("Mark after rollback = %v, want %v", ins.Mark(), m1)
	}
	ins.Rollback(m0)
	if got := ins.String(); got != "{R(a,b)}" {
		t.Fatalf("after the second rollback: %s", got)
	}
}

// A clone taken before the rollback shares column and posting backings
// with the instance; atoms re-added after the rollback must not show up in
// it.
func TestRollbackLeavesEarlierCloneIntact(t *testing.T) {
	ins := New()
	ins.Add(NewAtom("R", Const("a"), Const("b")))
	m := ins.Mark()
	ins.Add(NewAtom("R", Const("a"), Const("c")))
	ins.Add(NewAtom("R", Const("a"), Const("d")))
	c := ins.Clone()
	want := c.String()
	ins.Rollback(m)
	ins.Add(NewAtom("R", Const("a"), Const("x")))
	ins.Add(NewAtom("R", Const("a"), Const("y")))
	if got := c.String(); got != want {
		t.Fatalf("clone changed to %s, want %s", got, want)
	}
	h, _ := c.Relation("R", 2)
	if rows := h.Postings(0, Const("a")); len(rows) != 3 {
		t.Fatalf("clone postings for a = %v, want 3 rows", rows)
	}
	for _, v := range []Value{Const("x"), Const("y")} {
		if c.PosHasValue("R", 1, v) {
			t.Fatalf("clone sees re-added value %v", v)
		}
	}
	if got := ins.String(); got != "{R(a,b), R(a,x), R(a,y)}" {
		t.Fatalf("rolled-back instance = %s", got)
	}
}

// Rollback across a removal is refused: the log's row ids no longer
// identify the added atoms.
func TestRollbackAcrossRemoveRefused(t *testing.T) {
	ins := New()
	ins.Add(NewAtom("R", Const("a"), Const("b")))
	m := ins.Mark()
	ins.Add(NewAtom("R", Const("b"), Const("c")))
	ins.Remove(NewAtom("R", Const("a"), Const("b")))
	defer func() {
		if recover() == nil {
			t.Fatal("Rollback across a Remove did not panic")
		}
	}()
	ins.Rollback(m)
}

// Rollback keeps capacity above the clone watermark and trims it below: a
// clone taken mid-way, while the parent's backings have room to spare,
// stays intact while the parent rolls back past its rows and re-adds, both
// above the clone's rows (in place, into the kept capacity) and below them
// (into reallocated backings).
func TestRollbackAroundCloneWatermark(t *testing.T) {
	a := Const("a")
	val := func(i int) Value { return Const(fmt.Sprintf("w%d", i)) }
	ins := New()
	ins.Add(NewAtom("R", a, val(0)))
	m0 := ins.Mark()
	ins.Add(NewAtom("R", a, val(1)))
	ins.Add(NewAtom("R", a, val(2)))
	// Three rows in backings with room to spare: the clone shares rows
	// 0..2 and the parent's next row lands in the same arrays.
	if r := ins.rels["R"]; cap(r.cols[1]) == 3 || cap(r.byPos[0][a]) == 3 {
		t.Fatal("precondition: the backings have no spare capacity")
	}
	c := ins.Clone()
	want := c.String()
	check := func(step string) {
		t.Helper()
		if got := c.String(); got != want {
			t.Fatalf("%s: clone changed to %s, want %s", step, got, want)
		}
		h, _ := c.Relation("R", 2)
		if rows := h.Postings(0, a); !reflect.DeepEqual(rows, []int32{0, 1, 2}) {
			t.Fatalf("%s: clone postings for a = %v, want rows 0..2", step, rows)
		}
		if col := h.Cols()[1]; !reflect.DeepEqual(col, []Value{val(0), val(1), val(2)}) {
			t.Fatalf("%s: clone column = %v", step, col)
		}
	}
	// Above the watermark: row 3 is the parent's own, written in place.
	m1 := ins.Mark()
	for round := 0; round < 2; round++ {
		ins.Add(NewAtom("R", a, val(10+round)))
		check(fmt.Sprintf("above, round %d", round))
		ins.Rollback(m1)
		check(fmt.Sprintf("above, round %d rolled back", round))
	}
	// Below it: rows 1 and 2 are the clone's too.
	ins.Rollback(m0)
	for i := 0; i < 3; i++ {
		ins.Add(NewAtom("R", a, val(100+i)))
	}
	check("below, re-added")
	if got := ins.RelLen("R"); got != 4 {
		t.Fatalf("parent holds %d atoms, want 4", got)
	}
	for i := 1; i <= 2; i++ {
		if ins.Has(NewAtom("R", a, val(i))) {
			t.Fatalf("parent still holds R(a,w%d) after the rollback", i)
		}
	}
}

// On an instance no clone shares, undoing an Add and redoing it reuses
// the column and posting-list capacity: each Add allocates only its
// tuple's key in the duplicate index.
func TestRollbackKeepsCapacityWithoutClones(t *testing.T) {
	a, b, c, d := Const("a"), Const("b"), Const("c"), Const("d")
	ins := FromAtoms(NewAtom("R", a, b), NewAtom("R", c, d))
	m := ins.Mark()
	// Every value already occurs at its position before the mark, so no
	// posting list is created or emptied.
	atoms := []Atom{NewAtom("R", a, d), NewAtom("R", c, b)}
	cycle := func() {
		ins.Add(atoms[0])
		ins.Add(atoms[1])
		ins.Rollback(m)
	}
	cycle()
	if avg := testing.AllocsPerRun(100, cycle); avg > 2 {
		t.Fatalf("two Adds and a Rollback allocate %.0f objects, want at most 2 (the keys)", avg)
	}
	if got := ins.String(); got != "{R(a,b), R(c,d)}" {
		t.Fatalf("after the cycles: %s", got)
	}
}
