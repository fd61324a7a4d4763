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

// A random add / mark / add / Rollback sequence restores the content, the
// domain and the position indexes the instance had at the mark; clones
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
	ins.EachAddedBetween(m0, m1, func(a Atom) bool {
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
