package instance

// Property test for the columnar storage: across randomized sequences of
// Add/Remove/Clone/Map/ReplaceValue the instance must stay consistent with a
// naive tuple-set model — same membership, same per-position indexes, same
// deterministic enumeration order, and clones must be fully independent of
// their parent. Run under -race in CI: clone sharing (columns and posting
// lists are shared copy-on-remove) is exactly the kind of aliasing a data
// race or index-desync bug would hide in.

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// tupleModel is the reference implementation: a set of encoded atoms plus
// the insertion order per relation.
type tupleModel struct {
	set   map[string]bool
	order map[string][]Atom // per relation, insertion order, live only
}

func newTupleModel() *tupleModel {
	return &tupleModel{set: make(map[string]bool), order: make(map[string][]Atom)}
}

func encAtom(a Atom) string { return fmt.Sprint(a.Rel, a.Args) }

func (m *tupleModel) add(a Atom) bool {
	k := encAtom(a)
	if m.set[k] {
		return false
	}
	m.set[k] = true
	args := append([]Value(nil), a.Args...)
	m.order[a.Rel] = append(m.order[a.Rel], Atom{Rel: a.Rel, Args: args})
	return true
}

func (m *tupleModel) remove(a Atom) bool {
	k := encAtom(a)
	if !m.set[k] {
		return false
	}
	delete(m.set, k)
	ord := m.order[a.Rel]
	for i := range ord {
		if encAtom(ord[i]) == k {
			m.order[a.Rel] = append(ord[:i:i], ord[i+1:]...)
			break
		}
	}
	return true
}

func (m *tupleModel) clone() *tupleModel {
	c := newTupleModel()
	for k := range m.set {
		c.set[k] = true
	}
	for rel, ord := range m.order {
		c.order[rel] = append([]Atom(nil), ord...)
	}
	return c
}

// atoms returns the model's atoms in the instance's contract order:
// relations sorted by name, tuples in insertion order.
func (m *tupleModel) atoms() []Atom {
	rels := make([]string, 0, len(m.order))
	for rel, ord := range m.order {
		if len(ord) > 0 {
			rels = append(rels, rel)
		}
	}
	sort.Strings(rels)
	var out []Atom
	for _, rel := range rels {
		out = append(out, m.order[rel]...)
	}
	return out
}

func (m *tupleModel) mapValues(h map[Value]Value) *tupleModel {
	c := newTupleModel()
	for _, a := range m.atoms() {
		args := make([]Value, len(a.Args))
		for i, v := range a.Args {
			if w, ok := h[v]; ok {
				args[i] = w
			} else {
				args[i] = v
			}
		}
		c.add(Atom{Rel: a.Rel, Args: args})
	}
	return c
}

// replaceValue mirrors Instance.ReplaceValue's order contract: per relation,
// untouched tuples keep their positions and rewritten ones are re-inserted
// after them (in their original relative order), deduplicating on collision.
func (m *tupleModel) replaceValue(old, new Value) *tupleModel {
	if old == new {
		return m // ReplaceValue is a no-op then: nothing is rewritten or moved
	}
	c := newTupleModel()
	rewrite := func(a Atom) (Atom, bool) {
		hit := false
		args := append([]Value(nil), a.Args...)
		for i, v := range args {
			if v == old {
				args[i] = new
				hit = true
			}
		}
		return Atom{Rel: a.Rel, Args: args}, hit
	}
	for _, ord := range m.order {
		var touched []Atom
		for _, a := range ord {
			if b, hit := rewrite(a); hit {
				touched = append(touched, b)
			} else {
				c.add(a)
			}
		}
		for _, b := range touched {
			c.add(b)
		}
	}
	return c
}

// checkConsistent verifies every queryable surface of ins against the model:
// atom enumeration (order included), membership, lengths, per-position
// indexes and the Rel handle's postings.
func checkConsistent(t *testing.T, ins *Instance, m *tupleModel, tag string) {
	t.Helper()
	want := m.atoms()
	got := ins.Atoms()
	if len(got) != len(want) {
		t.Fatalf("%s: Atoms() has %d atoms, model %d", tag, len(got), len(want))
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			t.Fatalf("%s: Atoms()[%d] = %v, model %v (order contract broken)\ngot:  %v\nwant: %v", tag, i, got[i], want[i], got, want)
		}
	}
	if ins.Len() != len(want) {
		t.Fatalf("%s: Len() = %d, model %d", tag, ins.Len(), len(want))
	}
	for _, a := range want {
		if !ins.Has(a) {
			t.Fatalf("%s: Has(%v) = false for a model atom", tag, a)
		}
	}

	// Per-relation, per-position indexes against model counts.
	type relPos struct {
		rel string
		pos int
	}
	counts := make(map[relPos]map[Value]int)
	perRel := make(map[string]int)
	for _, a := range want {
		perRel[a.Rel]++
		for i, v := range a.Args {
			rp := relPos{a.Rel, i}
			if counts[rp] == nil {
				counts[rp] = make(map[Value]int)
			}
			counts[rp][v]++
		}
	}
	for rel, n := range perRel {
		if ins.RelLen(rel) != n {
			t.Fatalf("%s: RelLen(%s) = %d, model %d", tag, rel, ins.RelLen(rel), n)
		}
	}
	for rp, byVal := range counts {
		if d := ins.PosDistinct(rp.rel, rp.pos); d != len(byVal) {
			t.Fatalf("%s: PosDistinct(%s,%d) = %d, model %d", tag, rp.rel, rp.pos, d, len(byVal))
		}
		seen := 0
		ins.EachPosValue(rp.rel, rp.pos, func(v Value, count int) bool {
			seen++
			if byVal[v] != count {
				t.Fatalf("%s: EachPosValue(%s,%d) count for %v = %d, model %d", tag, rp.rel, rp.pos, v, count, byVal[v])
			}
			return true
		})
		if seen != len(byVal) {
			t.Fatalf("%s: EachPosValue(%s,%d) visited %d values, model %d", tag, rp.rel, rp.pos, seen, len(byVal))
		}
		for v, count := range byVal {
			if !ins.PosHasValue(rp.rel, rp.pos, v) {
				t.Fatalf("%s: PosHasValue(%s,%d,%v) = false, model count %d", tag, rp.rel, rp.pos, v, count)
			}
		}
	}

	// The Rel handle: postings must point at live rows carrying the value,
	// exactly count-many of them, in ascending row order.
	for rel, n := range perRel {
		arity := ins.Arity(rel)
		r, ok := ins.Relation(rel, arity)
		if !ok {
			t.Fatalf("%s: Relation(%s,%d) missing with %d model rows", tag, rel, arity, n)
		}
		cols := r.Cols()
		for pos := 0; pos < arity; pos++ {
			for v, count := range counts[relPos{rel, pos}] {
				rows := r.Postings(pos, v)
				if len(rows) != count {
					t.Fatalf("%s: Postings(%s,%d,%v) has %d rows, model %d", tag, rel, pos, v, len(rows), count)
				}
				for i, row := range rows {
					if i > 0 && rows[i-1] >= row {
						t.Fatalf("%s: Postings(%s,%d,%v) not ascending: %v", tag, rel, pos, v, rows)
					}
					if !r.Alive(row) {
						t.Fatalf("%s: Postings(%s,%d,%v) row %d is dead", tag, rel, pos, v, row)
					}
					if cols[pos][row] != v {
						t.Fatalf("%s: Postings(%s,%d,%v) row %d holds %v", tag, rel, pos, v, row, cols[pos][row])
					}
				}
			}
		}
	}
}

func randValue(rng *rand.Rand, consts []Value) Value {
	if rng.Intn(3) == 0 {
		return Null(int64(rng.Intn(6)))
	}
	return consts[rng.Intn(len(consts))]
}

func randAtom(rng *rand.Rand, consts []Value) Atom {
	rels := []struct {
		name  string
		arity int
	}{{"R", 2}, {"S", 3}, {"T", 1}, {"U", 2}}
	r := rels[rng.Intn(len(rels))]
	args := make([]Value, r.arity)
	for i := range args {
		args[i] = randValue(rng, consts)
	}
	return Atom{Rel: r.name, Args: args}
}

func TestPropertyColumnarMatchesTupleModel(t *testing.T) {
	consts := make([]Value, 8)
	for i := range consts {
		consts[i] = Const(fmt.Sprintf("c%d", i))
	}
	for seed := int64(0); seed < 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			ins := New()
			model := newTupleModel()
			if seed%2 == 1 {
				// Start from a bulk build.
				atoms := randBulkAtoms(rng, consts, 40)
				ins = FromAtoms(atoms...)
				for _, a := range atoms {
					model.add(a)
				}
			}
			// Frozen clones: mutations of ins must never leak into them.
			type snapshot struct {
				ins   *Instance
				model *tupleModel
			}
			var frozen []snapshot

			for step := 0; step < 400; step++ {
				op := rng.Intn(10)
				tag := fmt.Sprintf("seed %d step %d op %d", seed, step, op)
				switch {
				case op < 5: // Add
					a := randAtom(rng, consts)
					if got, want := ins.Add(a), model.add(a); got != want {
						t.Fatalf("%s: Add(%v) = %v, model %v", tag, a, got, want)
					}
				case op < 7: // Remove: half the time an existing atom
					var a Atom
					if atoms := model.atoms(); len(atoms) > 0 && rng.Intn(2) == 0 {
						a = atoms[rng.Intn(len(atoms))]
					} else {
						a = randAtom(rng, consts)
					}
					if got, want := ins.Remove(a), model.remove(a); got != want {
						t.Fatalf("%s: Remove(%v) = %v, model %v", tag, a, got, want)
					}
				case op < 8: // Clone: freeze the pair, keep mutating the parent
					frozen = append(frozen, snapshot{ins: ins.Clone(), model: model.clone()})
					if rng.Intn(2) == 0 {
						// Sometimes continue on the clone instead, so both
						// directions of the sharing get exercised.
						frozen[len(frozen)-1] = snapshot{ins: ins, model: model}
						ins, model = ins.Clone(), model.clone()
					}
				case op < 9: // Map under a random value substitution
					h := make(map[Value]Value)
					for _, v := range ins.Dom() {
						if rng.Intn(3) == 0 {
							h[v] = randValue(rng, consts)
						}
					}
					ins, model = ins.Map(h), model.mapValues(h)
				default: // ReplaceValue, in place
					dom := ins.Dom()
					if len(dom) == 0 {
						continue
					}
					old := dom[rng.Intn(len(dom))]
					new := randValue(rng, consts)
					ins.ReplaceValue(old, new)
					model = model.replaceValue(old, new)
				}
				checkConsistent(t, ins, model, tag)
			}
			checkConsistent(t, ins, model, "final")
			for i, s := range frozen {
				checkConsistent(t, s.ins, s.model, fmt.Sprintf("frozen clone %d", i))
			}
		})
	}
}
