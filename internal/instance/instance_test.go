package instance

import (
	"testing"
	"testing/quick"
)

func TestValueKinds(t *testing.T) {
	a := Const("a")
	if !a.IsConst() || a.IsNull() {
		t.Fatalf("Const(a) should be a constant")
	}
	n := Null(3)
	if !n.IsNull() || n.IsConst() {
		t.Fatalf("Null(3) should be a null")
	}
	if n.NullLabel() != 3 {
		t.Fatalf("NullLabel = %d, want 3", n.NullLabel())
	}
	if got := n.String(); got != "_3" {
		t.Fatalf("null String = %q, want _3", got)
	}
	if got := a.String(); got != "a" {
		t.Fatalf("const String = %q, want a", got)
	}
}

func TestConstInterning(t *testing.T) {
	if Const("x") != Const("x") {
		t.Fatal("same name must intern to same value")
	}
	if Const("x") == Const("y") {
		t.Fatal("distinct names must intern to distinct values")
	}
	if ConstName(Const("hello")) != "hello" {
		t.Fatal("ConstName must invert Const")
	}
}

func TestNullSource(t *testing.T) {
	s := NewNullSource(5)
	if got := s.Fresh(); got != Null(5) {
		t.Fatalf("first fresh = %v, want _5", got)
	}
	if got := s.Fresh(); got != Null(6) {
		t.Fatalf("second fresh = %v, want _6", got)
	}
}

func TestLessOrder(t *testing.T) {
	a, b := Const("a"), Const("b")
	n0, n1 := Null(0), Null(1)
	cases := []struct {
		x, y Value
		want bool
	}{
		{a, b, true}, {b, a, false},
		{a, n0, true}, {n0, a, false},
		{n0, n1, true}, {n1, n0, false},
		{a, a, false},
	}
	for _, c := range cases {
		if got := Less(c.x, c.y); got != c.want {
			t.Errorf("Less(%v,%v) = %v, want %v", c.x, c.y, got, c.want)
		}
	}
}

func TestSchema(t *testing.T) {
	s := NewSchema("E/2", "F/3")
	if !s.Has("E") || s["F"] != 3 {
		t.Fatal("schema parse failed")
	}
	u := s.Union(NewSchema("G/1"))
	if len(u) != 3 {
		t.Fatalf("union size = %d", len(u))
	}
	if !s.Disjoint(NewSchema("H/1")) {
		t.Fatal("Disjoint false negative")
	}
	if s.Disjoint(NewSchema("E/2")) {
		t.Fatal("Disjoint false positive")
	}
	if got := s.String(); got != "E/2, F/3" {
		t.Fatalf("String = %q", got)
	}
}

func TestInstanceAddHasLen(t *testing.T) {
	ins := New()
	a := NewAtom("E", Const("a"), Const("b"))
	if !ins.Add(a) {
		t.Fatal("first Add should report new")
	}
	if ins.Add(a) {
		t.Fatal("duplicate Add should report not-new")
	}
	if !ins.Has(a) {
		t.Fatal("Has should find added atom")
	}
	if ins.Has(NewAtom("E", Const("b"), Const("a"))) {
		t.Fatal("Has found absent atom")
	}
	if ins.Len() != 1 {
		t.Fatalf("Len = %d, want 1", ins.Len())
	}
}

func TestInstanceDomNullsConsts(t *testing.T) {
	ins := FromAtoms(
		NewAtom("E", Const("a"), Null(1)),
		NewAtom("F", Null(0), Const("b")),
	)
	dom := ins.Dom()
	if len(dom) != 4 {
		t.Fatalf("|Dom| = %d, want 4", len(dom))
	}
	if len(ins.Nulls()) != 2 || len(ins.Consts()) != 2 {
		t.Fatalf("Nulls/Consts = %v/%v", ins.Nulls(), ins.Consts())
	}
	if !ins.HasNulls() {
		t.Fatal("HasNulls should be true")
	}
	if ins.MaxNullLabel() != 1 {
		t.Fatalf("MaxNullLabel = %d, want 1", ins.MaxNullLabel())
	}
}

func TestInstanceCloneIndependence(t *testing.T) {
	ins := FromAtoms(NewAtom("E", Const("a"), Const("b")))
	cp := ins.Clone()
	cp.Add(NewAtom("E", Const("b"), Const("c")))
	if ins.Len() != 1 || cp.Len() != 2 {
		t.Fatal("Clone must be independent")
	}
	if !ins.Equal(ins.Clone()) {
		t.Fatal("instance must equal its clone")
	}
}

func TestInstanceReduct(t *testing.T) {
	ins := FromAtoms(
		NewAtom("E", Const("a"), Const("b")),
		NewAtom("M", Const("a"), Const("b")),
	)
	red := ins.Reduct(NewSchema("M/2"))
	if red.Len() != 1 || !red.Has(NewAtom("M", Const("a"), Const("b"))) {
		t.Fatalf("Reduct = %v", red)
	}
}

func TestInstanceMap(t *testing.T) {
	ins := FromAtoms(
		NewAtom("E", Const("a"), Null(0)),
		NewAtom("E", Const("a"), Null(1)),
	)
	img := ins.Map(map[Value]Value{Null(0): Const("c"), Null(1): Const("c")})
	if img.Len() != 1 {
		t.Fatalf("identifying map should merge tuples, got %v", img)
	}
	if !img.Has(NewAtom("E", Const("a"), Const("c"))) {
		t.Fatalf("mapped instance = %v", img)
	}
}

func TestReplaceValue(t *testing.T) {
	ins := FromAtoms(
		NewAtom("F", Const("a"), Null(3)),
		NewAtom("F", Const("a"), Null(4)),
		NewAtom("G", Null(3), Null(4)),
	)
	ins.ReplaceValue(Null(4), Null(3))
	if ins.Len() != 2 {
		t.Fatalf("after replace Len = %d, want 2 (%v)", ins.Len(), ins)
	}
	if !ins.Has(NewAtom("G", Null(3), Null(3))) {
		t.Fatalf("replace missed G: %v", ins)
	}
}

func TestRemove(t *testing.T) {
	a := NewAtom("E", Const("a"), Const("b"))
	b := NewAtom("E", Const("b"), Const("c"))
	ins := FromAtoms(a, b)
	if !ins.Remove(a) {
		t.Fatal("Remove should report present atom")
	}
	if ins.Remove(a) {
		t.Fatal("Remove should report absent atom")
	}
	if ins.Len() != 1 || !ins.Has(b) {
		t.Fatalf("after remove: %v", ins)
	}
	// Index must still work after removal.
	found := 0
	ins.MatchTuples("E", []Value{Const("b"), 0}, []bool{true, false}, func([]Value) bool {
		found++
		return true
	})
	if found != 1 {
		t.Fatalf("index broken after Remove: found %d", found)
	}
}

func TestMatchTuples(t *testing.T) {
	ins := FromAtoms(
		NewAtom("E", Const("a"), Const("b")),
		NewAtom("E", Const("a"), Const("c")),
		NewAtom("E", Const("b"), Const("c")),
	)
	var got []string
	ins.MatchTuples("E", []Value{Const("a"), 0}, []bool{true, false}, func(t []Value) bool {
		got = append(got, t[1].String())
		return true
	})
	if len(got) != 2 {
		t.Fatalf("bound match found %d tuples, want 2", len(got))
	}
	// Unbound pattern scans everything.
	n := 0
	ins.MatchTuples("E", []Value{0, 0}, []bool{false, false}, func([]Value) bool { n++; return true })
	if n != 3 {
		t.Fatalf("unbound match found %d, want 3", n)
	}
	// Early stop.
	n = 0
	ins.MatchTuples("E", []Value{0, 0}, []bool{false, false}, func([]Value) bool { n++; return false })
	if n != 1 {
		t.Fatalf("early stop failed: %d", n)
	}
}

func TestUnionAndEqual(t *testing.T) {
	a := FromAtoms(NewAtom("E", Const("a"), Const("b")))
	b := FromAtoms(NewAtom("F", Const("c")))
	u := Union(a, b)
	if u.Len() != 2 {
		t.Fatalf("union Len = %d", u.Len())
	}
	if a.Equal(b) {
		t.Fatal("distinct instances reported equal")
	}
	if !u.Equal(Union(b, a)) {
		t.Fatal("union should commute")
	}
}

func TestAtomString(t *testing.T) {
	a := NewAtom("R", Const("a"), Null(0))
	if got := a.String(); got != "R(a,_0)" {
		t.Fatalf("Atom.String = %q", got)
	}
}

// Property: Add is idempotent and Len counts distinct atoms.
func TestQuickAddIdempotent(t *testing.T) {
	f := func(labels []uint8) bool {
		ins := New()
		seen := make(map[string]bool)
		for _, l := range labels {
			a := NewAtom("R", Null(int64(l%7)), Null(int64(l/7%7)))
			if isNew := ins.Add(a); isNew == seen[a.String()] {
				return false
			}
			seen[a.String()] = true
		}
		return ins.Len() == len(seen)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: Map with an injective renaming preserves atom count.
func TestQuickMapInjectivePreservesLen(t *testing.T) {
	f := func(pairs []uint8) bool {
		ins := New()
		for i := 0; i+1 < len(pairs); i += 2 {
			ins.Add(NewAtom("R", Null(int64(pairs[i]%5)), Null(int64(pairs[i+1]%5))))
		}
		shift := make(map[Value]Value)
		for _, v := range ins.Nulls() {
			shift[v] = Null(v.NullLabel() + 100)
		}
		return ins.Map(shift).Len() == ins.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDiff(t *testing.T) {
	a := FromAtoms(NewAtom("E", Const("a"), Const("b")), NewAtom("F", Const("c")))
	b := FromAtoms(NewAtom("E", Const("a"), Const("b")), NewAtom("G", Const("d")))
	onlyA, onlyB := Diff(a, b)
	if len(onlyA) != 1 || onlyA[0].Rel != "F" {
		t.Fatalf("onlyA = %v", onlyA)
	}
	if len(onlyB) != 1 || onlyB[0].Rel != "G" {
		t.Fatalf("onlyB = %v", onlyB)
	}
	if x, y := Diff(a, a); x != nil || y != nil {
		t.Fatal("self-diff must be empty")
	}
}
