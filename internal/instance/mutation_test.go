package instance

import "testing"

func TestVersionCountsEffectiveChanges(t *testing.T) {
	ins := New()
	if got := ins.Version(); got != 0 {
		t.Fatalf("fresh instance version = %d, want 0", got)
	}
	a := Atom{Rel: "R", Args: []Value{Const("a"), Const("b")}}
	if !ins.Add(a) {
		t.Fatal("Add reported duplicate on fresh instance")
	}
	if got := ins.Version(); got != 1 {
		t.Fatalf("version after insert = %d, want 1", got)
	}
	if ins.Add(a) {
		t.Fatal("duplicate Add reported insertion")
	}
	if got := ins.Version(); got != 1 {
		t.Fatalf("version after duplicate insert = %d, want 1 (no-op must not count)", got)
	}
	if ins.Remove(Atom{Rel: "R", Args: []Value{Const("x"), Const("y")}}) {
		t.Fatal("Remove of absent atom reported success")
	}
	if got := ins.Version(); got != 1 {
		t.Fatalf("version after absent remove = %d, want 1", got)
	}
	if !ins.Remove(a) {
		t.Fatal("Remove of present atom failed")
	}
	if got := ins.Version(); got != 2 {
		t.Fatalf("version after remove = %d, want 2", got)
	}
}

func TestReplaceValueBumpsVersion(t *testing.T) {
	ins := New()
	ins.Add(Atom{Rel: "R", Args: []Value{Null(1), Const("c")}})
	ins.Add(Atom{Rel: "R", Args: []Value{Const("c"), Const("c")}})
	v0 := ins.Version()

	// _1 -> c merges R(_1,c) into the existing R(c,c): one removal of the
	// old tuple, no effective re-insert of the rewritten duplicate, plus
	// the removal of the now-duplicate original.
	ins.ReplaceValue(Null(1), Const("c"))
	if ins.Len() != 1 {
		t.Fatalf("after merge Len = %d, want 1", ins.Len())
	}
	if ins.Version() <= v0 {
		t.Fatalf("version did not advance across ReplaceValue: %d -> %d", v0, ins.Version())
	}
}

func TestCloneAndReductCarryVersion(t *testing.T) {
	ins := New()
	ins.Add(Atom{Rel: "R", Args: []Value{Const("a")}})
	ins.Add(Atom{Rel: "S", Args: []Value{Const("b")}})
	if got := ins.Clone().Version(); got != ins.Version() {
		t.Fatalf("Clone version = %d, want %d", got, ins.Version())
	}
	sch := NewSchema("R/1")
	if got := ins.Reduct(sch).Version(); got != ins.Version() {
		t.Fatalf("Reduct version = %d, want %d", got, ins.Version())
	}
}
