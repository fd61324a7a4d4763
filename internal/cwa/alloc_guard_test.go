//go:build !race

package cwa

// Alloc guard for the in-place walk: EnumerateOn descends into each child
// state on the walked instance and rolls it back on return, so a state
// costs its closure's own atoms, not a copy of the instance. It also
// carries the witness pool instead of sorting a domain per branch, re-adds
// after a rollback into the kept capacity and refutes witness tuples from
// scratch buffers. Each state extends its parent's homomorphism into the
// universal solution over its own new atoms, appends its matches to the
// parent's list in place and adds its justification keys to the walk's one
// key set. A complete state costs one pass over its rows into the walker's
// buffers, and a repeat stops at its dedup key; each class's instance is
// built once, in bulk, at the end. The walk takes about 610 allocations
// here. It took about 970 while emit keyed states by their exact content
// (ContentKey) and built a canonical instance through Instance.Map, atom by
// atom, for every state that became a class representative, and the delta
// sweeps allocated their argument buffer per call; about 1,500 while each
// state extended a copy of its parent's compiled hom search
// (hom.Search.Extend), keyed a universality memo by the state's content,
// copied the match list on its first append and rebuilt the key set from
// every inherited match; about 2,500 before the pool and rollback work
// above, and one that cloned every child state took 3,513. The budget sits
// just above 610, so bringing back any one of those per-state copies fails
// it.
//
// Excluded under -race: the race runtime instruments allocations and makes
// AllocsPerRun meaningless there.

import (
	"testing"

	"repro/internal/chase"
	"repro/internal/genwl"
)

func TestEnumerateOnAllocBudget(t *testing.T) {
	s := genwl.Example21()
	src := paddedExample21Source(8)
	u, err := chase.UniversalSolution(s, src, chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var sols int
	run := func() {
		out, err := EnumerateOn(s, src, u, EnumOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		sols = len(out)
	}
	run()
	if sols != 3 {
		t.Fatalf("%d solutions, want 3", sols)
	}
	const budget = 640
	if avg := testing.AllocsPerRun(20, run); avg > budget {
		t.Errorf("EnumerateOn allocates %.0f objects/run on padded Example 2.1 (pad 8); budget is %d", avg, budget)
	}
}
