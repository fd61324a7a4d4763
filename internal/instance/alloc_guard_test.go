//go:build !race

package instance

// Excluded under -race: the race runtime instruments allocations and makes
// AllocsPerRun meaningless there.

import "testing"

// A sweep of EachAddedBetween with a caller-held buffer allocates nothing:
// the atom arguments passed to f live in the caller's buffer. A buffer
// made inside the sweep would escape through f, one allocation per call.
func TestEachAddedBetweenAllocFree(t *testing.T) {
	ins := New()
	from := ins.Mark()
	for i := 0; i < 10; i++ {
		ins.Add(NewAtom("R", Const("a"), Null(int64(i))))
		ins.Add(NewAtom("S", Null(int64(i)), Const("b"), Const("c")))
	}
	to := ins.Mark()
	var buf [8]Value
	n := 0
	sweep := func() {
		ins.EachAddedBetween(from, to, buf[:0], func(a Atom) bool {
			n += len(a.Args)
			return true
		})
	}
	sweep()
	if n != 50 {
		t.Fatalf("the sweep visited %d arguments, want 50", n)
	}
	if avg := testing.AllocsPerRun(100, sweep); avg != 0 {
		t.Fatalf("EachAddedBetween allocates %.1f objects per sweep, want 0", avg)
	}
}
