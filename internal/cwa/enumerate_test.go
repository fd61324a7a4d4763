package cwa

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/chase"
	"repro/internal/dependency"
	"repro/internal/genwl"
	"repro/internal/instance"
	"repro/internal/parser"
)

// witnessCandidates is the witness pool by its definition: for each
// existential variable z of d, the values of dom (a state's active domain,
// source included, in instance.Less order) that z may take — every null,
// and each constant that u carries at every head position z occupies.
func witnessCandidates(d *dependency.TGD, dom []instance.Value, u *instance.Instance) [][]instance.Value {
	out := make([][]instance.Value, len(d.Exists))
	for j, z := range d.Exists {
		c := make([]instance.Value, 0, len(dom))
	values:
		for _, v := range dom {
			if v.IsConst() {
				for _, a := range d.Head {
					for p, t := range a.Terms {
						if t.Var == z && !u.PosHasValue(a.Rel, p, v) {
							continue values
						}
					}
				}
			}
			c = append(c, v)
		}
		out[j] = c
	}
	return out
}

// mergeDom returns the sorted union of two sorted domains (the order of
// instance.Dom), so mergeDom(Dom(S), Dom(T)) == Dom(S ∪ T).
func mergeDom(a, b []instance.Value) []instance.Value {
	out := make([]instance.Value, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			out = append(out, a[i])
			i++
			j++
		case instance.Less(a[i], b[j]):
			out = append(out, a[i])
			i++
		default:
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// headConstCase is a setting whose tgd heads put the constant k, which the
// source lacks, at a position an existential variable also occupies. The
// first branch (z of d1) precedes the firing of d2, so k is outside its
// state's active domain and must not be a witness; the later branch (w of
// d4) comes after, and k must be one.
func headConstCase(t testing.TB) enumCase {
	t.Helper()
	s, err := parser.ParseSetting(`
source S/1.
target A/2, B/2, C/2.
st:
  d1: S(x) -> exists z : A(x,z).
target-deps:
  d2: A(x,z) -> B(x,'k').
  d3: B(x,y) -> A(x,y).
  d4: B(x,y) -> exists w : C(x,w) & A(x,w).
  d5: A(x,y) -> C(x,y).
`)
	if err != nil {
		t.Fatal(err)
	}
	return enumCase{"head constant k", s, instance.FromAtoms(instance.NewAtom("S", instance.Const("s")))}
}

// At every branch of every golden case, the witness pool the walk carries
// (the universal solution's head constants filtered to the active domain,
// then the state's nulls) equals the pool by definition: the candidates
// among the sorted union of the source's and the state's domains.
func TestWitnessPoolMatchesDefinition(t *testing.T) {
	branches := 0
	k := instance.Const("k")
	withK := map[bool]int{} // branches by whether the pool holds k
	for _, c := range append(goldenCases(t), headConstCase(t)) {
		u, err := chase.UniversalSolution(c.s, c.src, chase.Options{})
		if chase.IsEgdFailure(err) {
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		srcDom := c.src.Dom()
		e := newEnumerator(c.s, c.src, u, EnumOptions{Workers: 1})
		e.poolHook = func(d *dependency.TGD, cur *instance.Instance, pool [][]instance.Value) {
			branches++
			want := witnessCandidates(d, mergeDom(srcDom, cur.Dom()), u)
			if !reflect.DeepEqual(pool, want) {
				t.Fatalf("%s: %s at %v: pool %v, want %v", c.name, d.Name, cur, pool, want)
			}
			if c.name == "head constant k" {
				withK[len(pool[0]) > 0 && pool[0][0] == k]++
			}
		}
		if _, err := e.run(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
	}
	if branches == 0 {
		t.Fatal("no branch was checked")
	}
	if withK[true] == 0 || withK[false] == 0 {
		t.Fatalf("head constant case: %d pools with k, %d without; want both", withK[true], withK[false])
	}
}

// MaxNullsPerState bounds the nulls of every state, complete ones
// included: Example 2.1's solutions carry 2, 3 and 4 nulls, so a bound of
// b keeps exactly those with at most b and reports truncation below 4.
func TestEnumerateMaxNullsPerState(t *testing.T) {
	for bound, want := range map[int]int{1: 0, 2: 1, 3: 2, 4: 3, 5: 3} {
		var stats EnumStats
		sols, err := Enumerate(genwl.Example21(), genwl.Example21Source(), EnumOptions{Workers: 1, MaxNullsPerState: bound, Stats: &stats})
		if len(sols) != want {
			t.Errorf("bound %d: %d solutions, want %d", bound, len(sols), want)
		}
		for _, sol := range sols {
			if n := len(sol.Nulls()); n > bound {
				t.Errorf("bound %d: solution %v has %d nulls", bound, sol, n)
			}
		}
		if truncated := bound < 4; stats.Truncated != truncated || (err == ErrEnumerationTruncated) != truncated {
			t.Errorf("bound %d: Truncated = %v, err = %v, want truncation %v", bound, stats.Truncated, err, truncated)
		}
	}
}

// SortBySize renders each solution once but orders exactly as comparing
// the renderings pairwise does.
func TestSortBySizeMatchesPairwiseComparator(t *testing.T) {
	sols, err := Enumerate(genwl.Example53(), genwl.Example53Source(2), EnumOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sols) < 3 {
		t.Fatalf("%d solutions, want several", len(sols))
	}
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 20; round++ {
		rng.Shuffle(len(sols), func(i, j int) { sols[i], sols[j] = sols[j], sols[i] })
		want := append([]*instance.Instance(nil), sols...)
		sort.Slice(want, func(i, j int) bool {
			if want[i].Len() != want[j].Len() {
				return want[i].Len() < want[j].Len()
			}
			return want[i].String() < want[j].String()
		})
		got := append([]*instance.Instance(nil), sols...)
		SortBySize(got)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("round %d: position %d holds %v, want %v", round, i, got[i], want[i])
			}
		}
	}
}
