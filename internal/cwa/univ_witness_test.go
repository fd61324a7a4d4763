package cwa

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/chase"
	"repro/internal/genwl"
	"repro/internal/hom"
	"repro/internal/instance"
	"repro/internal/metrics"
)

// TestUniversalityWitnessMatchesExists crosschecks the walk's universality
// decision, which extends the parent state's homomorphism over each state's
// new atoms and decides from scratch only when that fails. At every state
// of every golden case and of further random settings, at 1 and 4 workers,
// the verdict must equal hom.Exists(cur, u), and a positive verdict's
// witness h must map every atom of cur into u. At 4 workers spawned walks
// run beside in-place siblings, so this also checks that no walk sees
// another's writes to the match list, the key set or h. The workload must
// reach both verdicts and both outcomes of the from-scratch decision.
func TestUniversalityWitnessMatchesExists(t *testing.T) {
	cases := goldenCases(t)
	for seed := int64(24); seed < 40; seed++ {
		src := genwl.RandomLayeredSource(4+int(seed%5), seed*7)
		for _, withEgd := range []bool{false, true} {
			cases = append(cases, enumCase{fmt.Sprintf("random seed=%d egd=%v", seed, withEgd),
				genwl.RandomRichlyAcyclic(seed, withEgd), src})
		}
	}
	for _, workers := range []int{1, 4} {
		var (
			mu                   sync.Mutex
			states, universal    int
			fallHits, fallMisses int
			failure              string
		)
		for _, c := range cases {
			u, err := chase.UniversalSolution(c.s, c.src, chase.Options{})
			if chase.IsEgdFailure(err) {
				continue
			}
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			e := newEnumerator(c.s, c.src, u, EnumOptions{Workers: workers})
			fallbacks := metrics.EnumUnivFallbacks.Load()
			e.univHook = func(cur *instance.Instance, h []instance.Value, univ bool) {
				bad := ""
				if want := hom.Exists(cur, u); univ != want {
					bad = fmt.Sprintf("verdict %v, hom.Exists %v", univ, want)
				} else if univ {
					bad = witnessFault(cur, h, u)
				}
				mu.Lock()
				defer mu.Unlock()
				states++
				if univ {
					universal++
				}
				// One worker runs the states one after another, so a rise
				// of the counter since the last state is this state's
				// from-scratch decision.
				if n := metrics.EnumUnivFallbacks.Load(); workers == 1 && n != fallbacks {
					fallbacks = n
					if univ {
						fallHits++
					} else {
						fallMisses++
					}
				}
				if bad != "" && failure == "" {
					failure = fmt.Sprintf("%s at %v: %s", c.name, cur, bad)
				}
			}
			if _, err := e.run(); err != nil {
				t.Fatalf("%s workers=%d: %v", c.name, workers, err)
			}
			if failure != "" {
				t.Fatalf("workers=%d: %s", workers, failure)
			}
		}
		t.Logf("workers=%d: %d states, %d universal; from scratch: %d found, %d not", workers, states, universal, fallHits, fallMisses)
		if universal == 0 || universal == states {
			t.Fatalf("workers=%d: %d of %d states universal; want a mix", workers, universal, states)
		}
		if workers == 1 && (fallHits == 0 || fallMisses == 0) {
			t.Fatalf("from-scratch decisions: %d found a homomorphism, %d did not; want both", fallHits, fallMisses)
		}
	}
}

// witnessFault describes how h fails to map cur homomorphically into u, or
// returns "" when it does.
func witnessFault(cur *instance.Instance, h []instance.Value, u *instance.Instance) string {
	for _, a := range cur.Atoms() {
		img := make([]instance.Value, len(a.Args))
		for i, v := range a.Args {
			if v.IsNull() {
				l := v.NullLabel()
				if l >= int64(len(h)) || h[l] == unmapped {
					return fmt.Sprintf("h %v leaves %v unmapped", h, v)
				}
				v = h[l]
			}
			img[i] = v
		}
		if im := (instance.Atom{Rel: a.Rel, Args: img}); !u.Has(im) {
			return fmt.Sprintf("h %v maps %v to %v, not in u", h, a, im)
		}
	}
	return ""
}

// TestUniversalityRandomDeltas drives universality directly on random
// states: a parent instance with its homomorphism h into a random u, plus a
// delta of atoms over the parent's nulls, new nulls, and constants, ground
// atoms absent from u among them. The verdict must equal hom.Exists, and a
// positive verdict's witness must map the whole state into u. The walk's
// own states do not reach a new ground atom absent from u (the pre-spawn
// refute drops such a firing, and u satisfies the target dependencies), so
// this is the test that fails when universality skips that check.
func TestUniversalityRandomDeltas(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	consts := []instance.Value{instance.Const("a"), instance.Const("b"), instance.Const("c")}
	value := func(nulls int64) instance.Value {
		if nulls > 0 && rng.Intn(2) == 0 {
			return instance.Null(rng.Int63n(nulls))
		}
		return consts[rng.Intn(len(consts))]
	}
	counts := map[string]int{}
	for round := 0; round < 2000; round++ {
		u := instance.New()
		for i := 0; i < 3+rng.Intn(6); i++ {
			u.Add(instance.NewAtom("E", value(2), value(2)))
		}
		parent := instance.New()
		nulls := rng.Int63n(3)
		for l := int64(0); l < nulls; l++ {
			parent.Add(instance.NewAtom("E", instance.Null(l), value(nulls)))
		}
		m, ok := hom.Find(parent, u)
		if !ok {
			continue
		}
		h := make([]instance.Value, nulls)
		for l := range h {
			h[l] = m[instance.Null(int64(l))]
		}
		cur := parent.Clone()
		mBase := cur.Mark()
		next := nulls + rng.Int63n(3)
		for l := nulls; l < next; l++ {
			cur.Add(instance.NewAtom("E", value(next), instance.Null(l)))
		}
		for i := 0; i < rng.Intn(3); i++ {
			cur.Add(instance.NewAtom("E", value(next), value(next)))
		}
		e := &enumerator{universal: u}
		got, univ := e.universality(&walker{cur: cur}, h, mBase, next)
		want := hom.Exists(cur, u)
		if univ != want {
			t.Fatalf("round %d: verdict %v, hom.Exists %v\nparent %v (h %v)\nstate  %v\nu      %v", round, univ, want, parent, h, cur, u)
		}
		if univ {
			if bad := witnessFault(cur, got, u); bad != "" {
				t.Fatalf("round %d: state %v: %s", round, cur, bad)
			}
		}
		counts[fmt.Sprint(univ)]++
	}
	if counts["true"] == 0 || counts["false"] == 0 {
		t.Fatalf("verdicts %v; want both", counts)
	}
}
