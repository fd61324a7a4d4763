package chase

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/dependency"
	"repro/internal/hom"
	"repro/internal/instance"
)

// homEquivalent reports mutual homomorphic embeddability: the correctness
// relation between two universal solutions of the same source.
func homEquivalent(a, b *instance.Instance) bool {
	return hom.Exists(a, b) && hom.Exists(b, a)
}

func TestResumableMatchesStandard(t *testing.T) {
	s := mustSetting(t, example21)
	src := mustInstance(t, source21)
	r, err := NewResumable(s, src, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Standard(s, src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Target().Equal(res.Target) {
		t.Fatalf("Resumable and Standard diverged:\n%v\n%v", r.Target(), res.Target)
	}
	if r.Steps() != res.Steps {
		t.Fatalf("step counts diverged: %d vs %d", r.Steps(), res.Steps)
	}
}

func TestResumableExtendEquivalentToRechase(t *testing.T) {
	s := mustSetting(t, example21)
	src := mustInstance(t, `M(a,b). N(a,b).`)
	r, err := NewResumable(s, src, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ins := []instance.Atom{
		instance.NewAtom("N", c("a"), c("c")),
		instance.NewAtom("M", c("c"), c("d")),
	}
	if err := r.Extend(ins, Options{}); err != nil {
		t.Fatal(err)
	}
	// From-scratch chase of the extended source.
	full := src.Clone()
	for _, a := range ins {
		full.Add(a)
	}
	res, err := Standard(s, full, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !IsSolution(s, full, r.Target()) {
		t.Fatalf("extended chase is not a solution: %v", r.Target())
	}
	if !homEquivalent(r.Target(), res.Target) {
		t.Fatalf("extended chase not hom-equivalent to re-chase:\n%v\n%v", r.Target(), res.Target)
	}
}

func TestResumableExtendDuplicateIsNoop(t *testing.T) {
	s := mustSetting(t, example21)
	src := mustInstance(t, source21)
	r, err := NewResumable(s, src, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	before := r.Steps()
	if err := r.Extend([]instance.Atom{instance.NewAtom("M", c("a"), c("b"))}, Options{}); err != nil {
		t.Fatal(err)
	}
	if r.Steps() != before {
		t.Fatalf("duplicate insert fired %d steps", r.Steps()-before)
	}
}

func TestResumableRemoveAndReSaturate(t *testing.T) {
	s := mustSetting(t, `
source A/1, C/1.
target B/1, D/1.
st:
  d1: A(x) -> B(x).
  d2: C(x) -> B(x).
target-deps:
  d3: B(x) -> D(x).
`)
	src := mustInstance(t, `A(a). C(a).`)
	r, err := NewResumable(s, src, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Remove A(a) and the derived B(a), D(a); re-saturation must re-derive
	// both from the surviving C(a) (the over-delete/re-derive pattern).
	r.RemoveAtoms([]instance.Atom{
		instance.NewAtom("A", c("a")),
		instance.NewAtom("B", c("a")),
		instance.NewAtom("D", c("a")),
	})
	if err := r.ReSaturate(Options{}); err != nil {
		t.Fatal(err)
	}
	want := mustInstance(t, `B(a). D(a).`)
	if !r.Target().Equal(want) {
		t.Fatalf("re-saturated target = %v, want %v", r.Target(), want)
	}
}

func TestResumableExtendRejectsFOBody(t *testing.T) {
	s := mustSetting(t, `
source Person/1, Spouse/2.
target Single/1.
st:
  d1: Person(x) & !(exists y (Spouse(x,y))) -> Single(x).
`)
	src := mustInstance(t, `Person(a).`)
	r, err := NewResumable(s, src, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	err = r.Extend([]instance.Atom{instance.NewAtom("Person", c("b"))}, Options{})
	if !errors.Is(err, ErrNotResumable) {
		t.Fatalf("Extend on FO-body setting: err = %v, want ErrNotResumable", err)
	}
}

func TestResumableObserverSeesFiringsAndMerges(t *testing.T) {
	s := mustSetting(t, `
source S/1, T/2.
target F/2.
st:
  d1: S(x) -> exists z : F(x,z).
  d2: T(x,y) -> F(x,y).
target-deps:
  d3: F(x,y) & F(x,z) -> y = z.
`)
	src := mustInstance(t, `S(a). T(a,b).`)
	obs := &countingObserver{}
	_, err := NewResumable(s, src, Options{}, obs)
	if err != nil {
		t.Fatal(err)
	}
	if obs.firings == 0 {
		t.Fatal("observer saw no tgd firings")
	}
	// d3 merges d1's null into b.
	if obs.egds == 0 {
		t.Fatal("observer saw no egd applications")
	}
	// Every observed insertion must be in the final instance or have been
	// rewritten by a merge; at minimum the counts are sane.
	if obs.inserted < obs.firings {
		t.Fatalf("inserted %d atoms over %d firings", obs.inserted, obs.firings)
	}
}

type countingObserver struct {
	firings  int
	inserted int
	egds     int
}

func (o *countingObserver) TGDFired(d *dependency.TGD, body, inserted []instance.Atom) {
	o.firings++
	o.inserted += len(inserted)
	if len(body) == 0 && d.BodyAtoms != nil {
		panic("conjunctive firing reported without ground body atoms")
	}
}

func (o *countingObserver) EgdApplied(dep string, winner, loser instance.Value) {
	o.egds++
	if !loser.IsNull() {
		panic(fmt.Sprintf("egd replaced non-null %v", loser))
	}
}
