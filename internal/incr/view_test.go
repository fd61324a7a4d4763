package incr

import (
	"sync"
	"testing"

	"repro/internal/chase"
	"repro/internal/instance"
)

// View shows the same target atoms as Solution's copied τ-reduct, hides
// the source relations, and memoises nothing.
func TestEngineViewIsTargetReductInPlace(t *testing.T) {
	s := mustSetting(t, example21)
	e, err := New(s, mustInstance(t, `M(a,b). N(a,b).`), chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Apply([]instance.Mutation{ins("M", c("c"), c("d"))}, chase.Options{}); err != nil {
		t.Fatal(err)
	}
	var viewed *instance.Instance
	if err := e.View(chase.Options{}, func(u *instance.Instance) {
		viewed = u.Clone()
		if u.RelLen("M") != 0 || u.RelLen("N") != 0 {
			t.Errorf("view shows source atoms: %v", u)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if e.uniSnap.Load() != nil {
		t.Fatal("View memoised a τ-reduct")
	}
	sol, err := e.Solution(chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !viewed.Equal(sol) {
		t.Fatalf("view %v != Solution %v", viewed, sol)
	}
}

// Readers of the view and of the lock-free snapshots never race with
// mutators of the engine (run with -race).
func TestEngineViewConcurrentWithApply(t *testing.T) {
	s := mustSetting(t, example21)
	e, err := New(s, mustInstance(t, `M(a,b). N(a,b).`), chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			m := ins("M", c("b"), c("a"))
			m.Insert = i%2 == 0
			if _, err := e.Apply([]instance.Mutation{m}, chase.Options{}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			if src := e.SourceSnapshot(); src.Len() < 2 || src.Version() > e.Version() {
				t.Errorf("snapshot %v at version %d, engine at %d", src, src.Version(), e.Version())
				return
			}
			if st := e.Status(); !st.Chased || st.Atoms < 2 {
				t.Errorf("status %+v during mutations of a weakly acyclic engine", st)
				return
			}
		}
	}()
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if err := e.View(chase.Options{}, func(u *instance.Instance) {
					if u.RelLen("E") < 2 {
						t.Errorf("view lost E atoms: %v", u)
					}
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
