package incr

import (
	"math/rand"
	"testing"

	"repro/internal/chase"
	"repro/internal/genwl"
	"repro/internal/instance"
)

// persistResume round-trips an engine through the store's persistence path:
// PersistSnapshot → instance codec → Resume. Returns nil when the engine
// holds no fixpoint (unchased or no-solution), which is the store's cue to
// persist the source alone and re-chase at recovery.
func persistResume(t *testing.T, e *Engine) *Engine {
	t.Helper()
	src, fix, steps := e.PersistSnapshot()
	if fix == nil {
		return nil
	}
	srcBuf := src.AppendBinary(nil)
	fixBuf := fix.AppendBinary(nil)
	src2, _, err := instance.DecodeBinary(srcBuf)
	if err != nil {
		t.Fatal(err)
	}
	fix2, _, err := instance.DecodeBinary(fixBuf)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := Resume(e.s, src2, fix2, steps)
	if err != nil {
		t.Fatal(err)
	}
	if e2.Version() != e.Version() {
		t.Fatalf("resumed version = %d, want %d", e2.Version(), e.Version())
	}
	if st := e2.Status(); !st.Chased || st.Steps != steps {
		t.Fatalf("resumed status = %+v, want chased with %d steps", st, steps)
	}
	return e2
}

// TestResumeCrosscheck: persist an engine mid-sequence, resume it in a
// "new process" (codec round-trip re-interns all constants), and continue
// the mutation sequence on the resumed engine — the maintained state must
// stay equivalent to a from-scratch chase at every step, exactly like the
// live-engine crosscheck.
func TestResumeCrosscheck(t *testing.T) {
	perFixture, batches := 8, 4
	if testing.Short() {
		perFixture, batches = 3, 3
	}
	for _, fx := range crosscheckFixtures(t) {
		fx := fx
		t.Run(fx.name, func(t *testing.T) {
			t.Parallel()
			for seq := 0; seq < perFixture; seq++ {
				rng := rand.New(rand.NewSource(900 + int64(seq)))
				src := instance.New()
				for i, n := 0, 2+rng.Intn(6); i < n; i++ {
					src.Add(randomAtom(rng, fx))
				}
				e, err := New(fx.s, src, chase.Options{})
				if err != nil {
					t.Fatal(err)
				}
				mirror := src.Clone()
				apply := func(eng *Engine) {
					n := 1 + rng.Intn(3)
					muts := make([]instance.Mutation, 0, n)
					for i := 0; i < n; i++ {
						m := randomMutation(rng, fx, mirror)
						muts = append(muts, m)
						if m.Insert {
							mirror.Add(m.Atom)
						} else {
							mirror.Remove(m.Atom)
						}
					}
					if _, err := eng.Apply(muts, chase.Options{}); err != nil {
						t.Fatalf("seq %d %v: %v", seq, muts, err)
					}
				}
				for b := 0; b < batches; b++ {
					apply(e)
				}
				e2 := persistResume(t, e)
				if e2 == nil {
					continue // no-solution state: nothing to resume
				}
				crosscheckState(t, fx, e2, mirror, false)
				for b := 0; b < batches; b++ {
					apply(e2)
					crosscheckState(t, fx, e2, mirror, b == batches-1)
				}
			}
		})
	}
}

// TestResumeInsertIsDelta pins the point of resuming: an insert on a
// resumed engine is handled by the semi-naive delta chase, not a rebuild.
func TestResumeInsertIsDelta(t *testing.T) {
	s := genwl.WeaklyAcyclicChain(3)
	src := instance.New()
	src.Add(instance.NewAtom("R0", instance.Const("a"), instance.Const("b")))
	e, err := New(s, src, chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e2 := persistResume(t, e)
	if e2 == nil {
		t.Fatal("clean engine must have a persistable fixpoint")
	}
	res, err := e2.Apply([]instance.Mutation{
		{Insert: true, Atom: instance.NewAtom("R0", instance.Const("c"), instance.Const("d"))},
	}, chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fallback {
		t.Fatal("insert on a resumed engine fell back to full re-chase")
	}
	if res.Steps == 0 {
		t.Fatal("delta chase fired no steps for a fresh source tuple")
	}
}

// TestResumeDeleteFallsBack: the justification graph is not persisted, so
// the first delete on a resumed engine must take the re-chase fallback —
// and clear the merged state, so the delete after that is incremental
// again (when no egd has merged values).
func TestResumeDeleteFallsBack(t *testing.T) {
	s := genwl.WeaklyAcyclicChain(3)
	src := instance.New()
	src.Add(instance.NewAtom("R0", instance.Const("a"), instance.Const("b")))
	src.Add(instance.NewAtom("R0", instance.Const("c"), instance.Const("d")))
	src.Add(instance.NewAtom("R0", instance.Const("e"), instance.Const("f")))
	e, err := New(s, src, chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e2 := persistResume(t, e)
	del := func(a instance.Atom) ApplyResult {
		res, err := e2.Apply([]instance.Mutation{{Insert: false, Atom: a}}, chase.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if res := del(instance.NewAtom("R0", instance.Const("a"), instance.Const("b"))); !res.Fallback {
		t.Fatal("first delete after resume must fall back (no justification graph)")
	}
	if res := del(instance.NewAtom("R0", instance.Const("c"), instance.Const("d"))); res.Fallback {
		t.Fatal("second delete should be incremental: the fallback rebuilt the graph")
	}
}

// TestPersistSnapshotNoSolution: an engine in a no-solution state has no
// fixpoint to persist.
func TestPersistSnapshotNoSolution(t *testing.T) {
	s := genwl.EgdOnly()
	src := genwl.EgdOnlySource(4, false, 1) // inconsistent W-facts: egd fails
	e, err := New(s, src, chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Solution(chase.Options{}); !chase.IsEgdFailure(err) {
		t.Fatalf("expected egd failure, got %v", err)
	}
	if _, fix, _ := e.PersistSnapshot(); fix != nil {
		t.Fatal("no-solution engine reported a persistable fixpoint")
	}
}

// TestResumeDropsTargetOnlyFixpoint: a persisted fixpoint that lacks the
// source atoms (the τ-reduct alone, as earlier builds stored for settings
// that are not weakly acyclic) is not resumed. The engine starts unchased
// and its first read chases the source.
func TestResumeDropsTargetOnlyFixpoint(t *testing.T) {
	for _, tc := range []struct{ name, setting, source string }{
		{"weakly-acyclic", example21, `M(a,b). N(a,b).`},
		{"cyclic", cyclicSetting, `R(a,a).`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := mustSetting(t, tc.setting)
			src := mustInstance(t, tc.source)
			e, err := New(s, src, chase.Options{})
			if err != nil {
				t.Fatal(err)
			}
			tau, err := e.Solution(chase.Options{})
			if err != nil {
				t.Fatal(err)
			}
			e2, err := Resume(s, src.Clone(), tau.Clone(), e.Status().Steps)
			if err != nil {
				t.Fatal(err)
			}
			if st := e2.Status(); st.Chased {
				t.Fatalf("τ-only fixpoint resumed: %+v", st)
			}
			checkAgainstScratch(t, e2, s)
			if !e2.Status().Chased {
				t.Fatal("first read left the engine unchased")
			}
		})
	}
}
