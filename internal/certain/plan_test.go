package certain

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"repro/internal/chase"
	"repro/internal/cwa"
	"repro/internal/dependency"
	"repro/internal/genwl"
	"repro/internal/instance"
	"repro/internal/metrics"
	"repro/internal/parser"
	"repro/internal/query"
)

func mustFO(t testing.TB, text string) query.FOQuery {
	t.Helper()
	q, err := parser.ParseFOQuery(text)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

const egdOnlySetting = `
source N/2, W/2.
target F/2.
st:
  N(x,y) -> exists z : F(x,z).
  W(x,y) -> F(x,y).
target-deps:
  F(x,y) & F(x,z) -> y = z.
`

// TestChooseTable pins the planner's Table 1 dispatch: one row per method,
// plus the rows where an earlier cell shadows a later one.
func TestChooseTable(t *testing.T) {
	ex21 := mustSetting(t, example21)
	egd := mustSetting(t, egdOnlySetting)
	full := genwl.FullTgds()
	pure := mustUCQ(t, "q(x) :- F(x,y).")
	ineq := mustUCQ(t, "q(x) :- F(x,y), y != x.")
	two := mustUCQ(t, "q(x) :- F(x,y), y != x, F(w,z), z != x.")
	cq := pure.Disjuncts[0]
	fo := mustFO(t, "(x) . exists y (F(x,y) & !(F(y,x)))")
	cases := []struct {
		name string
		s    *dependency.Setting
		q    query.Evaluable
		sem  Semantics
		want Method
	}{
		{"pure UCQ certain⊓", ex21, pure, CertainCap, NaiveUniversal},
		{"pure UCQ certain⊔", ex21, pure, CertainCup, NaiveUniversal},
		{"CQ certain⊔", ex21, cq, CertainCup, NaiveUniversal},
		{"pure UCQ certain⊔ egd-only", egd, pure, CertainCup, NaiveUniversal},
		{"pure UCQ maybe⊓", ex21, pure, MaybeCap, DiamondCore},
		{"1-ineq certain⊔ egd-only", egd, ineq, CertainCup, FixpointCore},
		{"1-ineq certain⊓ egd-only", egd, ineq, CertainCap, FixpointCanSol},
		{"1-ineq certain⊓ full", full, ineq, CertainCap, NullFree},
		{"FO maybe⊔ full", full, fo, MaybeCup, NullFree},
		{"pure UCQ maybe⊔ full", full, pure, MaybeCup, NullFree},
		{"1-ineq certain⊔", ex21, ineq, CertainCup, BoxCore},
		{"2-ineq certain⊔ egd-only", egd, two, CertainCup, BoxCore},
		{"FO certain⊔", ex21, fo, CertainCup, BoxCore},
		{"FO maybe⊓", ex21, fo, MaybeCap, DiamondCore},
		{"FO certain⊓ egd-only", egd, fo, CertainCap, BoxCanSol},
		{"2-ineq certain⊓ egd-only", egd, two, CertainCap, BoxCanSol},
		{"pure UCQ maybe⊔ egd-only", egd, pure, MaybeCup, DiamondCanSol},
		{"FO certain⊓", ex21, fo, CertainCap, ByDef},
		{"1-ineq certain⊓", ex21, ineq, CertainCap, ByDef},
		{"pure UCQ maybe⊔", ex21, pure, MaybeCup, ByDef},
	}
	seen := make(map[Method]bool)
	for _, c := range cases {
		if got := Choose(c.s, c.q, c.sem); got != c.want {
			t.Errorf("%s: Choose = %v, want %v", c.name, got, c.want)
		}
		seen[c.want] = true
	}
	for m := Method(0); m < numMethods; m++ {
		if !seen[m] {
			t.Errorf("no row for method %v", m)
		}
		if strings.Contains(m.String(), "?") {
			t.Errorf("method %d has no name", m)
		}
	}
}

// countingSolutions wraps a provider and records which solutions a plan
// reads.
type countingSolutions struct {
	Solutions
	reads []string
}

func (c *countingSolutions) Source() *instance.Instance {
	c.reads = append(c.reads, "source")
	return c.Solutions.Source()
}

func (c *countingSolutions) Universal(f func(*instance.Instance)) error {
	c.reads = append(c.reads, "universal")
	return c.Solutions.Universal(f)
}

func (c *countingSolutions) Core() (*instance.Instance, error) {
	c.reads = append(c.reads, "core")
	return c.Solutions.Core()
}

func (c *countingSolutions) CanSol() (*instance.Instance, error) {
	c.reads = append(c.reads, "cansol")
	return c.Solutions.CanSol()
}

// TestAnswersOnReadsOnlyWhatTheMethodNeeds checks that each method reads
// exactly one solution from its provider, and counts itself. ByDef reads
// the source inside the universal solution's callback, to enumerate on
// that solution.
func TestAnswersOnReadsOnlyWhatTheMethodNeeds(t *testing.T) {
	ex21 := mustSetting(t, example21)
	egd := mustSetting(t, egdOnlySetting)
	cases := []struct {
		s    *dependency.Setting
		src  string
		q    query.Evaluable
		sem  Semantics
		want string
	}{
		{ex21, smallSource, mustUCQ(t, "q(x) :- E(x,y)."), CertainCup, "universal"},
		{egd, `N(a,b). W(a,e).`, mustUCQ(t, "q(x) :- F(x,y), y != x."), CertainCup, "core"},
		{egd, `N(a,b). W(a,e).`, mustUCQ(t, "q(x) :- F(x,y), y != x."), CertainCap, "cansol"},
		{genwl.FullTgds(), `R(a,b). R(b,c).`, mustFO(t, "(x) . exists y (T(x,y))"), MaybeCap, "universal"},
		{ex21, smallSource, mustFO(t, "(x) . exists y (E(x,y))"), MaybeCap, "core"},
		{egd, `N(a,b). W(a,e).`, mustUCQ(t, "q(x,y) :- F(x,y)."), MaybeCup, "cansol"},
		{ex21, smallSource, mustUCQ(t, "q(x) :- E(x,y), y != x."), CertainCap, "universal source"},
	}
	for _, c := range cases {
		m := Choose(c.s, c.q, c.sem)
		before := planCounters[m].Load()
		sols := &countingSolutions{Solutions: FromSource(c.s, mustInstance(t, c.src), chase.Options{})}
		if _, err := AnswersOn(c.s, c.q, sols, c.sem, Options{Workers: 1}); err != nil {
			t.Fatalf("%v %v: %v", m, c.q, err)
		}
		if strings.Join(sols.reads, " ") != c.want {
			t.Errorf("%v: read %v, want [%s]", m, sols.reads, c.want)
		}
		if got := planCounters[m].Load() - before; got != 1 {
			t.Errorf("%v: counter moved by %d, want 1", m, got)
		}
	}
	if !strings.Contains(metrics.Read().String(), "certain_plan_naive_universal=") {
		t.Error("plan counters missing from the metrics snapshot")
	}
}

// canonFresh relabels the reserved fresh constants (~i) of each tuple in
// first-occurrence order. Fresh constants are named per solution and per
// null order, so two answer sets mean the same exactly when their
// relabelled sets are equal (see the Rep walk's canonical fresh values).
func canonFresh(s *query.TupleSet) *query.TupleSet {
	out := query.NewTupleSet()
	for _, tup := range s.Tuples() {
		seen := make(map[instance.Value]instance.Value)
		ct := make(query.Tuple, len(tup))
		for i, v := range tup {
			ct[i] = v
			if !v.IsConst() || !strings.HasPrefix(instance.ConstName(v), "~") {
				continue
			}
			if _, err := strconv.Atoi(instance.ConstName(v)[1:]); err != nil {
				continue
			}
			r, ok := seen[v]
			if !ok {
				r = freshConst(len(seen))
				seen[v] = r
			}
			ct[i] = r
		}
		out.Add(ct)
	}
	return out
}

// crossCase is one (setting, source, queries) input of the planner
// crosscheck.
type crossCase struct {
	name    string
	s       *dependency.Setting
	src     *instance.Instance
	queries []query.Evaluable
}

func crossCases(t *testing.T) []crossCase {
	var cases []crossCase
	// Fixtures.
	ex21 := mustSetting(t, example21)
	ex21Queries := []query.Evaluable{
		mustUCQ(t, "q(x,y) :- E(x,y).\nq(x,y) :- F(x,y)."),
		mustUCQ(t, "q(x) :- E(x,y), F(x,z), y != z."),
		mustFO(t, "(x) . exists y (E(x,y) & !(F(x,y)))"),
		mustUCQ(t, "q(x) :- M(x,y).\nq(x) :- G(x,y)."),
	}
	for _, src := range []string{smallSource, `M(a,b). N(a,b). N(a,c).`} {
		cases = append(cases, crossCase{"example 2.1 " + src, ex21, mustInstance(t, src), ex21Queries})
	}
	cases = append(cases, crossCase{"copying", genwl.Copying(), mustInstance(t, `E(a,b). E(b,c). P(a).`), []query.Evaluable{
		mustUCQ(t, "q(x) :- Ep(x,y), Pp(x)."),
		mustUCQ(t, "q(x,y) :- Ep(x,y), x != y."),
		mustFO(t, "(x) . Pp(x) | exists y,z (Pp(y) & Ep(y,z) & !(Pp(z)))"),
		mustUCQ(t, "q(x) :- E(x,y)."),
	}})
	// Example 5.3: CanSol is not a maximal CWA-solution here, so certain⊓
	// and maybe⊔ have no Theorem 7.1 characterisation.
	cases = append(cases, crossCase{"example 5.3", genwl.Example53(), genwl.Example53Source(1), []query.Evaluable{
		mustUCQ(t, "q(x) :- F(x,y,z)."),
		mustUCQ(t, "q(x) :- F(x,y,z), y != z."),
		mustFO(t, "(x) . exists y,z (E(x,y,z) & !(F(x,y,y)))"),
		mustUCQ(t, "q(x) :- P(x)."),
	}})
	// Random genwl scenarios, kept small: ByDefinition enumerates every
	// CWA-solution and walks Rep on each.
	egd := genwl.EgdOnly()
	egdQueries := []query.Evaluable{
		mustUCQ(t, "q(x,y) :- F(x,y)."),
		mustUCQ(t, "q(x) :- F(x,y), y != x."),
		mustFO(t, "(x) . exists y (F(x,y) & !(exists z (F(z,x))))"),
		mustUCQ(t, "q(x) :- N(x,y).\nq(x) :- F(x,x)."),
	}
	full := genwl.FullTgds()
	fullQueries := []query.Evaluable{
		mustUCQ(t, "q(x,z) :- T(x,y), E(y,z)."),
		mustUCQ(t, "q(x,z) :- T(x,z), x != z."),
		mustFO(t, "(x) . exists y (T(x,y)) & !(exists y (E(y,x)))"),
		mustUCQ(t, "q(x) :- R(x,y)."),
	}
	layered := []query.Evaluable{
		mustUCQ(t, "q(x) :- L1(x,y).\nq(x) :- L2(x,y)."),
		mustUCQ(t, "q(x) :- L0(x,y), x != y."),
		mustFO(t, "(x) . exists y (L0(x,y) & !(L1(x,y)))"),
		mustUCQ(t, "q(x,y) :- S0(x,y)."),
	}
	for seed := int64(0); seed < 4; seed++ {
		cases = append(cases,
			crossCase{fmt.Sprintf("egd-only seed %d", seed), egd, genwl.EgdOnlySource(3, seed%2 == 0, seed), egdQueries},
			crossCase{fmt.Sprintf("full seed %d", seed), full, genwl.RandomEdges("R", 3, seed), fullQueries},
			crossCase{fmt.Sprintf("richly acyclic seed %d", seed), genwl.RandomRichlyAcyclic(seed, seed%2 == 0), genwl.RandomLayeredSource(3, seed*7), layered},
		)
	}
	return cases
}

// TestPlannerMatchesByDefinition is the planner's crosscheck: on the
// fixtures and on small random genwl scenarios, for all four semantics
// and for a pure UCQ, a UCQ with one inequality, an FO query and a query
// naming a source relation, AnswersOn agrees with ByDefinition up to the
// naming of fresh constants, and fails exactly when it fails.
func TestPlannerMatchesByDefinition(t *testing.T) {
	opt := Options{Workers: 1, MaxNulls: 6, Enum: cwa.EnumOptions{MaxStates: 20000}}
	compared := make(map[Method]int)
	for _, c := range crossCases(t) {
		for _, q := range c.queries {
			for _, sem := range []Semantics{CertainCap, CertainCup, MaybeCap, MaybeCup} {
				m := Choose(c.s, q, sem)
				want, wantErr := ByDefinition(c.s, q, c.src, sem, opt)
				if errors.Is(wantErr, ErrTooManyNulls) || errors.Is(wantErr, cwa.ErrEnumerationTruncated) {
					continue // too large for the reference
				}
				got, err := AnswersOn(c.s, q, FromSource(c.s, c.src, opt.Chase), sem, opt)
				if errors.Is(err, ErrTooManyNulls) {
					continue
				}
				if (err == nil) != (wantErr == nil) {
					t.Errorf("%s %v %v (%v): planner error %v, by definition %v", c.name, q, sem, m, err, wantErr)
					continue
				}
				if err != nil {
					continue
				}
				if !canonFresh(got).Equal(canonFresh(want)) {
					t.Errorf("%s %v %v (%v): planner %v, by definition %v", c.name, q, sem, m, got, want)
				}
				compared[m]++
			}
		}
	}
	for m := Method(0); m < numMethods; m++ {
		if compared[m] == 0 {
			t.Errorf("method %v never compared", m)
		}
	}
	t.Logf("comparisons per method: %v", compared)
}

// ByDefinition enumerates under the request's context: an expired one
// stops it before the first search state.
func TestByDefinitionHonoursChaseContext(t *testing.T) {
	s := mustSetting(t, example21)
	src := mustInstance(t, smallSource)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var stats cwa.EnumStats
	opt := Options{Chase: chase.Options{Ctx: ctx}, Enum: cwa.EnumOptions{Stats: &stats}}
	_, err := ByDefinition(s, mustUCQ(t, "q(x) :- E(x,y)."), src, CertainCap, opt)
	if !errors.Is(err, chase.ErrCanceled) {
		t.Fatalf("err = %v, want a canceled error", err)
	}
	if stats.States != 0 {
		t.Fatalf("explored %d states under a canceled context", stats.States)
	}
}
