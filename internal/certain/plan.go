package certain

import (
	"fmt"
	"strings"

	"repro/internal/chase"
	"repro/internal/cwa"
	"repro/internal/dependency"
	"repro/internal/instance"
	"repro/internal/metrics"
	"repro/internal/query"
)

// Method is how AnswersOn evaluates one (query, setting, semantics)
// triple: a PTIME cell of Table 1, a Theorem 7.1 characterisation over one
// solution, or the by-definition fallback. Choose picks it.
type Method int

const (
	// NaiveUniversal evaluates a pure UCQ naively on a universal solution
	// and keeps the null-free tuples: certain⊓ = certain⊔ = Q(T)↓ for every
	// universal T (Lemma 7.7, Theorem 7.6).
	NaiveUniversal Method = iota
	// FixpointCore runs BoxUCQIneqPTime on the core: certain⊔ of a UCQ with
	// at most one inequality per disjunct over an egd-only setting.
	FixpointCore
	// FixpointCanSol runs BoxUCQIneqPTime on CanSol: the certain⊓ twin of
	// FixpointCore.
	FixpointCanSol
	// NullFree evaluates Q once on the chase result of a setting whose tgds
	// are all full. It has no nulls, so it is the only CWA-solution and
	// Rep(T) = {T}: all four semantics are Q(T).
	NullFree
	// BoxCore is certain⊔ = □Q(Core) (Theorem 7.1).
	BoxCore
	// DiamondCore is maybe⊓ = ◇Q(Core) (Theorem 7.1).
	DiamondCore
	// BoxCanSol is certain⊓ = □Q(CanSol) on Proposition 5.4's classes
	// (Theorem 7.1).
	BoxCanSol
	// DiamondCanSol is maybe⊔ = ◇Q(CanSol) on Proposition 5.4's classes
	// (Theorem 7.1).
	DiamondCanSol
	// ByDef enumerates every CWA-solution (ByDefinition): certain⊓ and
	// maybe⊔ outside Proposition 5.4's classes, where Theorem 7.1 gives no
	// characterisation.
	ByDef
	numMethods
)

var methodNames = [numMethods]string{
	"naive-universal", "fixpoint-core", "fixpoint-cansol", "null-free",
	"box-core", "diamond-core", "box-cansol", "diamond-cansol", "by-definition",
}

func (m Method) String() string {
	if m < 0 || m >= numMethods {
		return "?"
	}
	return methodNames[m]
}

// planCounters counts AnswersOn evaluations per method, as
// certain_plan_<method> in metrics snapshots.
var planCounters = func() (cs [numMethods]*metrics.Counter) {
	for m := range cs {
		cs[m] = metrics.NewCounter("certain_plan_" + strings.ReplaceAll(methodNames[m], "-", "_"))
	}
	return cs
}()

// asUCQ views a CQ or UCQ as a UCQ; FO queries are not UCQs.
func asUCQ(q query.Evaluable) (query.UCQ, bool) {
	switch g := q.(type) {
	case query.UCQ:
		return g, true
	case query.CQ:
		return query.NewUCQ(g), true
	}
	return query.UCQ{}, false
}

// Choose picks the cheapest sound method for the query, the setting's
// dependency class and the semantics, taking the first that applies:
//
//   - a pure UCQ under certain⊓ or certain⊔: NaiveUniversal;
//   - a UCQ with at most one inequality per disjunct under certain⊔ or
//     certain⊓, egd-only setting: FixpointCore or FixpointCanSol;
//   - every tgd full: NullFree;
//   - certain⊔ or maybe⊓: BoxCore or DiamondCore;
//   - certain⊓ or maybe⊔, egd-only setting: BoxCanSol or DiamondCanSol;
//   - otherwise ByDef.
//
// Choose looks at no instance, so a server can report the method of a
// cached answer without computing anything.
func Choose(s *dependency.Setting, q query.Evaluable, sem Semantics) Method {
	u, isUCQ := asUCQ(q)
	certainSem := sem == CertainCap || sem == CertainCup
	switch {
	case isUCQ && certainSem && u.Pure():
		return NaiveUniversal
	case isUCQ && certainSem && s.EgdsOnly() && u.MaxInequalitiesPerDisjunct() <= 1:
		if sem == CertainCup {
			return FixpointCore
		}
		return FixpointCanSol
	case s.FullAndEgds():
		return NullFree
	case sem == CertainCup:
		return BoxCore
	case sem == MaybeCap:
		return DiamondCore
	case s.EgdsOnly() && sem == CertainCap:
		return BoxCanSol
	case s.EgdsOnly() && sem == MaybeCup:
		return DiamondCanSol
	}
	return ByDef
}

// Solutions supplies the solutions for one source that a method evaluates
// on. Each is computed, or looked up, only when a method asks for it. A
// source without solutions yields an error wrapping cwa.ErrNoSolution or a
// chase egd failure.
type Solutions interface {
	// Source is the source instance, enumerated by the ByDef fallback.
	// ByDef reads it inside Universal's callback, so that the source and
	// the universal solution are of the same version.
	Source() *instance.Instance
	// Universal calls f with a universal solution, a τ-instance that need
	// not be a CWA-solution. f must neither modify nor retain it.
	Universal(f func(*instance.Instance)) error
	// Core returns Core_D(S), the minimal CWA-solution.
	Core() (*instance.Instance, error)
	// CanSol returns CanSol_D(S).
	CanSol() (*instance.Instance, error)
}

// FromSource returns Solutions computed from src under the chase options,
// each on request; it keeps nothing between requests.
func FromSource(s *dependency.Setting, src *instance.Instance, opt chase.Options) Solutions {
	return sourceSolutions{s: s, src: src, opt: opt}
}

type sourceSolutions struct {
	s   *dependency.Setting
	src *instance.Instance
	opt chase.Options
}

func (p sourceSolutions) Source() *instance.Instance { return p.src }

func (p sourceSolutions) Universal(f func(*instance.Instance)) error {
	u, err := chase.UniversalSolution(p.s, p.src, p.opt)
	if err != nil {
		return cwa.NoSolution(err)
	}
	f(u)
	return nil
}

func (p sourceSolutions) Core() (*instance.Instance, error) { return cwa.Minimal(p.s, p.src, p.opt) }

func (p sourceSolutions) CanSol() (*instance.Instance, error) { return cwa.CanSol(p.s, p.src, p.opt) }

// AnswersOn computes the chosen semantics by the method Choose picks,
// reading from sols only the solution that method needs.
func AnswersOn(s *dependency.Setting, q query.Evaluable, sols Solutions, sem Semantics, opt Options) (*query.TupleSet, error) {
	if sem < CertainCap || sem > MaybeCup {
		return nil, fmt.Errorf("certain: unknown semantics %v", sem)
	}
	m := Choose(s, q, sem)
	planCounters[m].Inc()
	switch m {
	case NaiveUniversal:
		u, _ := asUCQ(q)
		return naiveUniversal(sols, u)
	case NullFree:
		var out *query.TupleSet
		err := sols.Universal(func(t *instance.Instance) { out = q.AnswerSet(t) })
		return out, err
	case ByDef:
		return byDefinitionOn(s, q, sols, sem, opt)
	}
	var t *instance.Instance
	var err error
	switch m {
	case FixpointCore, BoxCore, DiamondCore:
		t, err = sols.Core()
	default:
		t, err = sols.CanSol()
	}
	if err != nil {
		return nil, err
	}
	switch m {
	case FixpointCore, FixpointCanSol:
		u, _ := asUCQ(q)
		return BoxUCQIneqPTime(s, u, t)
	case BoxCore, BoxCanSol:
		return Box(s, q, t, opt)
	}
	return Diamond(s, q, t, opt)
}

// naiveUniversal is Lemma 7.7's evaluation: Q(T)↓ on a universal solution.
func naiveUniversal(sols Solutions, u query.UCQ) (*query.TupleSet, error) {
	var out *query.TupleSet
	err := sols.Universal(func(t *instance.Instance) { out = query.NullFree(u.Answers(t)) })
	return out, err
}
