package certain

import (
	"fmt"

	"repro/internal/dependency"
	"repro/internal/instance"
	"repro/internal/query"
)

// BoxUCQIneqPTime computes □Q(T) for a union of conjunctive queries with at
// most one inequality per disjunct, for settings whose target dependencies
// are egds only (or empty). This is the polynomial algorithm in the style of
// Fagin, Kolaitis, Miller & Popa that the paper invokes for the PTIME
// entries of Table 1's second column: unlike Box, which enumerates
// exponentially many valuations, it runs a forced-equality fixpoint per
// candidate answer.
//
// For a candidate tuple ā, any valuation v with ā ∉ Q(v(T)) and v(T) ⊨ Σt is
// forced to (a) equate the two sides of every egd violation and (b) falsify
// every inequality-disjunct match producing ā by equating the inequality's
// sides; matches persist under further collapsing, so the forced equalities
// form a least fixpoint. ā is certain iff the fixpoint forces a
// contradiction (two distinct constants) or a pure disjunct match of ā
// survives, which no valuation can kill.
func BoxUCQIneqPTime(s *dependency.Setting, u query.UCQ, t *instance.Instance) (*query.TupleSet, error) {
	if !s.EgdsOnly() {
		return nil, fmt.Errorf("certain: BoxUCQIneqPTime requires egd-only target dependencies")
	}
	if u.MaxInequalitiesPerDisjunct() > 1 {
		return nil, fmt.Errorf("certain: BoxUCQIneqPTime requires at most one inequality per disjunct")
	}
	// Candidate answers: the null-free tuples of the naive evaluation
	// (which is evaluation under the valuation sending nulls to pairwise
	// distinct fresh constants — any certain tuple must appear there).
	candidates := query.NullFree(u.Answers(t))
	out := query.NewTupleSet()
	for _, cand := range candidates.Tuples() {
		certain, err := certainByFixpoint(s, u, t, cand)
		if err != nil {
			return nil, err
		}
		if certain {
			out.Add(cand)
		}
	}
	return out, nil
}

// certainByFixpoint runs the forced-equality fixpoint for one candidate.
func certainByFixpoint(s *dependency.Setting, u query.UCQ, t *instance.Instance, cand query.Tuple) (bool, error) {
	uf := newUnionFind(t.Dom())
	for {
		quotient := t.Map(uf.mapping())
		// (a) Egd obligations: v(T) must satisfy Σt.
		forced, contradiction := egdObligation(s, quotient, uf)
		if contradiction {
			return true, nil
		}
		if forced {
			continue
		}
		// (b) Disjunct matches producing the candidate.
		progress := false
		for _, d := range u.Disjuncts {
			obligation, killed, err := disjunctObligation(d, quotient, uf, cand)
			if err != nil {
				return false, err
			}
			if obligation == obligationCertain {
				return true, nil
			}
			if killed {
				progress = true
				break
			}
		}
		if !progress {
			return false, nil
		}
	}
}

type obligationKind int

const (
	obligationNone obligationKind = iota
	obligationCertain
)

// egdObligation looks for an egd body match in the quotient with unequal
// sides and equates them. contradiction is true when two distinct constants
// were forced equal.
func egdObligation(s *dependency.Setting, quotient *instance.Instance, uf *unionFind) (forced, contradiction bool) {
	for _, d := range s.EGDs {
		query.MatchAtoms(quotient, d.Body, query.Binding{}, func(env query.Binding) bool {
			l, r := env[d.L], env[d.R]
			if l != r {
				forced = true
				contradiction = !uf.union(l, r)
				return false
			}
			return true
		})
		if forced {
			return forced, contradiction
		}
	}
	return false, false
}

// disjunctObligation looks for a match of the disjunct in the quotient whose
// head equals the candidate. A pure match (no inequality, or an inequality
// already between distinct constants) makes the candidate certain; an
// inequality match is killed by equating its sides. killed reports that a
// forced equality was applied.
func disjunctObligation(d query.CQ, quotient *instance.Instance, uf *unionFind, cand query.Tuple) (obligationKind, bool, error) {
	result := obligationNone
	killed := false
	var err error
	query.MatchAtoms(quotient, d.Atoms, query.Binding{}, func(env query.Binding) bool {
		// Head must produce the candidate (candidate constants are their own
		// representatives; two constants never share a class).
		for i, v := range d.Head {
			if env[v] != uf.find(cand[i]) {
				return true
			}
		}
		if len(d.Diseqs) == 0 {
			result = obligationCertain
			return false
		}
		dq := d.Diseqs[0]
		l, lok := resolveTerm(dq.L, env)
		r, rok := resolveTerm(dq.R, env)
		if !lok || !rok {
			err = fmt.Errorf("certain: inequality variable not bound by body in %v", d)
			return false
		}
		if l == r {
			return true // inequality already false: match dead
		}
		if l.IsConst() && r.IsConst() {
			// Two distinct constants: the inequality holds in every
			// valuation; the match cannot be killed.
			result = obligationCertain
			return false
		}
		if !uf.union(l, r) {
			result = obligationCertain // contradiction while killing
			return false
		}
		killed = true
		return false
	})
	return result, killed, err
}

func resolveTerm(t query.Term, env query.Binding) (instance.Value, bool) {
	if !t.IsVar() {
		return t.Val, true
	}
	v, ok := env[t.Var]
	return v, ok
}

// unionFind maintains forced-equality classes over domain values. Constants
// always win representative elections; merging two distinct constants fails.
type unionFind struct {
	parent map[instance.Value]instance.Value
}

func newUnionFind(dom []instance.Value) *unionFind {
	uf := &unionFind{parent: make(map[instance.Value]instance.Value, len(dom))}
	for _, v := range dom {
		uf.parent[v] = v
	}
	return uf
}

func (uf *unionFind) find(v instance.Value) instance.Value {
	p, ok := uf.parent[v]
	if !ok {
		uf.parent[v] = v
		return v
	}
	if p == v {
		return v
	}
	r := uf.find(p)
	uf.parent[v] = r
	return r
}

// union merges the classes of a and b; it reports false when both classes
// are rooted at distinct constants (a contradiction).
func (uf *unionFind) union(a, b instance.Value) bool {
	ra, rb := uf.find(a), uf.find(b)
	if ra == rb {
		return true
	}
	if ra.IsConst() && rb.IsConst() {
		return false
	}
	// The constant (or the smaller null) becomes the representative.
	if rb.IsConst() || (!ra.IsConst() && instance.Less(rb, ra)) {
		ra, rb = rb, ra
	}
	uf.parent[rb] = ra
	return true
}

// mapping returns the representative map for quotienting an instance.
func (uf *unionFind) mapping() map[instance.Value]instance.Value {
	out := make(map[instance.Value]instance.Value, len(uf.parent))
	for v := range uf.parent {
		out[v] = uf.find(v)
	}
	return out
}
