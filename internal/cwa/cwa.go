// Package cwa implements the paper's primary contribution: CWA-presolutions
// and CWA-solutions for data exchange settings with target dependencies
// (Section 4), the structure of the CWA-solution space (Section 5), and the
// decision procedures of Section 6.
//
// The load-bearing facts, all verified by this package's tests:
//
//   - Theorem 4.8: T is a CWA-solution iff T is a universal solution and a
//     CWA-presolution.
//   - Theorem 5.1 / Corollary 5.2: CWA-solutions exist iff universal
//     solutions exist, and Core_D(S) is the unique minimal CWA-solution.
//   - Example 5.3: maximal CWA-solutions need not exist; there can be
//     exponentially many pairwise incomparable ones.
//   - Proposition 5.4: for egd-only or egd+full-tgd settings, CanSol_D(S)
//     is a maximal CWA-solution.
//   - Proposition 6.6: for weakly acyclic settings, a CWA-solution is
//     computable in polynomial time (we compute Core of the standard chase).
package cwa

import (
	"errors"
	"fmt"

	"repro/internal/chase"
	"repro/internal/dependency"
	"repro/internal/hom"
	"repro/internal/instance"
	"repro/internal/query"
	"repro/internal/score"
)

// ErrNoSolution reports that no (CWA-)solution exists: the standard chase
// failed on an egd.
var ErrNoSolution = errors.New("cwa: no solution exists (chase failed)")

// NoSolution maps a chase's egd failure to an error wrapping ErrNoSolution
// and returns any other error unchanged.
func NoSolution(err error) error {
	if chase.IsEgdFailure(err) {
		return fmt.Errorf("%w: %v", ErrNoSolution, err)
	}
	return err
}

// Exists decides Existence-of-CWA-Solutions(D) for the source instance: by
// Corollary 5.2 this is equivalent to the existence of universal solutions,
// which the standard chase decides for weakly acyclic settings. For general
// settings the problem is undecidable (Theorem 6.2); a chase overrunning its
// budget surfaces as ErrBudgetExceeded.
func Exists(s *dependency.Setting, src *instance.Instance, opt chase.Options) (bool, error) {
	_, err := chase.Standard(s, src, opt)
	switch {
	case err == nil:
		return true, nil
	case chase.IsEgdFailure(err):
		return false, nil
	default:
		return false, err
	}
}

// Minimal computes Core_D(S), the unique minimal CWA-solution
// (Theorem 5.1), as the core of the standard-chase universal solution. This
// is the polynomial-time CWA-solution of Proposition 6.6. It returns
// ErrNoSolution if the chase fails.
func Minimal(s *dependency.Setting, src *instance.Instance, opt chase.Options) (*instance.Instance, error) {
	u, err := chase.UniversalSolution(s, src, opt)
	if err != nil {
		return nil, NoSolution(err)
	}
	return score.Core(u), nil
}

// CanSol computes the canonical solution CanSol_D(S): the result of the
// canonical successful α-chase (chase.Canonical). By Proposition 5.4 it is
// a maximal CWA-solution when the setting's target dependencies are egds
// only, or when all tgds are full and the target dependencies are egds and
// full tgds. For other settings it is still a CWA-presolution candidate but
// need not be maximal (Example 5.3) — and need not even be a CWA-solution.
func CanSol(s *dependency.Setting, src *instance.Instance, opt chase.Options) (*instance.Instance, error) {
	res, _, err := chase.Canonical(s, src, opt)
	if err != nil {
		return nil, NoSolution(err)
	}
	return res.Target, nil
}

// IsUniversal reports whether t is a universal solution for src: t must be
// a solution and admit a homomorphism into some universal solution (the
// standard-chase result), which by composition gives homomorphisms into
// every solution.
func IsUniversal(s *dependency.Setting, src, t *instance.Instance, opt chase.Options) (bool, error) {
	if !chase.IsSolution(s, src, t) {
		return false, nil
	}
	u, err := chase.UniversalSolution(s, src, opt)
	if err != nil {
		if chase.IsEgdFailure(err) {
			// No solutions at all — unreachable given t is one.
			return false, nil
		}
		return false, err
	}
	return hom.Exists(t, u), nil
}

// IsCWASolution decides whether t is a CWA-solution for src under s via the
// Theorem 4.8 characterisation: t must be a universal solution and a
// CWA-presolution. The presolution check is an exponential search in the
// worst case (the problem is NP for weakly acyclic settings, Section 6).
func IsCWASolution(s *dependency.Setting, src, t *instance.Instance, opt chase.Options) (bool, error) {
	universal, err := IsUniversal(s, src, t, opt)
	if err != nil || !universal {
		return false, err
	}
	return IsCWAPresolution(s, src, t), nil
}

// IsCWAPresolution decides whether S ∪ T is the result of a successful
// α-chase of S for some α (Definition 4.6).
//
// By Lemma 4.5 a successful α-chase applies only tgds, so S ∪ T must be the
// least fixpoint of firing tgd heads under some consistent choice of
// witnesses: for every tgd body match over S ∪ T there must be a chosen
// witness tuple whose head atoms lie inside S ∪ T (otherwise the match would
// remain α-applicable), the union of fired heads must produce exactly T, the
// derivation must be well-founded (reachable bottom-up from S), and the
// result must satisfy the egds. The search branches over witness choices,
// one per justification (d, ū, v̄).
func IsCWAPresolution(s *dependency.Setting, src, t *instance.Instance) bool {
	_, ok := FindPresolutionAlpha(s, src, t)
	return ok
}

// FindPresolutionAlpha searches for the witness behind a CWA-presolution:
// a choice of one head-witness tuple per justification (d, ū, v̄) whose
// least fixpoint from the source is exactly S ∪ T. It returns the chosen
// witnesses keyed by justification (chase.JustificationKeyOf) — the
// relevant fragment of the α whose successful chase produces T — and
// whether one exists.
func FindPresolutionAlpha(s *dependency.Setting, src, t *instance.Instance) (map[string]query.Binding, bool) {
	full := instance.Union(src, t)
	// Egds must hold in the final result (Definition 4.2(1b)).
	for _, d := range s.EGDs {
		if !chase.SatisfiesEGD(d, full) {
			return nil, false
		}
	}
	// Collect all body matches over the final instance, grouped by
	// justification, with their witness sets.
	var decisions []presolDecision
	var keys []string
	seen := make(map[string]bool)
	for _, d := range s.AllTGDs() {
		for _, env := range chase.BodyMatches(s, d, full) {
			key := chase.JustificationKeyOf(d, env)
			if seen[key] {
				continue
			}
			seen[key] = true
			ws := chase.HeadWitnesses(d, full, env)
			if len(ws) == 0 {
				return nil, false // not even a solution
			}
			decisions = append(decisions, presolDecision{d: d, env: env, witnesses: ws, isST: isSourceToTarget(s, d)})
			keys = append(keys, key)
		}
	}
	// Backtracking over witness choices; at each leaf verify that the least
	// fixpoint of the chosen firings equals S ∪ T exactly.
	choice := make([]query.Binding, len(decisions))
	var try func(i int) bool
	try = func(i int) bool {
		if i == len(decisions) {
			return lfpEquals(src, full, decisions, choice)
		}
		for _, w := range decisions[i].witnesses {
			choice[i] = w
			if try(i + 1) {
				return true
			}
		}
		return false
	}
	if !try(0) {
		return nil, false
	}
	alpha := make(map[string]query.Binding, len(decisions))
	for i, key := range keys {
		alpha[key] = choice[i]
	}
	return alpha, true
}

// presolDecision is one justification (d, ū, v̄) over the candidate result,
// with the witness tuples whose head atoms all lie inside it.
type presolDecision struct {
	d         *dependency.TGD
	env       query.Binding
	witnesses []query.Binding
	isST      bool
}

func isSourceToTarget(s *dependency.Setting, d *dependency.TGD) bool {
	for _, st := range s.ST {
		if st == d {
			return true
		}
	}
	return false
}

// lfpEquals computes the least fixpoint of firing the chosen witnesses from
// src and compares it with full. A firing is enabled once its tgd body holds
// in the current instance; s-t bodies hold from the start because the
// σ-reduct never changes during a chase.
func lfpEquals(src, full *instance.Instance, decisions []presolDecision, choice []query.Binding) bool {
	cur := src.Clone()
	fired := make([]bool, len(decisions))
	for {
		progress := false
		for i, dec := range decisions {
			if fired[i] {
				continue
			}
			if !dec.isST && !bodyAtomsPresent(dec.d, cur, dec.env) {
				continue
			}
			env := dec.env.Clone()
			for z, v := range choice[i] {
				env[z] = v
			}
			for _, a := range chase.HeadAtoms(dec.d, env) {
				cur.Add(a)
			}
			fired[i] = true
			progress = true
		}
		if !progress {
			break
		}
	}
	return cur.Equal(full)
}

// bodyAtomsPresent reports whether every body atom of a conjunctive-bodied
// tgd holds in cur under env.
func bodyAtomsPresent(d *dependency.TGD, cur *instance.Instance, env query.Binding) bool {
	for _, a := range d.BodyAtoms {
		args := make([]instance.Value, len(a.Terms))
		for i, t := range a.Terms {
			if t.IsVar() {
				args[i] = env[t.Var]
			} else {
				args[i] = t.Val
			}
		}
		if !cur.Has(instance.Atom{Rel: a.Rel, Args: args}) {
			return false
		}
	}
	return true
}
