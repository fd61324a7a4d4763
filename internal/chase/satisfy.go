// Package chase implements the chase procedures of the paper: the standard
// chase of Fagin et al. (used to build universal solutions and decide
// existence for weakly acyclic settings) and the α-chase of Definition 4.1,
// the justification-controlled chase underlying CWA-presolutions.
package chase

import (
	"context"
	"errors"
	"fmt"
	"strconv"

	"repro/internal/dependency"
	"repro/internal/instance"
	"repro/internal/query"
)

// ErrBudgetExceeded reports that a chase did not reach a fixpoint within its
// step budget — the observable stand-in for potential non-termination
// (Existence-of-(CWA-)Solutions is undecidable in general, Theorem 6.2).
var ErrBudgetExceeded = errors.New("chase: step budget exceeded")

// ErrCanceled reports that a run was aborted through its context (deadline
// or cancellation) before reaching a fixpoint. It is the wall-clock sibling
// of ErrBudgetExceeded: on settings where termination is undecidable
// (Theorem 6.2, D_halt) a deadline bounds the run in time rather than in
// steps. Test with errors.Is(err, ErrCanceled).
var ErrCanceled = errors.New("chase: canceled")

// ContextErr returns nil when ctx is nil or still live, and otherwise an
// error wrapping ErrCanceled with the context's cause. It is the single
// cancellation check shared by the chase variants and the enumeration
// layers above them (cwa, certain).
func ContextErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("%w: %v", ErrCanceled, err)
	}
	return nil
}

// EgdFailureError reports a failing chase: an egd tried to equate two
// distinct constants (Definition 4.2(2)).
type EgdFailureError struct {
	Dep  string
	A, B instance.Value
}

func (e *EgdFailureError) Error() string {
	return fmt.Sprintf("chase: egd %s fails: cannot identify constants %v and %v", e.Dep, e.A, e.B)
}

// IsEgdFailure reports whether the error is an egd failure.
func IsEgdFailure(err error) bool {
	var e *EgdFailureError
	return errors.As(err, &e)
}

// bodyBindings enumerates the assignments (ū, v̄) under which the body of a
// tgd holds, invoking f with the binding of every frontier variable. For
// conjunctive bodies it joins through the instance indexes; for general FO
// bodies (s-t tgds) it evaluates under active-domain semantics on bodyInst.
// The binding passed to f is reused; copy what you keep. Enumeration stops
// early when f returns false.
func bodyBindings(d *dependency.TGD, bodyInst *instance.Instance, f func(query.Binding) bool) {
	if d.BodyAtoms != nil {
		d.BodyPlan().EvalBinding(bodyInst, nil, f)
		return
	}
	q := query.FOQuery{Vars: d.FrontierVars(), F: d.Body}
	for _, t := range q.Answers(bodyInst) {
		env := make(query.Binding, len(q.Vars))
		for i, v := range q.Vars {
			env[v] = t[i]
		}
		if !f(env) {
			return
		}
	}
}

// headSatisfied reports whether some extension of the binding to the
// existential variables makes every head atom present (the standard tgd
// satisfaction condition).
func headSatisfied(d *dependency.TGD, ins *instance.Instance, env query.Binding) bool {
	sat := false
	d.HeadPlan().EvalBinding(ins, env, func(query.Binding) bool {
		sat = true
		return false
	})
	return sat
}

// headSatisfiedSlots is headSatisfied on the slot-based hot path: env is a
// BodyPlan result environment (or a delta result permuted into body slot
// order), seeding HeadSlotsPlan directly with no name translation.
func headSatisfiedSlots(d *dependency.TGD, ins *instance.Instance, env []instance.Value) bool {
	sat := false
	d.HeadSlotsPlan().Eval(ins, env, func([]instance.Value) bool {
		sat = true
		return false
	})
	return sat
}

// justificationKeySlots is JustificationKeyOf for a body slot environment.
// It produces byte-for-byte the same key as Justification.Key with Z == "",
// built in a single buffer (the hot enumeration loops compute one key per
// body match per state).
func justificationKeySlots(d *dependency.TGD, env []instance.Value) string {
	xs, ys := d.XSlots(), d.YSlots()
	buf := make([]byte, 0, len(d.Name)+8*(len(xs)+len(ys))+4)
	buf = append(buf, d.Name...)
	buf = append(buf, '(')
	for i, s := range xs {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = appendValue(buf, env[s])
	}
	buf = append(buf, ';')
	for i, s := range ys {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = appendValue(buf, env[s])
	}
	buf = append(buf, ')', '.')
	return string(buf)
}

// appendValue appends Value.String() without the intermediate allocations.
func appendValue(buf []byte, v instance.Value) []byte {
	if v.IsNull() {
		buf = append(buf, '_')
		return strconv.AppendInt(buf, v.NullLabel(), 10)
	}
	return append(buf, instance.ConstName(v)...)
}

// headAtomsUnder instantiates the head atoms under the binding, which must
// cover x̄ and z̄.
func headAtomsUnder(d *dependency.TGD, env query.Binding) []instance.Atom {
	out := make([]instance.Atom, len(d.Head))
	for i, a := range d.Head {
		args := make([]instance.Value, len(a.Terms))
		for j, t := range a.Terms {
			if t.IsVar() {
				v, ok := env[t.Var]
				if !ok {
					panic("chase: unbound head variable " + t.Var)
				}
				args[j] = v
			} else {
				args[j] = t.Val
			}
		}
		out[i] = instance.Atom{Rel: a.Rel, Args: args}
	}
	return out
}

// tgdBodyInstance returns the instance a tgd's body is evaluated against:
// the σ-reduct for s-t tgds (quantifiers are relativized to the source
// active domain) and the full instance for target tgds.
func tgdBodyInstance(s *dependency.Setting, d *dependency.TGD, full *instance.Instance) *instance.Instance {
	for _, st := range s.ST {
		if st == d {
			return full.Reduct(s.Source)
		}
	}
	return full
}

// BodyMatches returns every assignment of the tgd's frontier variables
// (x̄ ∪ ȳ) under which its body holds. full is the instance over σ ∪ τ;
// s-t tgd bodies are evaluated on its σ-reduct.
func BodyMatches(s *dependency.Setting, d *dependency.TGD, full *instance.Instance) []query.Binding {
	var out []query.Binding
	bodyBindings(d, tgdBodyInstance(s, d, full), func(env query.Binding) bool {
		out = append(out, env.Clone())
		return true
	})
	return out
}

// HeadWitnesses returns the assignments of the tgd's existential variables
// w̄ for which every head atom ψ[ū, w̄] is present in the instance, given a
// body binding env. Each witness maps d.Exists to values.
func HeadWitnesses(d *dependency.TGD, ins *instance.Instance, env query.Binding) []query.Binding {
	var out []query.Binding
	d.HeadPlan().EvalBinding(ins, env, func(full query.Binding) bool {
		w := make(query.Binding, len(d.Exists))
		for _, z := range d.Exists {
			w[z] = full[z]
		}
		out = append(out, w)
		return true
	})
	// Deduplicate (MatchAtoms can report the same witness via different
	// enumeration paths when head atoms overlap).
	seen := make(map[string]bool, len(out))
	uniq := out[:0]
	for _, w := range out {
		key := ""
		for _, z := range d.Exists {
			key += w[z].String() + "|"
		}
		if !seen[key] {
			seen[key] = true
			uniq = append(uniq, w)
		}
	}
	return uniq
}

// HeadAtoms instantiates the tgd's head under a binding covering x̄ and z̄.
func HeadAtoms(d *dependency.TGD, env query.Binding) []instance.Atom {
	return headAtomsUnder(d, env)
}

// JustificationOf builds the justification (d, ū, v̄, z) from a body binding.
func JustificationOf(d *dependency.TGD, env query.Binding, z string) Justification {
	u := make([]instance.Value, len(d.X))
	for i, x := range d.X {
		u[i] = env[x]
	}
	v := make([]instance.Value, len(d.Y))
	for i, y := range d.Y {
		v[i] = env[y]
	}
	return Justification{Dep: d.Name, U: u, V: v, Z: z}
}

// JustificationKeyOf is JustificationOf(..., "").Key() without the variable
// part: it identifies the pair (d, ū, v̄) shared by all of d's existential
// variables, the unit at which an α assigns a witness tuple.
func JustificationKeyOf(d *dependency.TGD, env query.Binding) string {
	return JustificationOf(d, env, "").Key()
}

// BodyEnvsKeyed returns every body match of a conjunctive-body tgd in cur as
// a BodyPlan slot environment (fresh copies), paired with its justification
// key (d, ū, v̄). The slot path avoids the Binding maps of BodyMatches on
// enumeration hot loops.
func BodyEnvsKeyed(d *dependency.TGD, cur *instance.Instance) ([][]instance.Value, []string) {
	var envs [][]instance.Value
	var keys []string
	d.BodyPlan().Eval(cur, nil, func(env []instance.Value) bool {
		envs = append(envs, append([]instance.Value(nil), env...))
		keys = append(keys, justificationKeySlots(d, env))
		return true
	})
	return envs, keys
}

// SatisfiesTGD reports whether the instance satisfies the tgd.
func SatisfiesTGD(s *dependency.Setting, d *dependency.TGD, full *instance.Instance) bool {
	bodyInst := tgdBodyInstance(s, d, full)
	ok := true
	bodyBindings(d, bodyInst, func(env query.Binding) bool {
		if !headSatisfied(d, full, env) {
			ok = false
			return false
		}
		return true
	})
	return ok
}

// SatisfiesEGD reports whether the instance satisfies the egd.
func SatisfiesEGD(d *dependency.EGD, full *instance.Instance) bool {
	p, l, r := d.BodyPlan()
	ok := true
	p.Eval(full, nil, func(env []instance.Value) bool {
		if env[l] != env[r] {
			ok = false
			return false
		}
		return true
	})
	return ok
}

// IsSolution reports whether t is a solution for src under s: S ∪ T must
// satisfy Σst and T must satisfy Σt (Section 2). t must be a target
// instance and src a null-free source instance.
func IsSolution(s *dependency.Setting, src, t *instance.Instance) bool {
	full := instance.Union(src, t)
	for _, d := range s.ST {
		if !SatisfiesTGD(s, d, full) {
			return false
		}
	}
	for _, d := range s.TGDs {
		if !SatisfiesTGD(s, d, t) {
			return false
		}
	}
	for _, d := range s.EGDs {
		if !SatisfiesEGD(d, t) {
			return false
		}
	}
	return true
}

// findEgdViolation locates a binding violating the egd, or ok=false.
func findEgdViolation(d *dependency.EGD, ins *instance.Instance) (a, b instance.Value, ok bool) {
	p, l, r := d.BodyPlan()
	p.Eval(ins, nil, func(env []instance.Value) bool {
		if env[l] != env[r] {
			a, b, ok = env[l], env[r], true
			return false
		}
		return true
	})
	return a, b, ok
}

// applyEgd resolves one egd violation in place and returns the surviving
// value and the replaced one: a null is replaced by the other value; between
// two nulls the larger label is replaced by the smaller (the paper's
// disambiguation). Two distinct constants make the chase fail.
func applyEgd(depName string, ins *instance.Instance, a, b instance.Value) (winner, loser instance.Value, err error) {
	switch {
	case a.IsConst() && b.IsConst():
		return 0, 0, &EgdFailureError{Dep: depName, A: a, B: b}
	case a.IsConst():
		winner, loser = a, b
	case b.IsConst():
		winner, loser = b, a
	case a.NullLabel() < b.NullLabel():
		winner, loser = a, b
	default:
		winner, loser = b, a
	}
	ins.ReplaceValue(loser, winner)
	return winner, loser, nil
}
