package query

// The interpreted reference engine: ground truth for the randomized
// crosschecks of the compiled Plan path (crosscheck_test.go). It lives in a
// test file so production builds do not carry a second evaluator; being
// exported, it is visible to the external query_test package.

import "repro/internal/instance"

// MatchAtomsRef is the interpreted reference engine: it re-plans the atom
// order at every recursion level and keys bindings through a map. It is kept
// as the ground truth for randomized crosschecks against the compiled Plan
// path and follows the same callback contract as MatchAtoms.
func MatchAtomsRef(ins *instance.Instance, atoms []Atom, init Binding, f func(Binding) bool) bool {
	env := init.Clone()
	remaining := make([]Atom, len(atoms))
	copy(remaining, atoms)
	return matchRec(ins, remaining, env, f)
}

func matchRec(ins *instance.Instance, remaining []Atom, env Binding, f func(Binding) bool) bool {
	if len(remaining) == 0 {
		return f(env)
	}
	// Pick the atom with the most bound terms (ties: fewer unbound vars).
	best, bestScore := 0, -1
	for i, a := range remaining {
		score := 0
		for _, t := range a.Terms {
			if !t.IsVar() {
				score += 2
			} else if _, ok := env[t.Var]; ok {
				score += 2
			}
		}
		if score > bestScore {
			best, bestScore = i, score
		}
	}
	a := remaining[best]
	rest := make([]Atom, 0, len(remaining)-1)
	rest = append(rest, remaining[:best]...)
	rest = append(rest, remaining[best+1:]...)

	pattern := make([]instance.Value, len(a.Terms))
	bound := make([]bool, len(a.Terms))
	for i, t := range a.Terms {
		if v, ok := t.resolve(env); ok {
			pattern[i] = v
			bound[i] = true
		}
	}
	cont := true
	ins.MatchTuples(a.Rel, pattern, bound, func(args []instance.Value) bool {
		// Bind unbound variables; verify repeated-variable consistency.
		var newly []string
		ok := true
		for i, t := range a.Terms {
			if bound[i] {
				continue
			}
			if v, alreadyBound := env[t.Var]; alreadyBound {
				if v != args[i] {
					ok = false
					break
				}
				continue
			}
			env[t.Var] = args[i]
			newly = append(newly, t.Var)
		}
		if ok {
			cont = matchRec(ins, rest, env, f)
		}
		for _, v := range newly {
			delete(env, v)
		}
		return cont
	})
	return cont
}
