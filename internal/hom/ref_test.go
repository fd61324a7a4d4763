package hom

// The interpreted, unpruned reference finder: ground truth for the
// randomized crosschecks of the compiled, pruned Search path
// (crosscheck_test.go). It lives in a test file so production builds do not
// carry a second search engine.

import (
	"repro/internal/instance"
	"repro/internal/metrics"
)

// findRef is the interpreted reference finder, kept as ground truth for the
// randomized crosschecks of the compiled, pruned Search path.
func findRef(from, to *instance.Instance, opts ...Option) (Mapping, bool) {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	f := &finder{to: to, injective: o.injective, mapping: Mapping{}, used: map[instance.Value]bool{},
		avoid: o.avoid, hasAvoid: o.hasAvoid}
	// Seed forced assignments (constants in forced must be identities).
	for k, v := range o.forced {
		if k.IsConst() {
			if k != v {
				return nil, false
			}
			continue
		}
		if o.injective && f.used[v] {
			return nil, false
		}
		f.mapping[k] = v
		f.used[v] = true
	}
	if o.injective {
		// Constants are fixed, so they occupy their own images.
		for _, c := range from.Consts() {
			if f.used[c] {
				// A forced null already maps onto this constant.
				return nil, false
			}
			f.used[c] = true
		}
	}
	atoms := orderAtoms(from.AtomsShared())
	if !f.search(atoms) {
		return nil, false
	}
	out := make(Mapping, len(f.mapping))
	for k, v := range f.mapping {
		out[k] = v
	}
	return out, true
}

type finder struct {
	to        *instance.Instance
	injective bool
	mapping   Mapping
	used      map[instance.Value]bool
	avoid     instance.Value
	hasAvoid  bool
}

// excluded reports whether a candidate image tuple mentions the avoided
// value.
func (f *finder) excluded(args []instance.Value) bool {
	if !f.hasAvoid {
		return false
	}
	for _, v := range args {
		if v == f.avoid {
			return true
		}
	}
	return false
}

func (f *finder) search(atoms []instance.Atom) bool {
	if len(atoms) == 0 {
		return true
	}
	a := atoms[0]
	rest := atoms[1:]
	pattern := make([]instance.Value, len(a.Args))
	bound := make([]bool, len(a.Args))
	for i, v := range a.Args {
		if v.IsConst() {
			pattern[i] = v
			bound[i] = true
		} else if w, ok := f.mapping[v]; ok {
			pattern[i] = w
			bound[i] = true
		}
	}
	found := false
	f.to.MatchTuples(a.Rel, pattern, bound, func(args []instance.Value) bool {
		if f.excluded(args) {
			return true
		}
		var newly []instance.Value
		ok := true
		for i, v := range a.Args {
			if bound[i] {
				continue
			}
			if w, already := f.mapping[v]; already {
				if w != args[i] {
					ok = false
					break
				}
				continue
			}
			if f.injective && f.used[args[i]] {
				ok = false
				break
			}
			f.mapping[v] = args[i]
			f.used[args[i]] = true
			newly = append(newly, v)
		}
		if ok && f.search(rest) {
			found = true
			return false // keep the successful bindings and stop iterating
		}
		if len(newly) > 0 {
			metrics.HomBacktracks.Inc()
		}
		for _, v := range newly {
			w := f.mapping[v]
			delete(f.mapping, v)
			delete(f.used, w)
		}
		return true
	})
	return found
}
