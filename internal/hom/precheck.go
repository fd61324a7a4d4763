package hom

// PrecheckRefute refutes homomorphism existence for a raw atom list without
// compiling anything at all: an absent ground atom or an empty candidate
// domain refutes. It only refutes when no homomorphism exists (pinned by the
// randomized crosscheck in precheck_test.go).

import (
	"repro/internal/instance"
	"repro/internal/metrics"
)

// PrecheckRefute reports that no homomorphism from atoms into to exists,
// using only the target's per-position posting indexes, without compiling a
// search (false means undecided, not existence). It refutes when
//
//   - some atom's relation is empty or of another arity in to,
//   - some constant never occurs at a position it must map to,
//   - some ground atom is absent from to, or
//   - some null's candidate domain (the values occurring at every position
//     the null occupies) is empty: the compiled search's arc-consistency
//     emptiness condition, with domain scans stopping at the first survivor.
//
// cwa.Enumerate runs it on a candidate firing's head atoms before
// materializing the child state: the head atoms are a subset of every
// instance in the child's subtree, so their non-embeddability into the
// universal solution refutes universality for the whole subtree. It also
// runs first when a state's universality is decided from scratch. Refutes
// are counted in metrics.HomACRefutes.
func PrecheckRefute(atoms []instance.Atom, to *instance.Instance) bool {
	refute := func() bool {
		metrics.HomACRefutes.Inc()
		return true
	}
	// Gather the distinct (null, rel, pos) occurrences in first-occurrence
	// order, in a stack buffer that a handful of nulls never outgrows, and
	// refute on the spot for constants, ground atoms and missing relations.
	var buf [16]nullOcc
	occs := buf[:0]
	for _, a := range atoms {
		if to.Arity(a.Rel) != len(a.Args) || to.RelLen(a.Rel) == 0 {
			return refute()
		}
		ground := true
	args:
		for i, v := range a.Args {
			if v.IsConst() {
				if !to.PosHasValue(a.Rel, i, v) {
					return refute()
				}
				continue
			}
			ground = false
			for _, o := range occs {
				if o.v == v && o.rel == a.Rel && o.pos == i {
					continue args
				}
			}
			occs = append(occs, nullOcc{v: v, searchOcc: searchOcc{rel: a.Rel, pos: i}})
		}
		// Every constant occurring at its position separately does not put
		// the whole tuple in to: E(a,v) is absent from {E(a,b), E(u,v)}.
		if ground && !to.Has(a) {
			return refute()
		}
	}
nulls:
	for i, n := range occs {
		for _, o := range occs[:i] {
			if o.v == n.v {
				continue nulls // not n.v's first occurrence
			}
		}
		// n.v's occurrences are occs[i:] carrying n.v; scan the values at
		// the most selective one.
		base := i
		for j := i + 1; j < len(occs); j++ {
			o := occs[j]
			if o.v == n.v && to.PosDistinct(o.rel, o.pos) < to.PosDistinct(occs[base].rel, occs[base].pos) {
				base = j
			}
		}
		survives := false
		to.EachPosValue(occs[base].rel, occs[base].pos, func(v instance.Value, _ int) bool {
			for j := i; j < len(occs); j++ {
				if o := occs[j]; j != base && o.v == n.v && !to.PosHasValue(o.rel, o.pos, v) {
					return true
				}
			}
			survives = true
			return false
		})
		if !survives {
			return refute()
		}
	}
	return false
}

// nullOcc is one (rel, pos) occurrence of a null, for PrecheckRefute.
type nullOcc struct {
	v instance.Value
	searchOcc
}
