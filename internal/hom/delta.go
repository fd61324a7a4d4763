package hom

// Incremental homomorphism existence. cwa.Enumerate's universality prune and
// score.Core's per-block probes ask hom-existence questions whose sources
// differ from an earlier question by a small delta of atoms (one
// justification firing, one block-local retraction). Two tools exploit that
// structure instead of recompiling each source from scratch:
//
//   - Search.Extend appends compiled atoms and slots for the delta onto an
//     existing Search, sharing the parent's compiled prefix. The parent stays
//     immutable, so sibling extensions of one parent are safe, including
//     concurrently.
//
//   - PrecheckRefute runs posting-list arc consistency over a raw atom list,
//     refuting existence without compiling anything at all: an absent ground
//     atom or an empty candidate domain refutes.
//
// Extend preserves the answers of the from-scratch path exactly, and
// PrecheckRefute only refutes when no homomorphism exists (both pinned by
// the randomized crosschecks in delta_test.go); only the work changes.

import (
	"repro/internal/instance"
	"repro/internal/metrics"
)

// Extend returns the compiled search for the parent's source plus the delta
// atoms, reusing the parent's compiled atoms, slots and occurrence lists
// instead of re-running CompileAtoms over the whole source. The delta atoms
// are appended after the parent's (ordered among themselves by the usual
// fewest-unseen-nulls heuristic, with the parent's nulls counting as seen),
// so every parent slot is bound before any delta atom runs and delta
// occurrences of parent nulls compile to pattern fills.
//
// The parent is not modified and remains valid: shared slices are
// capacity-trimmed on hand-off, so sibling Extend calls on one parent —
// including concurrent ones — never clobber each other. Like CompileAtoms,
// the delta atoms' Args must stay unmodified while the result is in use.
//
// The extended search's answers are identical to compiling parent+delta from
// scratch; only the atom traversal order (and hence backtracking effort) may
// differ.
func (s *Search) Extend(delta []instance.Atom) *Search {
	if len(delta) == 0 {
		return s
	}
	metrics.HomExtends.Inc()
	atoms := orderAtomsSeen(delta, s.slotOf)
	total := 0
	for _, a := range atoms {
		total += len(a.Args)
	}
	child := &Search{
		nulls:  s.nulls[:len(s.nulls):len(s.nulls)],
		consts: s.consts[:len(s.consts):len(s.consts)],
		atoms:  s.atoms[:len(s.atoms):len(s.atoms)],
		occs:   make([][]searchOcc, len(s.occs), len(s.occs)+total),
		slotOf: make(map[instance.Value]int, len(s.slotOf)+total),
	}
	for i, l := range s.occs {
		child.occs[i] = l[:len(l):len(l)]
	}
	for k, v := range s.slotOf {
		child.slotOf[k] = v
	}
	constSeen := make(map[instance.Value]bool, len(s.consts))
	for _, c := range s.consts {
		constSeen[c] = true
	}
	// Same flat-backing discipline as CompileAtoms, sized for the delta only.
	patFlat := make([]instance.Value, total)
	boundFlat := make([]bool, total)
	opsFlat := make([]searchOp, 0, total)
	fillsFlat := make([]searchFill, 0, total)
	// First-binding atom (absolute index) of the slots the delta introduces.
	// Parent slots are bound strictly before every delta atom, so a lookup
	// miss means "bound earlier" and compiles to a fill.
	slotAtom := make(map[int]int, total)
	off := 0
	for ai, a := range atoms {
		abs := len(s.atoms) + ai
		sa := searchAtom{
			rel:     a.Rel,
			pattern: patFlat[off : off+len(a.Args) : off+len(a.Args)],
			bound:   boundFlat[off : off+len(a.Args) : off+len(a.Args)],
			ops:     opsFlat[off : off : off+len(a.Args)],
			fills:   fillsFlat[off : off : off+len(a.Args)],
		}
		off += len(a.Args)
		for i, v := range a.Args {
			if v.IsConst() {
				sa.pattern[i] = v
				sa.bound[i] = true
				if !constSeen[v] {
					constSeen[v] = true
					child.consts = append(child.consts, v)
				}
				continue
			}
			if slot, ok := child.slotOf[v]; ok {
				child.addOcc(slot, a.Rel, i)
				if ba, fresh := slotAtom[slot]; fresh && ba == abs {
					sa.ops = append(sa.ops, searchOp{pos: i, slot: slot, check: true})
					continue
				}
				sa.bound[i] = true
				sa.fills = append(sa.fills, searchFill{pos: i, slot: slot})
				continue
			}
			slot := len(child.nulls)
			child.slotOf[v] = slot
			child.nulls = append(child.nulls, v)
			slotAtom[slot] = abs
			child.occs = append(child.occs, []searchOcc{{rel: a.Rel, pos: i}})
			sa.ops = append(sa.ops, searchOp{pos: i, slot: slot})
		}
		child.atoms = append(child.atoms, sa)
	}
	return child
}

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
// universal solution refutes universality for the whole subtree. Refutes are
// counted in metrics.HomACRefutes.
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
