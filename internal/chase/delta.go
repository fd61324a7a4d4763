package chase

import (
	"repro/internal/dependency"
	"repro/internal/instance"
)

// Semi-naive (delta-driven) body evaluation: because tgd bodies are
// monotone, any body match that did not exist before a batch of atom
// insertions must use at least one inserted atom. deltaBodyEnvs therefore
// seeds the join, one body-atom occurrence at a time, with each delta atom
// (via the tgd's compiled unifier), and completes the remaining atoms
// against the tgd's cached delta plan (body minus the seeded atom, its
// variables pre-bound). Results are delivered as BodyPlan slot environments;
// the env passed to f is reused — copy what you keep.
//
// The same match can arise once per delta atom it uses; environments are
// deduplicated by their justification key (d, ū, v̄) before f is invoked, so
// tgd passes see each firing candidate exactly once.
//
// Only target tgds benefit: s-t tgd bodies are evaluated on the σ-reduct,
// which never changes during a chase, so their matches are enumerated once
// up front.
func deltaBodyEnvs(d *dependency.TGD, cur *instance.Instance, delta []instance.Atom, f func(env []instance.Value) bool) {
	DeltaBodyEnvsKeyed(d, cur, delta, func(env []instance.Value, _ string) bool {
		return f(env)
	})
}

// deltaState is the per-call scratch shared by the delta drivers: slot
// buffers sized to the body plan and the justification-key dedup set. The
// drivers start from the zero value and fill it in on the first delta atom
// over one of the body's relations, so a delta holding none of them
// allocates nothing.
type deltaState struct {
	buf  []instance.Value // delta result in body slot order
	init []instance.Value // unified pre-bound slots (prefix used)
	seen map[string]bool
}

func (st *deltaState) ensure(d *dependency.TGD) {
	if st.seen != nil {
		return
	}
	n := d.BodyPlan().NumSlots()
	st.buf = make([]instance.Value, n)
	st.init = make([]instance.Value, n)
	st.seen = make(map[string]bool)
}

func mustConjunctive(d *dependency.TGD) {
	if d.BodyAtoms == nil {
		panic("chase: deltaBodyEnvs requires a conjunctive body")
	}
}

// deltaAtomEnvs seeds the tgd's body join with one delta atom and reports
// whether enumeration may continue (false: f stopped it).
func deltaAtomEnvs(d *dependency.TGD, cur *instance.Instance, st *deltaState, da instance.Atom, f func(env []instance.Value, key string) bool) bool {
	for i, ba := range d.BodyAtoms {
		if ba.Rel != da.Rel || len(ba.Terms) != len(da.Args) {
			continue
		}
		st.ensure(d)
		if !d.DeltaUnifierFor(i).Unify(da.Args, st.init) {
			continue
		}
		perm := d.DeltaPerm(i)
		stopped := !d.DeltaPlan(i).Eval(cur, st.init, func(env []instance.Value) bool {
			for j, s := range perm {
				st.buf[s] = env[j]
			}
			k := justificationKeySlots(d, st.buf)
			if st.seen[k] {
				return true
			}
			st.seen[k] = true
			return f(st.buf, k)
		})
		if stopped {
			return false
		}
	}
	return true
}

// DeltaBodyEnvsKeyedBetween is DeltaBodyEnvsKeyed with the delta given as a
// watermark interval over cur's insertion log instead of a copied atom
// slice: the delta atoms are exactly those added between the two marks, in
// insertion order (instance.EachAddedBetween). Both marks must be valid on
// cur. Atoms of relations not mentioned in the body (e.g. source atoms in
// the interval when d is a target tgd) unify with nothing and are skipped.
// The env passed to f is reused — copy what you keep. f must not mutate cur.
// buf is the caller's scratch for the delta atoms' arguments, as for
// instance.EachAddedBetween: with capacity for every arity, the sweep
// allocates none.
func DeltaBodyEnvsKeyedBetween(d *dependency.TGD, cur *instance.Instance, from, to instance.Mark, buf []instance.Value, f func(env []instance.Value, key string) bool) {
	mustConjunctive(d)
	var st deltaState
	cur.EachAddedBetween(from, to, buf, func(da instance.Atom) bool {
		return deltaAtomEnvs(d, cur, &st, da, f)
	})
}

// DeltaBodyEnvsKeyed is deltaBodyEnvs with the justification key (already
// computed for the dedup) passed alongside each environment, for callers
// that key their own bookkeeping by justification (cwa's enumeration closes
// states under chosen justifications this way). The env passed to f is
// reused — copy what you keep. f must not mutate cur.
func DeltaBodyEnvsKeyed(d *dependency.TGD, cur *instance.Instance, delta []instance.Atom, f func(env []instance.Value, key string) bool) {
	mustConjunctive(d)
	var st deltaState
	for _, da := range delta {
		if !deltaAtomEnvs(d, cur, &st, da, f) {
			return
		}
	}
}

// deltaTracker tracks the insertion-log position of the last tgd pass: the
// next pass's delta is the watermark interval [mark, now) — a view over the
// instance's own log, with no copied atom sets.
type deltaTracker struct {
	mark instance.Mark
	// full forces the next pass to re-enumerate everything (set after egd
	// applications, which rewrite values and invalidate the delta; a stale
	// mark — removals bumped the epoch — forces the same fallback).
	full bool
}

func (t *deltaTracker) invalidate() { t.full = true }
