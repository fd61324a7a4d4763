package incr

import (
	"errors"

	"repro/internal/chase"
	"repro/internal/dependency"
	"repro/internal/instance"
)

// Resume rebuilds an engine around a persisted chase fixpoint instead of
// re-chasing the source. The durable store calls this at recovery and on
// page-in: src and fixpoint come from the instance codec, and the engine
// takes ownership of both.
//
// The resumed engine delta-chases inserts exactly like a live one. What a
// fixpoint alone cannot restore is the justification graph (it is built
// from Observer callbacks during chasing), so the engine starts in the
// merged state: the first deletion falls back to a bounded full re-chase,
// which rebuilds the graph and clears the flag — the same degradation an
// egd merge causes on a live engine.
//
// The fixpoint is kept only if it holds every atom of src, as a chase
// fixpoint over σ ∪ τ does. Anything else (earlier builds persisted the
// τ-reduct alone for settings that are not weakly acyclic) is dropped and
// the engine starts unchased, to be chased by its first read.
//
// steps seeds the lifetime chase-step counter for reporting. The caller
// asserts fixpoint is the chase fixpoint of (s, src); a stale pair yields
// a non-universal maintained state, which is why the store only persists
// fixpoints captured under the scenario's mutation lock.
func Resume(s *dependency.Setting, src, fixpoint *instance.Instance, steps int) (*Engine, error) {
	if fixpoint == nil {
		return nil, errors.New("incr: Resume requires a fixpoint")
	}
	e, err := newEngine(s, src)
	if err != nil {
		return nil, err
	}
	if !holdsAll(fixpoint, src) {
		return e, nil
	}
	e.merged = true
	var obs chase.Observer
	if e.maintainable {
		e.g = newGraph()
		obs = observer{e}
	}
	e.res = chase.ResumeFixpoint(s, fixpoint, steps, obs)
	e.publish()
	return e, nil
}

// PersistSnapshot captures the engine's persistable state in one critical
// section: the current source, plus the chase fixpoint over σ ∪ τ and its
// step count when the engine is chased (fixpoint nil otherwise —
// unchased or no-solution states persist the source alone). Taking both
// under one lock matters: a source captured after a mutation paired with a
// fixpoint captured before it would resume into a silently non-universal
// state.
func (e *Engine) PersistSnapshot() (src, fixpoint *instance.Instance, steps int) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.res != nil {
		fixpoint = e.res.Instance().Clone()
		steps = e.res.Steps()
	}
	return e.source.Load(), fixpoint, steps
}

// holdsAll reports whether every atom of sub is in ins.
func holdsAll(ins, sub *instance.Instance) bool {
	ok := true
	for _, rel := range sub.Relations() {
		sub.Tuples(rel, func(args []instance.Value) bool {
			ok = ins.Has(instance.Atom{Rel: rel, Args: args})
			return ok
		})
		if !ok {
			return false
		}
	}
	return true
}
