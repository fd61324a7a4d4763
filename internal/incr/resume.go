package incr

import (
	"errors"
	"fmt"

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
// steps seeds the lifetime chase-step counter for reporting. The caller
// asserts fixpoint is the chase fixpoint of (s, src); a stale pair yields
// a non-universal maintained state, which is why the store only persists
// fixpoints captured under the scenario's mutation lock.
func Resume(s *dependency.Setting, src, fixpoint *instance.Instance, steps int) (*Engine, error) {
	if !s.WeaklyAcyclic() {
		return nil, ErrNotIncremental
	}
	if src.HasNulls() {
		return nil, fmt.Errorf("incr: source instance must be null-free")
	}
	if fixpoint == nil {
		return nil, errors.New("incr: Resume requires a fixpoint")
	}
	maintainable := true
	for _, d := range s.ST {
		if d.BodyAtoms == nil {
			maintainable = false
			break
		}
	}
	e := &Engine{s: s, maintainable: maintainable, source: src, merged: true}
	e.version.Store(src.Version())
	var obs chase.Observer
	if maintainable {
		e.g = newGraph()
		obs = observer{e}
	}
	e.res = chase.ResumeFixpoint(s, fixpoint, steps, obs)
	return e, nil
}

// PersistSnapshot captures the engine's persistable state in one critical
// section: the current source, plus the chase fixpoint and step count when
// the engine has a clean one (fixpoint nil otherwise — no-solution or
// interrupted states persist the source alone). Taking both under one lock
// matters: a source captured after a mutation paired with a fixpoint
// captured before it would resume into a silently non-universal state.
func (e *Engine) PersistSnapshot() (src, fixpoint *instance.Instance, steps int) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	src = e.srcSnap.Load()
	if src == nil {
		src = e.source.Clone()
		e.srcSnap.Store(src)
	}
	if e.res != nil && e.noSol == nil && !e.dirty {
		fixpoint = e.res.Instance().Clone()
		steps = e.res.Steps()
	}
	return src, fixpoint, steps
}

// FixpointSnapshot returns a clone of the full chase fixpoint (over σ ∪ τ)
// and the lifetime step count, the state Resume needs to reconstruct the
// engine. It reports false when there is no clean fixpoint to persist: the
// engine is in a no-solution state or was interrupted mid-chase (dirty) —
// callers then persist the source alone and re-chase at recovery.
func (e *Engine) FixpointSnapshot() (*instance.Instance, int, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.res == nil || e.noSol != nil || e.dirty {
		return nil, 0, false
	}
	return e.res.Instance().Clone(), e.res.Steps(), true
}
