// Package incr is the incremental-maintenance subsystem: it keeps a
// scenario's chase result up to date under source-tuple inserts and
// deletes, instead of re-chasing from scratch on every change.
//
// Inserts run a semi-naive delta chase seeded only with the new tuples
// (chase.Resumable.Extend, reusing the compiled per-dependency plans).
// Deletes walk the justification graph — built from the chase's Observer
// callbacks, mirroring the paper's justifications (Definitions 4.1–4.2) —
// to retract exactly the derived atoms whose every justification is gone
// (DRed-style over-delete), then re-saturate to re-derive survivors. When
// an egd merge is implicated the per-atom bookkeeping is unreliable
// (values were identified across the instance), so deletions fall back to
// a bounded full re-chase; the same fallback covers settings with
// non-monotone (general FO) s-t bodies, whose matches cannot be
// maintained by a delta join.
//
// Correctness target: after every mutation batch the maintained instance
// is a universal solution for the current source — hom-equivalent to a
// from-scratch chase, with an isomorphic core, so all four certain/maybe
// semantics agree (the randomized crosscheck in this package verifies
// exactly that). Note the maintained instance need not be *isomorphic* to
// the from-scratch chase: chase results are firing-order dependent, and a
// continuation sees atoms an initial chase would not have, which can
// satisfy heads early. Universality is the invariant that survives.
package incr

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/chase"
	"repro/internal/dependency"
	"repro/internal/instance"
	"repro/internal/metrics"
)

// ErrNotIncremental reports that the setting cannot be maintained by this
// engine: its chase is not guaranteed to terminate (not weakly acyclic),
// so there is no fixpoint to maintain.
var ErrNotIncremental = errors.New("incr: setting is not weakly acyclic")

// Engine maintains the chase result of one (setting, source) pair under
// source mutations. All methods are safe for concurrent use; mutations are
// serialized internally. Reads of a served fixpoint share the lock, so a
// long evaluation in View delays mutations but no other reader, and
// Version takes no lock at all.
type Engine struct {
	// mu is held exclusively by Apply and by the repairs ensure makes, and
	// shared by reads of a state that needs none.
	mu sync.RWMutex
	// version mirrors source.Version() for lock-free reads; Apply stores
	// it under mu.
	version atomic.Uint64

	s *dependency.Setting
	// maintainable reports that every s-t tgd body is conjunctive, the
	// precondition for delta-chasing inserts (FO bodies are non-monotone).
	maintainable bool

	source *instance.Instance // owned clone; never exposed directly
	res    *chase.Resumable   // nil while noSol != nil
	g      *graph             // nil when !maintainable

	// merged is set when any egd application has rewritten values since
	// the last rebuild: the justification graph's atom identities are then
	// stale and deletions fall back to a re-chase.
	merged bool
	// dirty is set when the last run stopped early (budget or deadline):
	// the instance is mid-chase and must be re-saturated or rebuilt before
	// it is served.
	dirty bool
	// noSol holds the egd-failure error when the current source has no
	// solution. The engine stays usable: later mutations can remove the
	// offending tuples, which triggers a rebuild.
	noSol error

	// Snapshots memoised until the next mutation. They are atomic because
	// readers holding mu shared fill them; whoever clears them holds mu
	// exclusively.
	srcSnap atomic.Pointer[instance.Instance] // source snapshot
	uniSnap atomic.Pointer[instance.Instance] // universal solution (τ-reduct)
}

// ApplyResult reports what a mutation batch did.
type ApplyResult struct {
	// Inserted and Deleted count the source atoms actually added/removed
	// (net of duplicates, absent deletions, and within-batch cancels).
	Inserted, Deleted int
	// Version is the source version after the batch.
	Version uint64
	// Fallback reports that the batch was resolved by a full re-chase
	// instead of incremental maintenance.
	Fallback bool
	// NoSolution reports that the new source has no solution (an egd
	// failed). The mutation is still applied.
	NoSolution bool
	// Steps counts the chase steps this batch cost (delta or rebuild).
	Steps int
	// Atoms is the size of the maintained universal solution after the
	// batch (0 when NoSolution).
	Atoms int
}

// New builds an engine for the setting and source and runs the initial
// chase. Only weakly acyclic settings are accepted (ErrNotIncremental
// otherwise). An egd failure is not an error here: the engine records the
// no-solution state, which mutations may later repair; Solution reports
// it. Budget/cancel errors from opt are returned and leave the engine
// dirty; it re-saturates on the next use.
func New(s *dependency.Setting, src *instance.Instance, opt chase.Options) (*Engine, error) {
	if !s.WeaklyAcyclic() {
		return nil, ErrNotIncremental
	}
	if src.HasNulls() {
		return nil, fmt.Errorf("incr: source instance must be null-free")
	}
	maintainable := true
	for _, d := range s.ST {
		if d.BodyAtoms == nil {
			maintainable = false
			break
		}
	}
	e := &Engine{s: s, maintainable: maintainable, source: src.Clone()}
	e.version.Store(e.source.Version())
	return e, e.rebuild(opt)
}

// observer routes chase callbacks into the engine's justification graph.
// It is only attached for maintainable settings.
type observer struct{ e *Engine }

func (o observer) TGDFired(d *dependency.TGD, body, inserted []instance.Atom) {
	if o.e.merged {
		return // graph is already stale; recording would not repair it
	}
	o.e.g.record(body, inserted)
}

func (o observer) EgdApplied(dep string, winner, loser instance.Value) {
	o.e.merged = true
}

// rebuild chases the current source from scratch, resetting the graph and
// all failure state. Callers hold e.mu (or own e exclusively, as New does).
func (e *Engine) rebuild(opt chase.Options) error {
	e.merged = false
	e.dirty = false
	e.noSol = nil
	e.res = nil
	e.srcSnap.Store(nil)
	e.uniSnap.Store(nil)
	var obs chase.Observer
	if e.maintainable {
		e.g = newGraph()
		obs = observer{e}
	}
	r, err := chase.NewResumable(e.s, e.source, opt, obs)
	if err != nil {
		if chase.IsEgdFailure(err) {
			e.noSol = err
			return nil // a known no-solution state is consistent, not broken
		}
		e.res = r // partial state; a later ReSaturate can finish it
		e.dirty = true
		return err
	}
	e.res = r
	return nil
}

// ensure brings the engine to a served-state fixpoint: re-saturates a
// dirty (interrupted) chase or reports the recorded no-solution error.
// Callers hold e.mu.
func (e *Engine) ensure(opt chase.Options) error {
	if e.noSol != nil {
		return e.noSol
	}
	if e.res == nil {
		return e.rebuildReporting(opt)
	}
	if e.dirty {
		if err := e.res.ReSaturate(opt); err != nil {
			if chase.IsEgdFailure(err) {
				e.noSol = err
				e.res = nil
				return e.noSol
			}
			return err
		}
		e.dirty = false
		e.uniSnap.Store(nil)
	}
	return nil
}

// read runs f on a served fixpoint. When the state needs no repair, f runs
// under the shared lock, beside other readers; otherwise the state is
// repaired by ensure and f runs under the exclusive lock.
func (e *Engine) read(opt chase.Options, f func()) error {
	e.mu.RLock()
	if e.noSol != nil || (e.res != nil && !e.dirty) {
		defer e.mu.RUnlock()
		if e.noSol != nil {
			return e.noSol
		}
		f()
		return nil
	}
	e.mu.RUnlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.ensure(opt); err != nil {
		return err
	}
	f()
	return nil
}

// rebuildReporting is rebuild plus the no-solution check, for paths that
// must hand an error to a caller expecting a solution.
func (e *Engine) rebuildReporting(opt chase.Options) error {
	if err := e.rebuild(opt); err != nil {
		return err
	}
	return e.noSol
}

// Version returns the monotone source version: it advances by one for
// every source atom actually inserted or removed.
func (e *Engine) Version() uint64 { return e.version.Load() }

// Maintainable reports whether inserts can be delta-chased (every s-t body
// conjunctive). Non-maintainable engines resolve every mutation by full
// re-chase.
func (e *Engine) Maintainable() bool { return e.maintainable }

// SourceSnapshot returns an immutable snapshot of the current source
// instance. The snapshot is memoized until the next mutation.
func (e *Engine) SourceSnapshot() *instance.Instance {
	e.mu.RLock()
	defer e.mu.RUnlock()
	snap := e.srcSnap.Load()
	if snap == nil {
		snap = e.source.Clone()
		e.srcSnap.Store(snap)
	}
	return snap
}

// Solution returns an immutable snapshot of the maintained universal
// solution (the τ-reduct of the chase fixpoint), re-saturating first if an
// earlier run was interrupted. It fails with the recorded egd failure when
// the current source has no solution. The snapshot is memoized until the
// next mutation.
func (e *Engine) Solution(opt chase.Options) (*instance.Instance, error) {
	var snap *instance.Instance
	err := e.read(opt, func() {
		snap = e.uniSnap.Load()
		if snap == nil {
			snap = e.res.Target()
			e.uniSnap.Store(snap)
		}
	})
	return snap, err
}

// View calls f with the maintained universal solution in place: the
// τ-reduct of the chase fixpoint as a read-only view that shares the
// engine's storage (instance.ReductView), after the same re-saturation and
// no-solution check as Solution. Unlike Solution it copies and memoises
// nothing. f runs under the engine's lock, shared with other readers, so
// mutations wait for it but Version, snapshots and other views do not; f
// must neither modify the instance nor retain it, and must not call the
// engine.
func (e *Engine) View(opt chase.Options, f func(*instance.Instance)) error {
	return e.read(opt, func() { f(e.res.Instance().ReductView(e.s.Target)) })
}

// Steps returns the lifetime chase steps of the maintained state (0 while
// in a no-solution state).
func (e *Engine) Steps() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.res == nil {
		return 0
	}
	return e.res.Steps()
}

// Apply validates and applies a mutation batch to the source, then brings
// the chase result up to date: inserts extend the chase semi-naively,
// deletes retract via the justification graph and re-saturate, and the
// fallback cases (egd merges, FO bodies, dirty or failed state) re-chase
// from scratch. Validation errors leave the engine untouched; chase errors
// (budget, deadline, egd failure) are reported in the result or returned
// with the mutation already applied — matching how registration treats a
// failing chase.
func (e *Engine) Apply(muts []instance.Mutation, opt chase.Options) (ApplyResult, error) {
	e.mu.Lock()
	defer e.mu.Unlock()

	for _, m := range muts {
		arity, ok := e.s.Source[m.Atom.Rel]
		if !ok {
			return ApplyResult{}, fmt.Errorf("incr: %s is not a source relation", m.Atom.Rel)
		}
		if len(m.Atom.Args) != arity {
			return ApplyResult{}, fmt.Errorf("incr: %s has arity %d, got %d arguments", m.Atom.Rel, arity, len(m.Atom.Args))
		}
		for _, v := range m.Atom.Args {
			if !v.IsConst() {
				return ApplyResult{}, fmt.Errorf("incr: source atom %v must be null-free", m.Atom)
			}
		}
	}

	// Apply in order, tracking the net effect: an insert and delete of the
	// same atom inside one batch cancel out (successive successful ops on
	// one atom necessarily alternate direction).
	net := make(map[string]instance.Mutation)
	var order []string
	res := ApplyResult{}
	for _, m := range muts {
		applied := false
		if m.Insert {
			applied = e.source.Add(m.Atom)
		} else {
			applied = e.source.Remove(m.Atom)
		}
		if !applied {
			continue
		}
		k := atomKey(m.Atom)
		if prev, ok := net[k]; ok && prev.Insert != m.Insert {
			delete(net, k)
		} else {
			net[k] = m
			order = append(order, k)
		}
	}
	var netIns, netDel []instance.Atom
	for _, k := range order {
		m, ok := net[k]
		if !ok {
			continue
		}
		if m.Insert {
			netIns = append(netIns, m.Atom)
			res.Inserted++
		} else {
			netDel = append(netDel, m.Atom)
			res.Deleted++
		}
	}
	res.Version = e.source.Version()
	e.version.Store(res.Version)
	if len(netIns) == 0 && len(netDel) == 0 {
		res.NoSolution = e.noSol != nil
		if e.res != nil {
			res.Atoms = e.res.Instance().Len() - e.source.Len()
		}
		return res, nil
	}

	e.srcSnap.Store(nil)
	e.uniSnap.Store(nil)
	metrics.IncrMutations.Inc()

	start := 0
	if e.res != nil {
		start = e.res.Steps()
	}
	err := e.maintain(netIns, netDel, opt, &res)
	if e.res != nil {
		if res.Fallback {
			res.Steps = e.res.Steps() // rebuild restarts the lifetime counter
		} else {
			res.Steps = e.res.Steps() - start
			metrics.IncrDeltaFirings.Add(int64(res.Steps))
		}
	}
	if err != nil {
		if chase.IsEgdFailure(err) {
			e.noSol = err
			e.res = nil
			res.NoSolution = true
			return res, nil
		}
		e.dirty = true
		return res, err
	}
	res.NoSolution = e.noSol != nil
	if e.res != nil && !res.NoSolution {
		res.Atoms = e.res.Instance().Len() - e.source.Len()
	}
	return res, nil
}

// maintain updates the chase state for the net mutation effect. Callers
// hold e.mu and have already applied the atoms to e.source.
func (e *Engine) maintain(netIns, netDel []instance.Atom, opt chase.Options, res *ApplyResult) error {
	incremental := e.maintainable && // delta join requires conjunctive s-t bodies
		e.res != nil && e.noSol == nil && !e.dirty && // a broken state cannot be patched
		(len(netDel) == 0 || !e.merged) // merges invalidate the graph's atom identities

	if !incremental {
		res.Fallback = true
		metrics.IncrFallbackRechase.Inc()
		return e.rebuild(opt)
	}

	if len(netDel) > 0 {
		derived := e.g.retract(netDel)
		metrics.IncrRetractions.Add(int64(len(derived)))
		e.res.RemoveAtoms(append(append([]instance.Atom(nil), netDel...), derived...))
	}
	if len(netIns) > 0 {
		// Extend runs the shared fixpoint loop, which also re-derives
		// anything the retraction over-deleted.
		return e.res.Extend(netIns, opt)
	}
	return e.res.ReSaturate(opt)
}
