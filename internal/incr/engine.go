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
// maintained by a delta join. Settings that are not weakly acyclic have no
// guaranteed fixpoint: the engine chases them only when read, and a
// mutation resets them to unchased.
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
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/chase"
	"repro/internal/dependency"
	"repro/internal/instance"
	"repro/internal/metrics"
)

// Engine maintains the chase result of one (setting, source) pair under
// source mutations. All methods are safe for concurrent use; mutations are
// serialized internally. Reads of a held fixpoint share the lock, so a
// long evaluation in View delays mutations but no other reader, and
// Version and SourceSnapshot take no lock at all.
//
// The engine is in one of three states: chased (res holds a chase
// fixpoint), no-solution (noSol holds the egd failure), or unchased (both
// nil). Settings whose chase is guaranteed to terminate (weakly acyclic,
// Proposition 6.6) are chased eagerly by New and by every mutation. Any
// other setting stays unchased until a read chases it under that read's
// budget and deadline, and a mutation resets it to unchased. A chase that
// stops early (budget or deadline) keeps no partial state: the engine is
// left unchased and the next read starts from the source, so a
// non-terminating chase cannot accumulate across requests.
type Engine struct {
	// mu is held exclusively by Apply and by a read that has to chase, and
	// shared by reads of a chased or no-solution state.
	mu sync.RWMutex

	s *dependency.Setting
	// weakly reports that the setting is weakly acyclic, so its chase
	// terminates and is run eagerly.
	weakly bool
	// maintainable reports that mutations can be maintained incrementally:
	// the setting is weakly acyclic and every s-t tgd body is conjunctive
	// (FO bodies are non-monotone, so inserts cannot be delta-chased).
	maintainable bool

	// source is the current source instance. It is never modified in
	// place: Apply publishes a new instance, so a loaded pointer is an
	// immutable snapshot that needs no lock.
	source atomic.Pointer[instance.Instance]
	res    *chase.Resumable // nil while unchased or noSol != nil
	g      *graph           // nil when !maintainable

	// merged is set when any egd application has rewritten values since
	// the last rebuild: the justification graph's atom identities are then
	// stale and deletions fall back to a re-chase.
	merged bool
	// noSol holds the egd-failure error when the current source has no
	// solution. The engine stays usable: later mutations can remove the
	// offending tuples, which triggers a rebuild.
	noSol error

	// uniSnap memoises Solution's τ-reduct until the next state change. It
	// is atomic because readers holding mu shared fill it; whoever clears
	// it holds mu exclusively.
	uniSnap atomic.Pointer[instance.Instance]
	// status is what Status reports, republished under mu exclusively by
	// every state change so that Status needs no lock.
	status atomic.Pointer[Status]
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

// New builds an engine for the setting and source. The engine keeps its
// own copy of src. A weakly acyclic setting is chased right away under
// opt; any other setting is left unchased for the first read. An egd
// failure is not an error here: the engine records the no-solution state,
// which mutations may later repair; Solution reports it. A budget or
// cancellation error from opt is returned beside the engine, which is then
// unchased and chases again on the next read.
func New(s *dependency.Setting, src *instance.Instance, opt chase.Options) (*Engine, error) {
	e, err := newEngine(s, src.Clone())
	if err != nil {
		return nil, err
	}
	if e.weakly {
		return e, e.rebuild(opt)
	}
	return e, nil
}

// newEngine builds an unchased engine that owns src.
func newEngine(s *dependency.Setting, src *instance.Instance) (*Engine, error) {
	if src.HasNulls() {
		return nil, fmt.Errorf("incr: source instance must be null-free")
	}
	e := &Engine{s: s, weakly: s.WeaklyAcyclic()}
	e.maintainable = e.weakly
	for _, d := range s.ST {
		if d.BodyAtoms == nil {
			e.maintainable = false
			break
		}
	}
	e.source.Store(src)
	e.status.Store(&Status{})
	return e, nil
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

// reset drops the chase state, leaving the engine unchased. Callers hold
// e.mu (or own e exclusively) and publish once the state change is done.
func (e *Engine) reset() {
	e.res = nil
	e.g = nil
	e.merged = false
	e.noSol = nil
	e.uniSnap.Store(nil)
}

// publish records the chase state for Status. σ and τ are disjoint and
// the chase adds no source atoms, so the τ-reduct's size is the
// fixpoint's less the source's. Callers hold e.mu exclusively (or own e).
func (e *Engine) publish() {
	st := Status{}
	if e.res != nil {
		st = Status{Chased: true, Steps: e.res.Steps(), Atoms: e.res.Instance().Len() - e.source.Load().Len()}
	}
	e.status.Store(&st)
}

// rebuild chases the current source from scratch. An egd failure records
// the no-solution state and is not returned; a budget or cancellation
// error is returned and leaves the engine unchased. Callers hold e.mu (or
// own e exclusively, as New does).
func (e *Engine) rebuild(opt chase.Options) error {
	defer e.publish()
	e.reset()
	var obs chase.Observer
	if e.maintainable {
		e.g = newGraph()
		obs = observer{e}
	}
	r, err := chase.NewResumable(e.s, e.source.Load(), opt, obs)
	switch {
	case err == nil:
		e.res = r
	case chase.IsEgdFailure(err):
		e.noSol = err
	default:
		e.reset() // keep no partial state
		return err
	}
	return nil
}

// read runs f on a chase fixpoint. A chased engine runs f under the shared
// lock, beside other readers; an unchased one is chased under opt and the
// exclusive lock first. The recorded egd failure is returned instead of
// running f when the source has no solution.
func (e *Engine) read(opt chase.Options, f func()) error {
	e.mu.RLock()
	if e.res != nil || e.noSol != nil {
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
	if e.res == nil && e.noSol == nil {
		if err := e.rebuild(opt); err != nil {
			return err
		}
	}
	if e.noSol != nil {
		return e.noSol
	}
	f()
	return nil
}

// Version returns the monotone source version: it advances by one for
// every source atom actually inserted or removed.
func (e *Engine) Version() uint64 { return e.source.Load().Version() }

// Maintainable reports whether mutations are maintained incrementally
// (weakly acyclic, every s-t body conjunctive). Other engines resolve every
// mutation by a full re-chase, or by a reset to unchased when the setting
// is not weakly acyclic.
func (e *Engine) Maintainable() bool { return e.maintainable }

// SourceSnapshot returns the current source instance. It is immutable
// (Apply publishes a new one) and is read without locking, so it never
// waits on an in-flight mutation.
func (e *Engine) SourceSnapshot() *instance.Instance { return e.source.Load() }

// Solution returns an immutable snapshot of the maintained universal
// solution (the τ-reduct of the chase fixpoint), chasing first under opt
// if the engine is unchased. It fails with the recorded egd failure when
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
// engine's storage (instance.ReductView), after the same chase and
// no-solution check as Solution. Unlike Solution it copies and memoises
// nothing. f runs under the engine's lock, shared with other readers:
// other views, Version and snapshots do not wait for it, but a mutation
// does, so a mutation of the scenario waits for an in-flight enumeration or
// query on the view. f must neither modify the instance nor retain it. It
// may call the lock-free SourceSnapshot, Version and Status; a source read
// there is of the view's version. Any other engine method may deadlock.
func (e *Engine) View(opt chase.Options, f func(*instance.Instance)) error {
	return e.read(opt, func() { f(e.res.Instance().ReductView(e.s.Target)) })
}

// Status describes the engine's chase state without copying it.
type Status struct {
	// Chased reports that the engine holds a chase fixpoint.
	Chased bool
	// Steps is the lifetime chase-step count behind the fixpoint and Atoms
	// the size of its τ-reduct; both are 0 unless Chased.
	Steps, Atoms int
}

// Status reports the current chase state. It never chases and takes no
// lock, so it does not wait on an in-flight mutation or chase.
func (e *Engine) Status() Status { return *e.status.Load() }

// Apply validates and applies a mutation batch to the source, then brings
// the chase result up to date: inserts extend the chase semi-naively,
// deletes retract via the justification graph and re-saturate, and the
// fallback cases (egd merges, FO bodies, unchased or failed state)
// re-chase from scratch. On a setting that is not weakly acyclic every
// change resets the engine to unchased instead, and the next read chases.
// Validation errors leave the engine untouched; chase errors (budget,
// deadline) are returned with the mutation already applied and the engine
// unchased, and an egd failure is reported in the result — matching how
// registration treats a failing chase.
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

	// Apply in order to a copy of the source, tracking the net effect: an
	// insert and delete of the same atom inside one batch cancel out
	// (successive successful ops on one atom necessarily alternate
	// direction).
	cur := e.source.Load()
	next := cur.Clone()
	net := make(map[string]instance.Mutation)
	var order []string
	res := ApplyResult{}
	for _, m := range muts {
		applied := false
		if m.Insert {
			applied = next.Add(m.Atom)
		} else {
			applied = next.Remove(m.Atom)
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
	res.Version = next.Version()
	if res.Version != cur.Version() {
		e.source.Store(next)
	}
	if len(netIns) == 0 && len(netDel) == 0 {
		res.NoSolution = e.noSol != nil
		res.Atoms = e.Status().Atoms
		return res, nil
	}

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
		e.reset() // keep no partial state
		if chase.IsEgdFailure(err) {
			e.noSol, err = err, nil
		}
	}
	e.publish()
	res.NoSolution = e.noSol != nil
	res.Atoms = e.Status().Atoms
	return res, err
}

// maintain updates the chase state for the net mutation effect. Callers
// hold e.mu and have already published the mutated source.
func (e *Engine) maintain(netIns, netDel []instance.Atom, opt chase.Options, res *ApplyResult) error {
	incremental := e.maintainable && // weakly acyclic with conjunctive s-t bodies
		e.res != nil && // an unchased or failed state has nothing to patch
		(len(netDel) == 0 || !e.merged) // merges invalidate the graph's atom identities

	if !incremental {
		res.Fallback = true
		metrics.IncrFallbackRechase.Inc()
		if !e.weakly {
			e.reset() // the next read chases under its own budget
			return nil
		}
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
