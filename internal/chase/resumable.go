package chase

import (
	"errors"
	"fmt"

	"repro/internal/dependency"
	"repro/internal/instance"
	"repro/internal/metrics"
	"repro/internal/query"
)

// ErrNotResumable reports that a setting cannot be maintained incrementally:
// some s-t tgd has a general first-order body, whose matches are not
// monotone in the source instance, so a source insertion cannot be reduced
// to a delta join. Callers must fall back to a full re-chase.
var ErrNotResumable = errors.New("chase: setting has a non-conjunctive s-t body, source delta not resumable")

// Observer receives every state change a Resumable chase makes, in the
// order it happens. The incremental-maintenance engine (internal/incr) uses
// it to build the justification graph that drives deletions.
//
// Callbacks run synchronously on the chasing goroutine and must not touch
// the chase or its instance.
type Observer interface {
	// TGDFired reports one tgd application: the ground body atoms of the
	// match (nil for general FO bodies, which have no atom list) and the
	// head atoms the firing actually inserted — head atoms that were
	// already present are not included.
	TGDFired(d *dependency.TGD, body, inserted []instance.Atom)
	// EgdApplied reports one egd application: loser was replaced by winner
	// throughout the instance.
	EgdApplied(dep string, winner, loser instance.Value)
}

// Resumable is a chase whose state survives the run, so it can be resumed
// after the source instance changes: Extend continues the chase after
// source insertions through a semi-naive delta seeded only with the new
// tuples, RemoveAtoms retracts atoms (source or derived), and ReSaturate
// re-runs full passes to a fixpoint. Standard is a run-once wrapper over
// this type; both produce identical chase sequences for identical inputs.
//
// A Resumable is not safe for concurrent use.
type Resumable struct {
	s     *dependency.Setting
	cur   *instance.Instance
	nulls *instance.NullSource
	obs   Observer

	steps int
	trace []Step

	stc     *stCache
	tracker *deltaTracker
	stSet   map[*dependency.TGD]bool
	// pendingST holds the s-t body environments discovered by Extend's
	// delta join, awaiting their first tgd pass. A full scan subsumes and
	// clears them (Extend also appends them to the stCache).
	pendingST map[*dependency.TGD][][]instance.Value
	// args is the delta sweeps' scratch for atom arguments (see
	// DeltaBodyEnvsKeyedBetween); a wider atom gets a slice of its own.
	args [8]instance.Value
}

// NewResumable chases src to a fixpoint and returns the live chase state.
// Error semantics match Standard: an egd failure returns (nil, error); a
// budget or cancellation error returns the partial state alongside the
// error, and the caller may still Extend/ReSaturate it later.
func NewResumable(s *dependency.Setting, src *instance.Instance, opt Options, obs Observer) (*Resumable, error) {
	if src.HasNulls() {
		return nil, fmt.Errorf("chase: source instance must be null-free")
	}
	r := &Resumable{
		s:       s,
		cur:     src.Clone(),
		nulls:   instance.NewNullSource(0),
		obs:     obs,
		stc:     &stCache{},
		tracker: &deltaTracker{full: true},
		stSet:   make(map[*dependency.TGD]bool, len(s.ST)),
	}
	for _, d := range s.ST {
		r.stSet[d] = true
	}
	if err := r.run(opt); err != nil {
		if IsEgdFailure(err) {
			return nil, err
		}
		return r, err
	}
	return r, nil
}

// Instance returns the live chase instance over σ ∪ τ. It is owned by the
// Resumable — callers must not mutate it and must not read it across a
// later Extend/RemoveAtoms/ReSaturate.
func (r *Resumable) Instance() *instance.Instance { return r.cur }

// Target returns a fresh snapshot of the τ-reduct: the computed target
// instance. The snapshot is independent of later chase activity.
func (r *Resumable) Target() *instance.Instance { return r.cur.Reduct(r.s.Target) }

// Steps returns the total dependency applications across all runs.
func (r *Resumable) Steps() int { return r.steps }

// Extend inserts the given null-free source atoms and chases the
// consequences: new s-t matches are found by a semi-naive delta join
// seeded only with the inserted atoms (ErrNotResumable if some s-t body is
// a general FO formula, whose matches are not monotone), and everything
// downstream runs on the ordinary delta-tracker path. opt's budget applies
// to this call alone. On budget or cancellation the state is left mid-run
// and a later ReSaturate can finish the job.
func (r *Resumable) Extend(atoms []instance.Atom, opt Options) error {
	for _, d := range r.s.ST {
		if d.BodyAtoms == nil {
			return ErrNotResumable
		}
	}
	var added []instance.Atom
	for _, a := range atoms {
		if !r.s.Source.Has(a.Rel) {
			return fmt.Errorf("chase: Extend: %s is not a source relation", a.Rel)
		}
		for _, v := range a.Args {
			if !v.IsConst() {
				return fmt.Errorf("chase: Extend: source atom %v must be null-free", a)
			}
		}
		if r.cur.Add(a) {
			added = append(added, a)
		}
	}
	if len(added) == 0 {
		return nil
	}
	if r.stc.reduct != nil {
		for _, a := range added {
			r.stc.reduct.Add(a)
		}
	}
	for _, d := range r.s.ST {
		var envs [][]instance.Value
		// Body atoms of s-t tgds are all source relations, so the delta
		// join against the full instance equals the join against the
		// σ-reduct.
		DeltaBodyEnvsKeyed(d, r.cur, added, func(env []instance.Value, _ string) bool {
			envs = append(envs, append([]instance.Value(nil), env...))
			return true
		})
		if len(envs) == 0 {
			continue
		}
		if cached, ok := r.stc.conj[d]; ok {
			r.stc.conj[d] = append(cached, envs...)
		}
		if r.pendingST == nil {
			r.pendingST = make(map[*dependency.TGD][][]instance.Value)
		}
		r.pendingST[d] = append(r.pendingST[d], envs...)
	}
	return r.run(opt)
}

// RemoveAtoms removes the given atoms (source or target) from the live
// instance and returns how many were actually present. The semi-naive
// delta is invalidated — removals can re-expose tgd violations whose heads
// were satisfied only by the removed atoms — so the caller must ReSaturate
// (or Extend, which runs the same loop) to restore the fixpoint. Removing
// a source atom also drops the cached s-t matches, since they may have
// used it.
func (r *Resumable) RemoveAtoms(atoms []instance.Atom) int {
	removed, srcTouched := 0, false
	for _, a := range atoms {
		if r.cur.Remove(a) {
			removed++
			if r.s.Source.Has(a.Rel) {
				srcTouched = true
			}
		}
	}
	if removed == 0 {
		return 0
	}
	if srcTouched {
		r.stc = &stCache{}
		r.pendingST = nil
	}
	r.tracker.invalidate()
	return removed
}

// ReSaturate chases to a fixpoint with full passes (no delta assumptions).
// opt's budget applies to this call alone.
func (r *Resumable) ReSaturate(opt Options) error {
	r.tracker.invalidate()
	return r.run(opt)
}

// run drives egd and tgd passes to a fixpoint. The budget in opt is
// relative to the call, not the lifetime step counter.
func (r *Resumable) run(opt Options) error {
	start := r.steps
	budget := opt.maxSteps()
	for {
		if err := opt.err(); err != nil {
			return err
		}
		if r.steps-start >= budget {
			return ErrBudgetExceeded
		}
		// Egds first: keeping the instance egd-consistent before firing
		// tgds avoids deriving atoms that an identification would merge
		// anyway. An egd application rewrites values throughout the
		// instance, so the semi-naive delta is invalidated.
		if applied, err := r.egdPass(opt); err != nil {
			return err
		} else if applied {
			r.tracker.invalidate()
			continue
		}
		if r.tgdPass(opt, start) {
			continue
		}
		return nil
	}
}

func (r *Resumable) egdPass(opt Options) (bool, error) {
	for _, d := range r.s.EGDs {
		a, b, ok := findEgdViolation(d, r.cur)
		if !ok {
			continue
		}
		winner, loser, err := applyEgd(d.Name, r.cur, a, b)
		if err != nil {
			return false, err
		}
		r.steps++
		metrics.ChaseSteps.Inc()
		if r.obs != nil {
			r.obs.EgdApplied(d.Name, winner, loser)
		}
		if opt.Trace {
			r.trace = append(r.trace, Step{Dep: d.Name, Kind: "egd", Equated: [2]instance.Value{a, b}})
		}
		return true, nil
	}
	return false, nil
}

// tgdPass fires all currently violating tgd bindings. Enumeration is
// semi-naive: on delta passes, only target-tgd matches touching an atom
// added by the previous pass are considered, plus any s-t matches Extend
// discovered (s-t tgd bodies otherwise live on the never-growing σ-reduct
// and cannot gain matches). Every candidate binding is re-checked before
// firing, so duplicate candidates are harmless.
//
// Conjunctive bodies run entirely on the slot-based compiled-plan path:
// body environments are []instance.Value keyed by the body plan's slots,
// head checks seed HeadSlotsPlan directly, and firing instantiates the
// compiled head templates. Only general FO bodies (some s-t tgds) still go
// through Bindings.
func (r *Resumable) tgdPass(opt Options, start int) bool {
	budget := opt.maxSteps()
	fired := false
	// The delta is the watermark interval since the previous pass. A stale
	// mark (removals bumped the instance epoch) degrades to a full scan, as
	// does an explicit invalidation. Atoms inserted by this pass land after
	// `to` in the log and so form the next pass's delta.
	fullScan := r.tracker.full || !r.cur.MarkValid(r.tracker.mark)
	from, to := r.tracker.mark, r.cur.Mark()
	r.tracker.full = false
	r.tracker.mark = to

	for _, d := range r.s.AllTGDs() {
		isst := r.stSet[d]
		var stDelta [][]instance.Value
		if isst {
			if fullScan {
				delete(r.pendingST, d) // subsumed by the full cached-env scan
			} else if envs, ok := r.pendingST[d]; ok {
				stDelta = envs
				delete(r.pendingST, d)
			} else {
				continue // σ-reduct unchanged: no new s-t matches
			}
		}

		if d.BodyAtoms == nil {
			// General FO body (s-t tgds only; Extend rejects these
			// settings, so stDelta is never set here): Binding-based path.
			var pending []query.Binding
			for _, env := range r.stc.foEnvs(r.s, d, r.cur) {
				if !headSatisfied(d, r.cur, env) {
					pending = append(pending, env.Clone())
				}
			}
			for _, env := range pending {
				if r.steps-start >= budget || opt.err() != nil {
					return true // budget/cancel check happens at the top of run
				}
				if headSatisfied(d, r.cur, env) {
					continue
				}
				for _, z := range d.Exists {
					env[z] = r.nulls.Fresh()
				}
				added := headAtomsUnder(d, env)
				var inserted []instance.Atom
				for _, a := range added {
					if r.cur.Add(a) && r.obs != nil {
						inserted = append(inserted, a)
					}
				}
				r.steps++
				metrics.ChaseSteps.Inc()
				fired = true
				if r.obs != nil {
					r.obs.TGDFired(d, nil, inserted)
				}
				if opt.Trace {
					r.trace = append(r.trace, Step{Dep: d.Name, Kind: "tgd", Added: added})
				}
			}
			continue
		}

		// Slot-based path.
		var pending [][]instance.Value
		collect := func(env []instance.Value) bool {
			if !headSatisfiedSlots(d, r.cur, env) {
				pending = append(pending, append([]instance.Value(nil), env...))
			}
			return true
		}
		switch {
		case stDelta != nil:
			for _, env := range stDelta {
				collect(env)
			}
		case isst:
			for _, env := range r.stc.conjEnvs(r.s, d, r.cur) {
				collect(env)
			}
		case fullScan:
			d.BodyPlan().Eval(r.cur, nil, collect)
		default:
			DeltaBodyEnvsKeyedBetween(d, r.cur, from, to, r.args[:0], func(env []instance.Value, _ string) bool {
				return collect(env)
			})
		}

		hp := d.HeadSlotsPlan()
		tmpl := d.HeadTemplates()
		existsSlots := d.ExistsSlots()
		for _, benv := range pending {
			if r.steps-start >= budget || opt.err() != nil {
				return true // budget/cancel check happens at the top of run
			}
			if headSatisfiedSlots(d, r.cur, benv) {
				continue
			}
			full := make([]instance.Value, hp.NumSlots())
			copy(full, benv)
			for _, sl := range existsSlots {
				full[sl] = r.nulls.Fresh()
			}
			added := tmpl.Instantiate(full)
			var inserted []instance.Atom
			for _, a := range added {
				if r.cur.Add(a) && r.obs != nil {
					inserted = append(inserted, a)
				}
			}
			r.steps++
			metrics.ChaseSteps.Inc()
			fired = true
			if r.obs != nil {
				// The body slot layout is a prefix of the head slot
				// layout, so the head env instantiates body templates too.
				r.obs.TGDFired(d, d.BodyTemplates().Instantiate(full), inserted)
			}
			if opt.Trace {
				r.trace = append(r.trace, Step{Dep: d.Name, Kind: "tgd", Added: added})
			}
		}
	}
	return fired
}
