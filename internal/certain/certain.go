// Package certain implements the query-answering semantics of Section 7:
// the sets Rep_D(T) of possible worlds of a CWA-solution, the certain (□)
// and maybe (◇) answers over one solution, and the four semantics
//
//	certain⊓(Q,S) = ∩_T □Q(T)    certain⊔(Q,S) = ∪_T □Q(T)
//	maybe⊓(Q,S)  = ∩_T ◇Q(T)    maybe⊔(Q,S)  = ∪_T ◇Q(T)
//
// with T ranging over the CWA-solutions for S. Each semantics is available
// by definition (enumerating CWA-solutions — exponential, used for
// cross-checks) and through a planner (plan.go) that picks, per query class,
// setting class and semantics, the cheapest method Table 1 and Theorem 7.1
// allow: Lemma 7.7's naive evaluation for unions of conjunctive queries, the
// Fagin-et-al.-style fixpoint for UCQs with at most one inequality per
// disjunct (egd-only row), a single evaluation on a null-free chase result,
// and Box or Diamond over the core or the canonical solution.
package certain

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/chase"
	"repro/internal/cwa"
	"repro/internal/dependency"
	"repro/internal/instance"
	"repro/internal/metrics"
	"repro/internal/query"
)

// Options configures certain-answer computation.
type Options struct {
	// Chase bounds the chases used to build solutions. Its Ctx, when set,
	// also cancels representative enumeration (ForEachRep/Box/Diamond).
	Chase chase.Options
	// Enum bounds CWA-solution enumeration for the by-definition semantics.
	Enum cwa.EnumOptions
	// MaxNulls bounds the nulls of an instance whose valuations are
	// enumerated (the enumeration is |C|^nulls); default 12.
	MaxNulls int
	// Workers is the number of goroutines that fan out the top-level
	// null-valuation branches of ForEachRep. 0 means runtime.GOMAXPROCS;
	// 1 forces the sequential path. Results are worker-count-invariant:
	// the same representatives are visited (only the order varies), so
	// Box/Diamond answer sets are identical for 1 and N workers.
	Workers int
}

func (o Options) maxNulls() int {
	if o.MaxNulls > 0 {
		return o.MaxNulls
	}
	return 12
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// ErrTooManyNulls reports that valuation enumeration was refused because the
// instance has more nulls than Options.MaxNulls.
var ErrTooManyNulls = errors.New("certain: too many nulls for valuation enumeration")

// freshConst returns the i-th reserved fresh constant. The pool is shared
// across all instances so answer sets from different solutions compare
// consistently.
func freshConst(i int) instance.Value {
	return instance.Const(fmt.Sprintf("~%d", i))
}

// valuationBase is the set of named constants a generic valuation may use:
// the constants of the instance, of the query, and of the target
// dependencies. Fresh constants are handled separately (canonically) by Rep.
func valuationBase(s *dependency.Setting, t *instance.Instance, q query.Evaluable) []instance.Value {
	seen := make(map[instance.Value]bool)
	var out []instance.Value
	add := func(v instance.Value) {
		if !v.IsNull() && !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	for _, v := range t.Consts() {
		add(v)
	}
	for _, v := range query.Constants(q) {
		add(v)
	}
	addAtoms := func(atoms []query.Atom) {
		for _, a := range atoms {
			for _, tm := range a.Terms {
				if !tm.IsVar() {
					add(tm.Val)
				}
			}
		}
	}
	for _, d := range s.TGDs {
		addAtoms(d.BodyAtoms)
		addAtoms(d.Head)
	}
	for _, d := range s.EGDs {
		addAtoms(d.Body)
	}
	return out
}

// SatisfiesTargetDeps reports whether the instance satisfies Σt — the
// membership test of Rep_D(T) (Section 7.1).
func SatisfiesTargetDeps(s *dependency.Setting, ins *instance.Instance) bool {
	return satisfiesTargetDeps(s, ins)
}

// satisfiesTargetDeps reports whether the (null-free) instance satisfies Σt.
func satisfiesTargetDeps(s *dependency.Setting, ins *instance.Instance) bool {
	for _, d := range s.TGDs {
		if !chase.SatisfiesTGD(s, d, ins) {
			return false
		}
	}
	for _, d := range s.EGDs {
		if !chase.SatisfiesEGD(d, ins) {
			return false
		}
	}
	return true
}

// Rep enumerates Rep_D(T) up to renaming of unmentioned constants: the
// instances v(T) for valuations v of T's nulls into the named constant base
// plus canonically-introduced fresh constants, keeping those that satisfy Σt
// (Section 7.1). Fresh constants are generic — neither the query nor the
// dependencies mention them — so enumerating them canonically (the i-th
// fresh constant may appear only after the (i−1)-st) is a pure symmetry
// reduction: every valuation is equivalent to a canonical one.
func Rep(s *dependency.Setting, t *instance.Instance, q query.Evaluable, opt Options) ([]*instance.Instance, error) {
	var out []*instance.Instance
	err := ForEachRep(s, t, q, opt, func(img *instance.Instance) bool {
		out = append(out, img)
		return true
	})
	return out, err
}

// ForEachRep streams Rep_D(T) (see Rep) to f without materialising the
// whole set; f returning false stops the enumeration. f is never invoked
// concurrently with itself (calls are serialized even on the parallel
// path), but with Workers != 1 the visiting order is unspecified. The
// visited set is worker-count-invariant: an early stop aborts promptly in
// every branch, and a run to completion delivers exactly the same
// representatives regardless of Workers. The enumeration honours
// opt.Chase.Ctx and returns an error wrapping chase.ErrCanceled when the
// context expires mid-run.
func ForEachRep(s *dependency.Setting, t *instance.Instance, q query.Evaluable, opt Options, f func(*instance.Instance) bool) error {
	var mu sync.Mutex
	stopped := false
	return forEachRep(s, t, q, opt, func(img *instance.Instance) bool {
		mu.Lock()
		defer mu.Unlock()
		if stopped {
			// An in-flight worker reached its leaf after another branch
			// stopped the enumeration; the callback must not see it.
			return false
		}
		if !f(img) {
			stopped = true
		}
		return !stopped
	})
}

// forEachRep is ForEachRep without the serialization wrapper: emit may be
// called concurrently from several workers (each call on a distinct
// representative). Box and Diamond use it directly so that answer-set
// evaluation runs inside the workers, keeping only the merge serialized.
func forEachRep(s *dependency.Setting, t *instance.Instance, q query.Evaluable, opt Options, emit func(*instance.Instance) bool) error {
	nulls := t.Nulls()
	if len(nulls) > opt.maxNulls() {
		return fmt.Errorf("%w: %d nulls", ErrTooManyNulls, len(nulls))
	}
	fresh := make([]instance.Value, len(nulls))
	for i := range fresh {
		fresh[i] = freshConst(i)
	}
	w := &repWalker{
		s:     s,
		t:     t,
		base:  valuationBase(s, t, q),
		fresh: fresh,
		nulls: nulls,
		ctx:   opt.Chase.Ctx,
		emit:  emit,
	}
	if workers := opt.workers(); workers > 1 && len(nulls) > 0 {
		w.parallel(workers)
	} else {
		w.walk(make(map[instance.Value]instance.Value, len(nulls)), 0, 0)
	}
	if w.canceled.Load() {
		return chase.ContextErr(w.ctx)
	}
	return nil
}

// repWalker enumerates the canonical valuations of t's nulls. stop is the
// short-circuit broadcast: set when a callback returns false (Box's empty
// intersection, Diamond's early hit) or the context expires, it aborts
// every branch — sequential recursion and parallel workers alike.
type repWalker struct {
	s        *dependency.Setting
	t        *instance.Instance
	base     []instance.Value
	fresh    []instance.Value // fresh[i] = freshConst(i), one per null
	nulls    []instance.Value
	ctx      context.Context
	emit     func(*instance.Instance) bool
	stop     atomic.Bool
	canceled atomic.Bool
}

func (w *repWalker) stopped() bool { return w.stop.Load() }

// checkCtx polls the context (at leaves only — Err takes a lock) and
// converts expiry into a stop broadcast.
func (w *repWalker) checkCtx() bool {
	if w.ctx != nil && w.ctx.Err() != nil {
		w.canceled.Store(true)
		w.stop.Store(true)
		return true
	}
	return false
}

// walk enumerates valuations of w.nulls[i:] given the partial valuation v
// using freshUsed canonical fresh constants. Both the base-constant loop
// and the fresh-constant loop re-check the stop flag so an early stop
// cannot fan out over the remaining branches (the base loop historically
// lacked this guard, wasting exponential work after a stop).
func (w *repWalker) walk(v map[instance.Value]instance.Value, i, freshUsed int) {
	if w.stopped() {
		return
	}
	if i == len(w.nulls) {
		if w.checkCtx() {
			return
		}
		metrics.RepCandidates.Inc()
		img := w.t.Map(v)
		if satisfiesTargetDeps(w.s, img) {
			metrics.RepVisited.Inc()
			if !w.emit(img) {
				w.stop.Store(true)
			}
		}
		return
	}
	for _, c := range w.base {
		if w.stopped() {
			return
		}
		v[w.nulls[i]] = c
		w.walk(v, i+1, freshUsed)
	}
	for j := 0; j <= freshUsed && !w.stopped(); j++ {
		v[w.nulls[i]] = w.fresh[j]
		next := freshUsed
		if j == freshUsed {
			next++
		}
		w.walk(v, i+1, next)
	}
	delete(v, w.nulls[i])
}

// parallel fans the top-level branches — the valuations of nulls[0] — over
// a bounded worker pool. Each worker owns a private valuation map and runs
// the sequential recursion from level 1; the stop flag broadcasts
// short-circuits across workers.
func (w *repWalker) parallel(workers int) {
	type branch struct {
		val       instance.Value
		freshUsed int
	}
	branches := make([]branch, 0, len(w.base)+1)
	for _, c := range w.base {
		branches = append(branches, branch{c, 0})
	}
	// nulls[0] can only take the first fresh constant (canonical order).
	branches = append(branches, branch{w.fresh[0], 1})
	if workers > len(branches) {
		workers = len(branches)
	}
	jobs := make(chan branch)
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		metrics.GoroutinesSpawned.Inc()
		go func() {
			defer wg.Done()
			v := make(map[instance.Value]instance.Value, len(w.nulls))
			for b := range jobs {
				if w.stopped() {
					continue // drain remaining jobs after a stop
				}
				v[w.nulls[0]] = b.val
				w.walk(v, 1, b.freshUsed)
				delete(v, w.nulls[0])
			}
		}()
	}
	for _, b := range branches {
		jobs <- b
	}
	close(jobs)
	wg.Wait()
}

// Box computes □Q(T) = ∩_{R ∈ Rep_D(T)} Q(R), the certain answers of Q on
// the single CWA-solution T. Representative enumeration and answer-set
// evaluation are fanned across opt.Workers goroutines; the intersection
// merge is serialized and order-insensitive, and an empty intersection
// short-circuits every branch.
func Box(s *dependency.Setting, q query.Evaluable, t *instance.Instance, opt Options) (*query.TupleSet, error) {
	var mu sync.Mutex
	var out *query.TupleSet
	err := forEachRep(s, t, q, opt, func(r *instance.Instance) bool {
		ans := q.AnswerSet(r) // evaluated inside the worker
		mu.Lock()
		defer mu.Unlock()
		if out == nil {
			out = ans
		} else {
			out = out.Intersect(ans)
		}
		return out.Len() > 0 // an empty intersection can only stay empty
	})
	if err != nil {
		return nil, err
	}
	if out == nil {
		// Rep empty: the intersection over nothing is all tuples; a
		// CWA-solution always has a nonempty Rep (the injective valuation),
		// so report this as an error rather than inventing a universal set.
		return nil, fmt.Errorf("certain: Rep_D(T) is empty")
	}
	return out, nil
}

// Diamond computes ◇Q(T) = ∪_{R ∈ Rep_D(T)} Q(R), the maybe answers of Q
// on the single CWA-solution T. Like Box, evaluation runs inside the
// workers with a serialized, order-insensitive union merge.
func Diamond(s *dependency.Setting, q query.Evaluable, t *instance.Instance, opt Options) (*query.TupleSet, error) {
	var mu sync.Mutex
	out := query.NewTupleSet()
	err := forEachRep(s, t, q, opt, func(r *instance.Instance) bool {
		ans := q.AnswerSet(r)
		mu.Lock()
		defer mu.Unlock()
		out.UnionWith(ans)
		return true
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Semantics selects one of the four query-answering semantics.
type Semantics int

const (
	// CertainCap is certain⊓: tuples certain in every CWA-solution.
	CertainCap Semantics = iota
	// CertainCup is certain⊔ (potential certain answers).
	CertainCup
	// MaybeCap is maybe⊓ (persistent maybe answers).
	MaybeCap
	// MaybeCup is maybe⊔ (maybe answers).
	MaybeCup
)

func (sem Semantics) String() string {
	switch sem {
	case CertainCap:
		return "certain⊓"
	case CertainCup:
		return "certain⊔"
	case MaybeCap:
		return "maybe⊓"
	case MaybeCup:
		return "maybe⊔"
	}
	return "?"
}

// ByDefinition computes the chosen semantics directly from its definition,
// enumerating all CWA-solutions. Exponential; the planner's fallback where
// Theorem 7.1 gives no characterisation, and the reference the
// characterisations are cross-checked against (experiment E11). The
// enumeration inherits opt.Chase's context and step budget and opt.Workers
// unless opt.Enum sets its own.
func ByDefinition(s *dependency.Setting, q query.Evaluable, src *instance.Instance, sem Semantics, opt Options) (*query.TupleSet, error) {
	return byDefinitionOn(s, q, FromSource(s, src, opt.enum().ChaseOptions), sem, opt)
}

// enum returns the enumeration options, defaulted from the chase options
// and the worker count.
func (o Options) enum() cwa.EnumOptions {
	enum := o.Enum
	if enum.ChaseOptions.Ctx == nil {
		enum.ChaseOptions.Ctx = o.Chase.Ctx
	}
	if enum.ChaseOptions.MaxSteps == 0 {
		enum.ChaseOptions.MaxSteps = o.Chase.MaxSteps
	}
	if enum.Workers == 0 {
		enum.Workers = o.Workers
	}
	return enum
}

// byDefinitionOn is ByDefinition over the universal solution that sols
// supplies. The CWA-solutions are enumerated on it in place by
// cwa.EnumerateOn, with the source read inside the callback so that both
// are of the same version. Box or Diamond then runs on each solution
// outside the callback.
func byDefinitionOn(s *dependency.Setting, q query.Evaluable, sols Solutions, sem Semantics, opt Options) (*query.TupleSet, error) {
	var cwas []*instance.Instance
	var err error
	if uerr := sols.Universal(func(u *instance.Instance) {
		cwas, err = cwa.EnumerateOn(s, sols.Source(), u, opt.enum())
	}); uerr != nil {
		return nil, uerr
	}
	if err != nil {
		return nil, err
	}
	if len(cwas) == 0 {
		return nil, fmt.Errorf("certain: no CWA-solutions for the source instance")
	}
	var out *query.TupleSet
	for _, t := range cwas {
		var one *query.TupleSet
		switch sem {
		case CertainCap, CertainCup:
			one, err = Box(s, q, t, opt)
		default:
			one, err = Diamond(s, q, t, opt)
		}
		if err != nil {
			return nil, err
		}
		if out == nil {
			out = one
			continue
		}
		switch sem {
		case CertainCap, MaybeCap:
			out = out.Intersect(one)
		default:
			out.UnionWith(one)
		}
	}
	return out, nil
}

// Answers computes the chosen semantics by the method Choose picks (see
// AnswersOn), computing the solution that method reads from src.
func Answers(s *dependency.Setting, q query.Evaluable, src *instance.Instance, sem Semantics, opt Options) (*query.TupleSet, error) {
	return AnswersOn(s, q, FromSource(s, src, opt.Chase), sem, opt)
}

// CertainUCQ computes certain⊓(Q,S) = certain⊔(Q,S) for a union of
// conjunctive queries without inequalities via Lemma 7.7: evaluate Q
// naively on a universal solution and keep the null-free tuples, giving the
// polynomial data complexity of Theorem 7.6. This is the planner's
// NaiveUniversal method.
//
// It evaluates on the standard-chase universal solution rather than its
// core: the core is hom-equivalent to it, UCQs are preserved by
// homomorphisms, and constants are fixed, so the null-free answer sets
// coincide — skipping the core computation entirely.
func CertainUCQ(s *dependency.Setting, u query.UCQ, src *instance.Instance, opt Options) (*query.TupleSet, error) {
	if !u.Pure() {
		return nil, fmt.Errorf("certain: CertainUCQ requires a UCQ without inequalities")
	}
	return naiveUniversal(FromSource(s, src, opt.Chase), u)
}
