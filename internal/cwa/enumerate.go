package cwa

import (
	"errors"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/chase"
	"repro/internal/dependency"
	"repro/internal/hom"
	"repro/internal/instance"
	"repro/internal/metrics"
	"repro/internal/query"
)

// EnumOptions bounds the exhaustive enumeration of CWA-solutions.
type EnumOptions struct {
	// MaxStates bounds the number of search states explored (default 200000).
	MaxStates int
	// MaxSolutions stops after this many CWA-solutions (0 = unbounded).
	MaxSolutions int
	// MaxNullsPerState bounds the distinct nulls of every state, complete
	// ones included, to prune runaway branches (default 64). A state over
	// the bound is not explored and the result is reported truncated, so no
	// returned solution has more nulls than the bound.
	MaxNullsPerState int
	// ChaseOptions bounds Enumerate's chase for the universal solution; its
	// Ctx also cancels the enumeration itself (Enumerate and EnumerateOn
	// then return chase.ErrCanceled).
	ChaseOptions chase.Options
	// Workers bounds the number of goroutines expanding branches
	// concurrently (0 = GOMAXPROCS, 1 = sequential). The solution set is
	// identical for every worker count; with bounds in play, which states
	// are reached before truncation may differ.
	Workers int
	// Stats, if non-nil, receives search statistics.
	Stats *EnumStats
}

// EnumStats reports how an enumeration went.
type EnumStats struct {
	// States is the number of search states explored. Justifications of
	// existential-free tgds are not states: their only witness is the
	// empty tuple, so they are fired in the closure of the state that
	// discovers them.
	States int
	// PrunedEgd counts states discarded for violating an egd.
	PrunedEgd int
	// PrunedUniversality counts the subtrees cut because they cannot embed
	// into the universal solution (Theorem 4.8): witness tuples whose head
	// atoms hom.PrecheckRefute refutes before the child state is built,
	// plus states whose target reduct has no homomorphism into it. Constants
	// the witness filter drops before any tuple is formed (see EnumerateOn)
	// are not counted.
	PrunedUniversality int
	// Found is the number of CWA-solutions returned (up to isomorphism).
	Found int
	// Truncated reports whether a bound was hit.
	Truncated bool
}

func (o EnumOptions) maxStates() int {
	if o.MaxStates > 0 {
		return o.MaxStates
	}
	return 200000
}

func (o EnumOptions) maxNulls() int {
	if o.MaxNullsPerState > 0 {
		return o.MaxNullsPerState
	}
	return 64
}

func (o EnumOptions) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// ErrEnumerationTruncated reports that the search hit a bound, so the
// returned list may be incomplete.
var ErrEnumerationTruncated = errors.New("cwa: enumeration truncated by limits")

// Enumerate exhaustively enumerates the CWA-solutions for src under s, up
// to isomorphism (renaming of nulls): it chases src for a universal
// solution under opt.ChaseOptions and runs EnumerateOn on it. A source
// whose chase fails on an egd has no solutions at all, which Enumerate
// reports as an empty result, not an error.
func Enumerate(s *dependency.Setting, src *instance.Instance, opt EnumOptions) ([]*instance.Instance, error) {
	u, err := chase.UniversalSolution(s, src, opt.ChaseOptions)
	if err != nil {
		if chase.IsEgdFailure(err) {
			return nil, nil // no solutions at all
		}
		return nil, err
	}
	return EnumerateOn(s, src, u, opt)
}

// EnumerateOn exhaustively enumerates the CWA-solutions for src under s, up
// to isomorphism, given a universal solution u for src (its τ-reduct). u
// serves only the prunes below, each of which asks whether a homomorphism
// into u exists or whether u carries a constant at a head position; both
// answers are the same for hom-equivalent instances, so any universal
// solution for src gives the same result, not only the chase's. u is read
// concurrently by the workers and must not change during the call.
//
// The search walks all successful α-chases: states are (instance, partial α)
// pairs; at each state every justification whose α-value is already chosen
// is fired to closure, then the first unresolved justification branches over
// its possible witness tuples. A justification of an existential-free tgd
// has the empty tuple as its only witness, so it counts as chosen from the
// start and is fired in the closure. Each existential variable ranges over
// the state's nulls, fresh nulls in canonical order, and only those
// constants of the active domain that u carries at every head position the
// variable occupies. That is sufficient for CWA-solutions: they are
// universal (Theorem 4.8), so every fired atom maps into u with its
// constants fixed, and no other constant can be a witness. Surviving tuples
// whose head atoms still cannot embed (an absent ground atom, a null with
// no common image) are refuted before their child state is built. States
// violating an egd are pruned (a successful chase never applies an egd,
// Lemma 4.5). Complete states are filtered by universality (Theorem 4.8)
// and deduplicated up to isomorphism.
//
// Branches are expanded by up to opt.Workers goroutines. Solutions are
// reported in canonical null form, with the lexicographically least member
// of each isomorphism class as representative, sorted — so the returned
// slice is identical for every worker count (absent truncation).
//
// src must be null-free, as for every chase. The error is
// ErrEnumerationTruncated when a bound was hit (the result may then be
// incomplete) or chase.ErrCanceled when opt.ChaseOptions.Ctx was canceled.
func EnumerateOn(s *dependency.Setting, src, u *instance.Instance, opt EnumOptions) ([]*instance.Instance, error) {
	if src.HasNulls() {
		return nil, errors.New("cwa: source instance must be null-free")
	}
	return newEnumerator(s, src, u, opt).run()
}

// newEnumerator prepares the walk of EnumerateOn: the s-t matches and the
// witness pools, both read-only from then on.
func newEnumerator(s *dependency.Setting, src, u *instance.Instance, opt EnumOptions) *enumerator {
	e := &enumerator{
		s:         s,
		universal: u,
		opt:       opt,
		univCache: newUnivMemo(univCacheCap),
		sem:       make(chan struct{}, opt.workers()-1),
	}
	// s-t tgd bodies are evaluated on the σ-reduct, which never changes
	// during the walk (states only add target atoms; egd violations prune
	// rather than rewrite), so their matches — and their justification keys —
	// are computed once up front and shared read-only by every state.
	// Conjunctive bodies are kept as slot environments so each state fires
	// them via the slot path; FO bodies keep their Binding.
	e.stMatches = make(map[*dependency.TGD][]stMatch, len(s.ST))
	var srcReduct *instance.Instance
	for _, d := range s.ST {
		var ms []stMatch
		if d.BodyAtoms != nil {
			if srcReduct == nil {
				srcReduct = src.ReductView(s.Source)
			}
			envs, keys := chase.BodyEnvsKeyed(d, srcReduct)
			ms = make([]stMatch, len(envs))
			for i := range envs {
				ms[i] = stMatch{senv: envs[i], key: keys[i]}
			}
		} else {
			bs := chase.BodyMatches(s, d, src)
			ms = make([]stMatch, len(bs))
			for i, env := range bs {
				ms[i] = stMatch{env: env, key: chase.JustificationKeyOf(d, env)}
			}
		}
		e.stMatches[d] = ms
	}
	e.allTGDs = s.AllTGDs()
	e.pools = make(map[*dependency.TGD][][]poolConst)
	for _, d := range e.allTGDs {
		if len(d.Exists) > 0 {
			e.pools[d] = witnessConsts(d, src, u)
		}
	}
	return e
}

// run walks every successful α-chase from the empty target instance and
// returns the sorted representatives (see EnumerateOn).
func (e *enumerator) run() ([]*instance.Instance, error) {
	// The walk carries only the target part of each state: every dependency
	// evaluated during the walk is over τ (s-t matches are precomputed), so
	// the σ atoms would only be dead weight in the walked instance, its
	// clones and its content keys. The source active domain still supplies
	// witness constants, through the pools.
	e.walk(instance.New(), map[string][]instance.Value{}, 0, nil, nil, nil, nil)
	e.wg.Wait()

	sort.Slice(e.found, func(i, j int) bool { return e.found[i].key < e.found[j].key })
	out := make([]*instance.Instance, len(e.found))
	for i, f := range e.found {
		out[i] = f.t
	}
	if e.opt.Stats != nil {
		*e.opt.Stats = EnumStats{
			States:             int(e.states.Load()),
			PrunedEgd:          int(e.prunedEgd.Load()),
			PrunedUniversality: int(e.prunedUniv.Load()),
			Found:              len(out),
			Truncated:          e.truncated.Load(),
		}
	}
	if err := chase.ContextErr(e.opt.ChaseOptions.Ctx); err != nil {
		return out, err
	}
	if e.truncated.Load() {
		return out, ErrEnumerationTruncated
	}
	return out, nil
}

// foundSol pairs a canonical-form solution with its sort/dedup key.
type foundSol struct {
	t   *instance.Instance
	key string
}

// stMatch is one precomputed s-t body match: a BodyPlan slot environment for
// conjunctive bodies, a Binding for FO bodies, plus the justification key.
type stMatch struct {
	env  query.Binding    // FO body match (nil when senv is set)
	senv []instance.Value // conjunctive body match, BodyPlan slot order
	key  string
}

// openMatch is one body match at a state's closure fixpoint: the potential
// justification (d, ū, v̄) identified by key, with the match kept as a slot
// environment (conjunctive bodies) or a Binding (FO s-t bodies). Fixpoint
// match lists are inherited by child states read-only: a child's instance is
// its parent's plus one new firing, so only the delta rounds differ.
type openMatch struct {
	d    *dependency.TGD
	senv []instance.Value // body match, BodyPlan slot order (nil for FO s-t)
	env  query.Binding    // FO s-t body match (nil when senv is set)
	key  string
}

type enumerator struct {
	s         *dependency.Setting
	universal *instance.Instance
	opt       EnumOptions
	// stMatches holds the (constant) body matches of every s-t tgd, computed
	// once in Enumerate; matches and keys are shared read-only.
	stMatches map[*dependency.TGD][]stMatch
	allTGDs   []*dependency.TGD
	// pools holds, for each tgd with existentials and each of its
	// existential variables, the constants a witness may take anywhere in
	// the walk (see witnessConsts); a branch filters them to its active
	// domain (see pool).
	pools map[*dependency.TGD][][]poolConst
	// poolHook, when set, is called with every branch's witness pool. Tests
	// use it to crosscheck the pool against its definition.
	poolHook func(d *dependency.TGD, cur *instance.Instance, pool [][]instance.Value)

	// univCache memoizes the universality prune by target-reduct content:
	// whether a hom into the universal solution exists is a pure function of
	// the reduct's atom set, and sibling branches frequently reach identical
	// reducts. The key is a snapshot of the content (instance.ContentKey),
	// so rolling the walked instance back later leaves it valid.
	// LRU-bounded at univCacheCap so adversarial settings cannot
	// grow it without limit; an eviction only costs a recomputation.
	univCache *univMemo

	sem chan struct{} // bounds extra walker goroutines (cap workers-1)
	wg  sync.WaitGroup

	states     atomic.Int64
	prunedEgd  atomic.Int64
	prunedUniv atomic.Int64
	truncated  atomic.Bool
	canceled   atomic.Bool

	mu    sync.Mutex
	found []*foundSol
	// seen memoizes emitted target reducts by exact content
	// (instance.ContentKey): distinct chase branches frequently complete in
	// the very same instance, and a repeat can change neither the
	// isomorphism classes nor their representatives, so its canonical-form
	// and isomorphism work is skipped. The walked instance is rolled back
	// after emit, so emit stores a fresh canonical copy, never the instance.
	seen map[string]struct{}
}

// stopped reports whether the search should unwind: a bound was hit or the
// context was canceled.
func (e *enumerator) stopped() bool {
	return e.truncated.Load() || e.canceled.Load()
}

// descend explores the child state that resolves the justification key
// with witness w. A free worker slot takes the child on a goroutine of its
// own, with its own copies of cur, alpha and fireAtoms. Otherwise the child
// is walked in place on cur and alpha and undone on return: the key is
// deleted and cur rolled back to its mark, so the caller's state is as
// before the call. fireAtoms may be the caller's scratch buffer: the inline
// child adds them to cur on entry, before the caller can reuse it.
// inherited, base and pending are shared read-only (see walk).
func (e *enumerator) descend(cur *instance.Instance, alpha map[string][]instance.Value, key string, w []instance.Value, nextNull int64, inherited []openMatch, fireAtoms []instance.Atom, base *hom.Search, pending []instance.Atom) {
	select {
	case e.sem <- struct{}{}:
		child := cur.Clone()
		alpha2 := make(map[string][]instance.Value, len(alpha)+1)
		for k, v := range alpha {
			alpha2[k] = v
		}
		alpha2[key] = w
		atoms := ownAtoms(fireAtoms)
		e.wg.Add(1)
		metrics.GoroutinesSpawned.Inc()
		go func() {
			defer func() { <-e.sem; e.wg.Done() }()
			e.walk(child, alpha2, nextNull, inherited, atoms, base, pending)
		}()
	default:
		m := cur.Mark()
		alpha[key] = w
		e.walk(cur, alpha, nextNull, inherited, fireAtoms, base, pending)
		delete(alpha, key)
		cur.Rollback(m)
	}
}

// ownAtoms copies atoms, their arguments carved from one backing array.
func ownAtoms(atoms []instance.Atom) []instance.Atom {
	n := 0
	for _, a := range atoms {
		n += len(a.Args)
	}
	flat := make([]instance.Value, 0, n)
	out := make([]instance.Atom, len(atoms))
	for i, a := range atoms {
		start := len(flat)
		flat = append(flat, a.Args...)
		out[i] = instance.Atom{Rel: a.Rel, Args: flat[start:len(flat):len(flat)]}
	}
	return out
}

// witness returns the α-value of the justification key of d, its values in
// the order of d.Exists, reporting whether it is chosen. An
// existential-free d is always chosen: the empty tuple is its only witness,
// so its justifications need no branch.
func witness(alpha map[string][]instance.Value, d *dependency.TGD, key string) ([]instance.Value, bool) {
	if len(d.Exists) == 0 {
		return nil, true
	}
	w, ok := alpha[key]
	return w, ok
}

// fire adds to cur the head atoms of d under a body match and a witness
// tuple w (in the order of d.Exists): through the slot templates for a
// conjunctive body (senv), through a Binding for an FO s-t body (env).
func fire(cur *instance.Instance, d *dependency.TGD, senv []instance.Value, env query.Binding, w []instance.Value) {
	if senv == nil {
		for _, a := range headAtomsFO(d, env, w) {
			cur.Add(a)
		}
		return
	}
	var buf [16]instance.Value
	var full []instance.Value
	if n := d.HeadSlotsPlan().NumSlots(); n > len(buf) {
		full = make([]instance.Value, n)
	} else {
		full = buf[:n]
	}
	copy(full, senv)
	for i, slot := range d.ExistsSlots() {
		full[slot] = w[i]
	}
	d.HeadTemplates().AddTo(cur, full)
}

// headAtomsFO instantiates the head of d, whose s-t body is not
// conjunctive, under its body match env and witness tuple w.
func headAtomsFO(d *dependency.TGD, env query.Binding, w []instance.Value) []instance.Atom {
	full := env.Clone()
	for i, z := range d.Exists {
		full[z] = w[i]
	}
	return chase.HeadAtoms(d, full)
}

// emit records a complete state's target reduct, deduplicating up to
// isomorphism. Each isomorphism class keeps the lexicographically least
// canonical form seen, so the final (sorted) output does not depend on
// discovery order and hence not on the worker count. The canonical key and
// the isomorphism checks read the walked instance t directly (both are
// invariant under renaming nulls); the canonical instance is built only for
// a state that becomes a class's representative.
func (e *enumerator) emit(t *instance.Instance, ck string) {
	e.mu.Lock()
	if _, dup := e.seen[ck]; dup {
		e.mu.Unlock()
		return
	}
	if e.seen == nil {
		e.seen = make(map[string]struct{})
	}
	e.seen[ck] = struct{}{}
	e.mu.Unlock()
	key := hom.CanonicalNullString(t)
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, prev := range e.found {
		if hom.Isomorphic(prev.t, t) {
			if key < prev.key {
				prev.t, prev.key = hom.CanonicalNullForm(t), key
			}
			return
		}
	}
	e.found = append(e.found, &foundSol{t: hom.CanonicalNullForm(t), key: key})
	if e.opt.MaxSolutions > 0 && len(e.found) >= e.opt.MaxSolutions {
		e.truncated.Store(true)
	}
}

// universality decides whether cur maps homomorphically into the universal
// solution, incrementally: the parent state's compiled search (base) is
// extended by the atoms added since it was compiled (pending, accumulated
// across memoized ancestors, plus this state's own additions since mBase)
// instead of recompiling cur from scratch; only the root state (base nil)
// compiles from scratch. The extended search runs in ExistsAC decision mode:
// the posting-list arc-consistency pass over the compiled occurrence lists
// refutes or confirms most states outright, and only genuinely ambiguous
// ones pay for backtracking. The materialized search is returned for the
// state's children to extend in turn.
func (e *enumerator) universality(cur *instance.Instance, base *hom.Search, pending []instance.Atom, mBase instance.Mark) (bool, *hom.Search) {
	var s *hom.Search
	if base == nil {
		s = hom.CompileSource(cur)
	} else {
		s = base.Extend(appendDelta(pending, cur, mBase))
	}
	return s.ExistsAC(e.universal), s
}

// appendDelta returns pending plus the atoms cur gained since the mark, with
// owned Args copies (EachAddedBetween hands out a shared scratch buffer).
// pending itself is never written: hand-off capacity-trimming makes the
// append reallocate, so sibling states sharing one pending list stay
// independent.
func appendDelta(pending []instance.Atom, cur *instance.Instance, since instance.Mark) []instance.Atom {
	out := pending
	cur.EachAddedBetween(since, cur.Mark(), func(a instance.Atom) bool {
		out = append(out, instance.Atom{Rel: a.Rel, Args: append([]instance.Value(nil), a.Args...)})
		return true
	})
	return out
}

// nfound returns the current number of isomorphism classes found.
func (e *enumerator) nfound() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.found)
}

// walk explores the state (cur, alpha), where cur is the state's target
// instance (the σ part of every state is the never-changing source, kept out
// of the walked instance; all dependencies fired here are over τ): fire
// chosen justifications to closure, prune on egd violations, then branch on
// the first unresolved justification. nextNull is the next fresh null label
// for canonical naming. cur and alpha are owned by this call until it
// returns; it leaves them extended by whatever the state fired, for the
// caller to roll back (see descend).
//
// inherited, when non-nil, is the parent state's fixpoint match list and
// fireAtoms the head atoms of the single newly resolved justification
// (instantiated by the parent's branch step, which already needed them for
// the pre-spawn refute): cur already contains every atom the parent fired,
// so instead of re-enumerating all tgd bodies from scratch the walk adds
// just the new firing's atoms and lets the semi-naive delta rounds discover
// the consequences. The inherited entries (and their environments) are
// shared read-only across sibling branches and goroutines; appends stay
// private because the slice is capacity-trimmed at hand-off. A nil inherited
// (the root state) builds the list with a full enumeration.
//
// base and pending thread the incremental universality check: base is the
// compiled hom search of the nearest ancestor state that materialized one,
// pending the atoms added between that compile and this state's entry
// (states whose check was memoized or decided by the prefilter never
// compile, so their deltas accumulate). Both are shared read-only across
// siblings, pending under the same capacity-trim discipline as inherited.
func (e *enumerator) walk(cur *instance.Instance, alpha map[string][]instance.Value, nextNull int64, inherited []openMatch, fireAtoms []instance.Atom, base *hom.Search, pending []instance.Atom) {
	if err := chase.ContextErr(e.opt.ChaseOptions.Ctx); err != nil {
		e.canceled.Store(true)
		return
	}
	if e.stopped() {
		return
	}
	metrics.EnumStates.Inc()
	if e.states.Add(1) > int64(e.opt.maxStates()) ||
		(e.opt.MaxSolutions > 0 && e.nfound() >= e.opt.MaxSolutions) {
		e.truncated.Store(true)
		return
	}
	// The state's nulls are exactly _0 … _(nextNull−1): each fresh null
	// lands in a new atom, since every existential occurs in its tgd's head.
	if nextNull > int64(e.opt.maxNulls()) {
		e.truncated.Store(true)
		return
	}

	// Close under already-chosen justifications, semi-naively. An inherited
	// state starts from its parent's fixpoint: cur already holds every
	// previously fired atom, so only the one newly resolved justification is
	// fired and the delta rounds take it from there. The root state builds
	// the match list with a full enumeration and fires every chosen match.
	// Later rounds only join the atoms added by the previous round against
	// each target tgd (a new match of a monotone conjunctive body must use a
	// new atom); the delta is a watermark interval over cur's insertion log —
	// no copied atom sets; cur only grows during the closure, so marks stay
	// valid throughout. The accumulated match list — deduplicated by
	// justification key — is exactly the matches at the fixpoint, reused by
	// the first-unresolved scan below. s-t tgds use their precomputed
	// (constant) matches and can only fire in the first round; target tgds
	// (always conjunctive) stay on the slot path.
	var matches []openMatch
	mStart := cur.Mark()
	// The entry watermark: everything added from here to the fixpoint
	// is this state's delta over the atoms base already has compiled.
	mBase := mStart
	if inherited != nil {
		matches = inherited
		for _, a := range fireAtoms {
			cur.Add(a)
		}
	} else {
		for _, d := range e.allTGDs {
			if ms, ok := e.stMatches[d]; ok {
				for i := range ms {
					m := &ms[i]
					matches = append(matches, openMatch{d: d, senv: m.senv, env: m.env, key: m.key})
					if w, chosen := witness(alpha, d, m.key); chosen {
						fire(cur, d, m.senv, m.env, w)
					}
				}
				continue
			}
			envs, keys := chase.BodyEnvsKeyed(d, cur)
			for i, senv := range envs {
				key := keys[i]
				matches = append(matches, openMatch{d: d, senv: senv, key: key})
				if w, chosen := witness(alpha, d, key); chosen {
					fire(cur, d, senv, nil, w)
				}
			}
		}
	}
	var seenKeys map[string]bool
	for {
		mEnd := cur.Mark()
		if mEnd == mStart {
			break // previous round added nothing: fixpoint
		}
		if seenKeys == nil {
			seenKeys = make(map[string]bool, len(matches))
			for i := range matches {
				seenKeys[matches[i].key] = true
			}
		}
		var fresh []openMatch
		for _, d := range e.allTGDs {
			if _, ok := e.stMatches[d]; ok {
				continue
			}
			chase.DeltaBodyEnvsKeyedBetween(d, cur, mStart, mEnd, func(env []instance.Value, key string) bool {
				if seenKeys[key] {
					return true
				}
				seenKeys[key] = true
				senv := append([]instance.Value(nil), env...)
				fresh = append(fresh, openMatch{d: d, senv: senv, key: key})
				return true
			})
		}
		mStart = mEnd
		for _, m := range fresh {
			matches = append(matches, m)
			if w, chosen := witness(alpha, m.d, m.key); chosen {
				fire(cur, m.d, m.senv, nil, w)
			}
		}
	}

	// Prune: a successful α-chase never violates an egd along the way
	// (adding atoms cannot repair a violation, and applying the egd would
	// contradict Lemma 4.5 for successful chases).
	for _, d := range e.s.EGDs {
		if !chase.SatisfiesEGD(d, cur) {
			e.prunedEgd.Add(1)
			return
		}
	}

	// Prune: universality is antitone in the atom set — if the current
	// target instance already has no homomorphism into the universal
	// solution, no superset can have one (restrict the hom), so the whole
	// subtree contains no CWA-solution (Theorem 4.8). The check is memoized
	// by content (sibling branches frequently reach the same instance); on a
	// miss it runs incrementally off the ancestor's compiled search — see
	// universality.
	ck := cur.ContentKey()
	univ, cached := e.univCache.get(ck)
	var search *hom.Search
	if !cached {
		univ, search = e.universality(cur, base, pending, mBase)
		e.univCache.put(ck, univ)
	}
	if !univ {
		e.prunedUniv.Add(1)
		return
	}
	// Hand the children the freshest compiled search: the one materialized
	// here (its delta is spent), or the ancestor's plus this state's delta.
	if search != nil {
		base, pending = search, nil
	} else {
		pending = appendDelta(pending, cur, mBase)
		pending = pending[:len(pending):len(pending)]
	}

	// Find the first unresolved justification, deterministically, among the
	// fixpoint matches collected above.
	var first *openMatch
	for i := range matches {
		cand := &matches[i]
		if _, chosen := witness(alpha, cand.d, cand.key); chosen {
			continue
		}
		if first == nil || cand.key < first.key {
			first = cand
		}
	}

	if first == nil {
		// Complete: every justification resolved and fired; cur is the
		// target of a successful α-chase. Universality already held above.
		e.emit(cur, ck)
		return
	}

	// Branch over witness tuples for the unresolved justification: each
	// existential variable takes one of its witness pool's values (an
	// existing null, or a source or target constant the universal solution
	// admits at the variable's head positions) or a fresh null; fresh nulls
	// are introduced in canonical order to cut symmetry. Each complete
	// witness explores its subtree on a free worker if available, in place
	// on cur otherwise (descend). Children inherit this state's fixpoint
	// match list (capacity-trimmed so sibling appends never share a backing
	// slot) and fire only the justification resolved here. The pool is
	// computed before the first child runs; an in-place child restores cur
	// on return.
	handoff := matches[:len(matches):len(matches)]
	d := first.d
	k := len(d.Exists)
	pool := e.pool(d, cur, nextNull)
	if e.poolHook != nil {
		e.poolHook(d, cur, pool)
	}
	assign := make([]instance.Value, k)
	// Each witness tuple's head atoms are instantiated into one scratch
	// buffer (conjunctive bodies), so a refuted tuple allocates nothing.
	var full []instance.Value
	var scratch []instance.Atom
	if first.senv != nil {
		full = make([]instance.Value, d.HeadSlotsPlan().NumSlots())
		copy(full, first.senv)
		scratch = d.HeadTemplates().Scratch()
	}
	var rec func(i int, freshUsed int64)
	rec = func(i int, freshUsed int64) {
		if e.stopped() {
			return
		}
		if i == k {
			// The head atoms this witness would fire. Instantiated here —
			// before descending — so the delta-only refute below can discard
			// the child without ever materializing it; survivors carry the
			// atoms along instead of re-instantiating in walk.
			var atoms []instance.Atom
			if scratch != nil {
				for j, slot := range d.ExistsSlots() {
					full[slot] = assign[j]
				}
				d.HeadTemplates().Fill(full, scratch)
				atoms = scratch
			} else {
				atoms = headAtomsFO(d, first.env, assign)
			}
			// Pre-spawn prune: the fired atoms are a subset of every instance
			// in the child's subtree, and universality is antitone in the atom
			// set, so if they alone cannot embed into the universal solution
			// (posting-list arc consistency) the subtree holds no CWA-solution
			// — skip the closure and the state entirely.
			if hom.PrecheckRefute(atoms, e.universal) {
				e.prunedUniv.Add(1)
				return
			}
			w := append([]instance.Value(nil), assign...)
			e.descend(cur, alpha, first.key, w, nextNull+freshUsed, handoff, atoms, base, pending)
			return
		}
		for _, v := range pool[i] {
			assign[i] = v
			rec(i+1, freshUsed)
		}
		// Previously assigned fresh slots of this witness.
		for f := int64(0); f < freshUsed; f++ {
			assign[i] = instance.Null(nextNull + f)
			rec(i+1, freshUsed)
		}
		// One genuinely new fresh null (introducing more than one new label
		// at position i is symmetric to this choice).
		assign[i] = instance.Null(nextNull + freshUsed)
		rec(i+1, freshUsed+1)
	}
	rec(0, 0)
}

// poolConst is a constant of a witness pool, with whether it lies in the
// source's active domain and so in every state's.
type poolConst struct {
	v     instance.Value
	inSrc bool
}

// witnessConsts returns, for each existential variable z of d, the
// constants that u carries at every head position z occupies, in the order
// of instance.Less. A homomorphism fixes constants, so a firing that puts
// constant c at position p of R can embed into u only if some R-atom of u
// has c at p; otherwise no state below the firing is universal, and by
// Theorem 4.8 none is a CWA-solution. PrecheckRefute would refute every
// tuple with such a value; leaving it out of the pool means the tuples are
// never built.
func witnessConsts(d *dependency.TGD, src, u *instance.Instance) [][]poolConst {
	type headPos struct {
		rel string
		pos int
	}
	out := make([][]poolConst, len(d.Exists))
	for j, z := range d.Exists {
		var occ []headPos
		for _, a := range d.Head {
			for p, t := range a.Terms {
				if t.Var == z {
					occ = append(occ, headPos{a.Rel, p})
				}
			}
		}
		// z occurs in d's head, as every existential variable does.
		var cs []instance.Value
		u.EachPosValue(occ[0].rel, occ[0].pos, func(v instance.Value, _ int) bool {
			if v.IsConst() {
				for _, o := range occ[1:] {
					if !u.PosHasValue(o.rel, o.pos, v) {
						return true
					}
				}
				cs = append(cs, v)
			}
			return true
		})
		hom.SortValues(cs)
		pc := make([]poolConst, len(cs))
		for i, c := range cs {
			pc[i] = poolConst{v: c, inSrc: src.HasValue(c)}
		}
		out[j] = pc
	}
	return out
}

// pool returns the witness pool of each existential variable of d at the
// state cur with nulls _0 … _(nextNull−1): the variable's witness constants
// that lie in the state's active domain (the source's plus cur's), then
// those nulls, in the order of instance.Less. A constant outside both, such
// as a head constant of a tgd not yet fired, is no witness.
func (e *enumerator) pool(d *dependency.TGD, cur *instance.Instance, nextNull int64) [][]instance.Value {
	cs := e.pools[d]
	out := make([][]instance.Value, len(cs))
	for j, c := range cs {
		p := make([]instance.Value, 0, len(c)+int(nextNull))
		for _, pc := range c {
			if pc.inSrc || cur.HasValue(pc.v) {
				p = append(p, pc.v)
			}
		}
		for l := int64(0); l < nextNull; l++ {
			p = append(p, instance.Null(l))
		}
		out[j] = p
	}
	return out
}

// Incomparable returns the subsets of solutions that are pairwise
// incomparable: no one is a homomorphic image of another (Example 5.3's
// notion). It reports the solutions that are not a homomorphic image of any
// other solution in the list, along with the full pairwise matrix.
//
// Rows of the matrix are computed concurrently (up to GOMAXPROCS workers);
// the result is deterministic since the entries are independent.
func Incomparable(sols []*instance.Instance) (pairwise [][]bool, incomparable []int) {
	n := len(sols)
	pairwise = make([][]bool, n)
	for i := range pairwise {
		pairwise[i] = make([]bool, n)
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers > 1 {
		rows := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			metrics.GoroutinesSpawned.Inc()
			go func() {
				defer wg.Done()
				for i := range rows {
					incomparableRow(sols, pairwise, i)
				}
			}()
		}
		for i := 0; i < n; i++ {
			rows <- i
		}
		close(rows)
		wg.Wait()
	} else {
		for i := 0; i < n; i++ {
			incomparableRow(sols, pairwise, i)
		}
	}
	for j := 0; j < n; j++ {
		image := false
		for i := 0; i < n; i++ {
			if i != j && pairwise[i][j] {
				image = true
				break
			}
		}
		if !image {
			incomparable = append(incomparable, j)
		}
	}
	return pairwise, incomparable
}

// incomparableRow fills row i: pairwise[i][j] reports that sols[j] is a
// homomorphic image of sols[i]. Each call owns its row, so rows can be
// computed concurrently without synchronization.
func incomparableRow(sols []*instance.Instance, pairwise [][]bool, i int) {
	for j := range pairwise[i] {
		if i == j {
			continue
		}
		_, onto := hom.FindOnto(sols[i], sols[j], 0)
		pairwise[i][j] = onto
	}
}

// SortBySize orders instances by atom count then string, for stable output.
// Each instance is sized and rendered once, not once per comparison.
func SortBySize(sols []*instance.Instance) {
	by := bySize{sols: sols, lens: make([]int, len(sols)), strs: make([]string, len(sols))}
	for i, t := range sols {
		by.lens[i], by.strs[i] = t.Len(), t.String()
	}
	sort.Sort(by)
}

// bySize sorts instances together with their sizes and renderings.
type bySize struct {
	sols []*instance.Instance
	lens []int
	strs []string
}

func (b bySize) Len() int { return len(b.sols) }

func (b bySize) Less(i, j int) bool {
	if b.lens[i] != b.lens[j] {
		return b.lens[i] < b.lens[j]
	}
	return b.strs[i] < b.strs[j]
}

func (b bySize) Swap(i, j int) {
	b.sols[i], b.sols[j] = b.sols[j], b.sols[i]
	b.lens[i], b.lens[j] = b.lens[j], b.lens[i]
	b.strs[i], b.strs[j] = b.strs[j], b.strs[i]
}
