package cwa

import (
	"encoding/binary"
	"errors"
	"maps"
	"math"
	"runtime"
	"slices"
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
// Lemma 4.5). Every state must be universal (Theorem 4.8): each carries a
// homomorphism into u, which a child extends over the atoms it added with
// the parent's values fixed, and decides from scratch only when that
// extension fails. Complete states are deduplicated up to isomorphism.
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
	e.walk(&walker{cur: instance.New(), alpha: map[string][]instance.Value{}, keys: map[string]struct{}{}}, 0, nil, nil, nil)
	e.wg.Wait()

	sort.Slice(e.found, func(i, j int) bool { return e.found[i].key < e.found[j].key })
	out := make([]*instance.Instance, len(e.found))
	for i, f := range e.found {
		out[i] = instance.FromAtoms(f.atoms...)
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

// foundSol is one isomorphism class of solutions: its representative's
// atoms in canonical null form, the order hom.CanonicalNullForm would list
// them in, with the display key that orders and picks representatives and
// the atom count of each relation.
type foundSol struct {
	atoms []instance.Atom
	key   string
	shape []relShape
}

// relShape is one nonempty relation of a state, its atom count and arity.
type relShape struct {
	name     string
	n, arity int
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
// match lists are inherited by child states: a child's instance is its
// parent's plus one new firing, so only the delta rounds differ, and the
// child appends their matches past the parent's entries (see walk).
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
	// univHook, when set, is called at every state that reaches the
	// universality check, with the verdict and, when it holds, the witness
	// h (indexed by null label). Tests use it to crosscheck the carried
	// witness against hom.Exists.
	univHook func(cur *instance.Instance, h []instance.Value, univ bool)

	sem chan struct{} // bounds extra walker goroutines (cap workers-1)
	wg  sync.WaitGroup

	states     atomic.Int64
	prunedEgd  atomic.Int64
	prunedUniv atomic.Int64
	truncated  atomic.Bool
	canceled   atomic.Bool

	mu    sync.Mutex
	found []*foundSol
	// seen holds the dedup key of every state emitted (see canon.pass):
	// distinct chase branches frequently complete in the same instance up
	// to null names, and a repeat can change neither the isomorphism
	// classes nor their representatives, so it is skipped after the key.
	// The walked instance is rolled back after emit, so a class keeps a copy
	// of its representative's rows, never the instance.
	seen map[string]struct{}
}

// stopped reports whether the search should unwind: a bound was hit or the
// context was canceled.
func (e *enumerator) stopped() bool {
	return e.truncated.Load() || e.canceled.Load()
}

// walker is the mutable state one goroutine walks in place: the current
// state's target instance, its partial α and the justification keys of its
// fixpoint match list, plus scratch for the universality check. An inline
// child extends the walker and undoes its extension on return; a spawned
// child walks a copy of its own (see descend).
type walker struct {
	cur   *instance.Instance
	alpha map[string][]instance.Value
	// keys holds the justification key of every match in the walked state's
	// fixpoint list: a state adds the keys its delta rounds discover and
	// deletes them on return, so no state rebuilds the set.
	keys map[string]struct{}
	// delta and args are universality's scratch, free again before the
	// state's first child runs: the atoms the state added that mention a
	// null, and their arguments.
	delta []instance.Atom
	args  []instance.Value
	// addBuf holds the arguments of the delta atoms that the closure and
	// universality sweep (instance.EachAddedBetween).
	addBuf [8]instance.Value
	canon  canon
}

// descend explores the child state that resolves the justification key
// with witness w. A free worker slot takes the child on a goroutine of its
// own, with a copy of the walker and its own copies of inherited, h and
// fireAtoms. Otherwise the child is walked in place on wk and undone on
// return: the key is deleted from alpha and cur rolled back to its mark
// (walk deletes the justification keys it added), so the caller's state is
// as before the call. In place, the child appends to inherited and h past
// their lengths, which the caller never reads, and siblings run one after
// another. fireAtoms may be the caller's scratch buffer: the inline child
// adds them to cur on entry, before the caller can reuse it.
func (e *enumerator) descend(wk *walker, key string, w []instance.Value, nextNull int64, inherited []openMatch, fireAtoms []instance.Atom, h []instance.Value) {
	select {
	case e.sem <- struct{}{}:
		child := &walker{cur: wk.cur.Clone(), alpha: maps.Clone(wk.alpha), keys: maps.Clone(wk.keys)}
		child.alpha[key] = w
		// Copies, not capacity-trimmed views: once the caller returns, its
		// own parent's next inline child overwrites the entries the caller
		// appended, which a view would share with the spawned walk.
		inherited = append([]openMatch(nil), inherited...)
		h = append([]instance.Value(nil), h...)
		atoms := ownAtoms(fireAtoms)
		e.wg.Add(1)
		metrics.GoroutinesSpawned.Inc()
		go func() {
			defer func() { <-e.sem; e.wg.Done() }()
			e.walk(child, nextNull, inherited, atoms, h)
		}()
	default:
		m := wk.cur.Mark()
		wk.alpha[key] = w
		e.walk(wk, nextNull, inherited, fireAtoms, h)
		delete(wk.alpha, key)
		wk.cur.Rollback(m)
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

// canon is emit's scratch, kept by a walker across the states it completes.
type canon struct {
	ren   []instance.Value // null label → its canonical name, or unmapped
	vals  []instance.Value // the renamed rows, one relation after another
	shape []relShape
	order []int32 // one relation's row offsets into vals, sorted
	key   []byte
}

// pass renames the nulls of t, whose labels are below nextNull, in one pass
// over its live rows in relation-name order then row order, each null by
// its first occurrence: the renaming of hom.CanonicalNullForm, which lists
// its atoms in the same order. It leaves the renamed rows in vals, the
// relations' atom counts in shape, and in key a dedup key that equals
// another state's iff their renamed atom sets are equal: each relation's
// name, atom count and arity, then the fixed-width encodings of its
// renamed rows, the rows sorted. Constants and nulls encode apart, so a
// constant named like a null cannot collide with one.
func (c *canon) pass(t *instance.Instance, nextNull int64) {
	c.ren = c.ren[:0]
	for l := int64(0); l < nextNull; l++ {
		c.ren = append(c.ren, unmapped)
	}
	c.vals, c.shape, c.key = c.vals[:0], c.shape[:0], c.key[:0]
	next := int64(0)
	t.EachRelation(func(r instance.Rel) {
		start, cols := len(c.vals), r.Cols()
		for row, n := int32(0), r.Rows(); row < n; row++ {
			if r.HasDead() && !r.Alive(row) {
				continue
			}
			for _, col := range cols {
				v := col[row]
				if v.IsNull() {
					l := v.NullLabel()
					if c.ren[l] == unmapped {
						c.ren[l] = instance.Null(next)
						next++
					}
					v = c.ren[l]
				}
				c.vals = append(c.vals, v)
			}
		}
		w := len(cols)
		c.shape = append(c.shape, relShape{name: r.Name(), n: r.Len(), arity: w})
		c.key = append(c.key, r.Name()...)
		c.key = append(c.key, 0)
		c.key = binary.LittleEndian.AppendUint32(c.key, uint32(r.Len()))
		c.key = binary.LittleEndian.AppendUint32(c.key, uint32(w))
		if w == 0 {
			return
		}
		c.order = c.order[:0]
		for off := start; off < len(c.vals); off += w {
			c.order = append(c.order, int32(off))
		}
		vals := c.vals
		slices.SortFunc(c.order, func(a, b int32) int {
			return slices.Compare(vals[a:a+int32(w)], vals[b:b+int32(w)])
		})
		for _, off := range c.order {
			for _, v := range vals[off : off+int32(w)] {
				c.key = binary.LittleEndian.AppendUint64(c.key, uint64(v))
			}
		}
	})
}

// atoms returns a copy of the renamed rows of the last pass as atoms, in
// pass order, their arguments carved from one backing array.
func (c *canon) atoms() []instance.Atom {
	n := 0
	for _, sh := range c.shape {
		n += sh.n
	}
	flat := slices.Clone(c.vals)
	out := make([]instance.Atom, 0, n)
	off := 0
	for _, sh := range c.shape {
		for i := 0; i < sh.n; i++ {
			out = append(out, instance.Atom{Rel: sh.name, Args: flat[off : off+sh.arity : off+sh.arity]})
			off += sh.arity
		}
	}
	return out
}

// emit records a complete state — the walker's instance, whose nulls are
// _0 … _(nextNull−1) — deduplicating up to isomorphism. Each isomorphism
// class keeps the least display key seen (hom.CanonicalNullString of its
// representative), so the final (sorted) output does not depend on
// discovery order and hence not on the worker count. One pass over the
// state's rows (canon.pass) yields the dedup key, and a state whose key
// was emitted before stops there. Only a new key renders the display key
// and copies the renamed rows; the isomorphism test compiles a class's
// rows and searches for an injective homomorphism into the walked state,
// only for classes with the state's atom count per relation (which makes
// an injective homomorphism an isomorphism).
func (e *enumerator) emit(wk *walker, nextNull int64) {
	c := &wk.canon
	c.pass(wk.cur, nextNull)
	e.mu.Lock()
	if _, dup := e.seen[string(c.key)]; dup {
		e.mu.Unlock()
		return
	}
	if e.seen == nil {
		e.seen = make(map[string]struct{})
	}
	e.seen[string(c.key)] = struct{}{}
	e.mu.Unlock()
	atoms := c.atoms()
	key := instance.AtomSetString(atoms)
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, prev := range e.found {
		if !slices.Equal(prev.shape, c.shape) {
			continue
		}
		if _, iso := hom.CompileAtoms(prev.atoms).Find(wk.cur, hom.Injective()); iso {
			if key < prev.key {
				prev.atoms, prev.key = atoms, key
			}
			return
		}
	}
	e.found = append(e.found, &foundSol{atoms: atoms, key: key, shape: slices.Clone(c.shape)})
	if e.opt.MaxSolutions > 0 && len(e.found) >= e.opt.MaxSolutions {
		e.truncated.Store(true)
	}
}

// unmapped marks a null that a witness h does not map yet. It is no value
// of the universal solution: as a null it would carry the largest label.
const unmapped = instance.Value(math.MinInt64)

// universality decides whether cur maps homomorphically into the universal
// solution u and returns the witness: a homomorphism indexed by null label
// (cur's nulls are exactly _0 … _(nextNull−1)). h is the parent state's
// witness and mBase the mark at which cur held exactly the parent's atoms
// (at the root, h is empty and cur was empty at mBase). The parent's values
// stay fixed: a ground atom added since mBase need only be in u, and the
// others are matched against u's posting lists, binding only the new nulls
// (extend). An absent ground atom refutes outright: every homomorphism
// fixes it. Only when the extension fails is the state decided from
// scratch, on its atoms that mention a null (its ground atoms are all
// checked, here or at an ancestor): posting-list arc consistency
// (hom.PrecheckRefute) first, then a compiled search, whose hit becomes the
// witness in a fresh slice. So h is never written below its length, and an
// inline child extends its parent's slice in place.
func (e *enumerator) universality(wk *walker, h []instance.Value, mBase instance.Mark, nextNull int64) ([]instance.Value, bool) {
	cur, u := wk.cur, e.universal
	wk.delta, wk.args = wk.delta[:0], wk.args[:0]
	absent := false
	cur.EachAddedBetween(mBase, cur.Mark(), wk.addBuf[:0], func(a instance.Atom) bool {
		if !hasNull(a.Args) {
			absent = !u.Has(a)
			return !absent
		}
		start := len(wk.args)
		wk.args = append(wk.args, a.Args...)
		wk.delta = append(wk.delta, instance.Atom{Rel: a.Rel, Args: wk.args[start:len(wk.args):len(wk.args)]})
		return true
	})
	if absent {
		return nil, false
	}
	for int64(len(h)) < nextNull {
		h = append(h, unmapped)
	}
	if extend(u, wk.delta, h) {
		return h, true
	}
	metrics.EnumUnivFallbacks.Inc()
	atoms := cur.AtomsShared()
	open := atoms[:0]
	for _, a := range atoms {
		if hasNull(a.Args) {
			open = append(open, a)
		}
	}
	if hom.PrecheckRefute(open, u) {
		return nil, false
	}
	m, ok := hom.CompileAtoms(open).Find(u)
	if !ok {
		return nil, false
	}
	h = make([]instance.Value, nextNull)
	for l := range h {
		h[l] = m[instance.Null(int64(l))]
	}
	return h, true
}

// hasNull reports whether some value of args is a null.
func hasNull(args []instance.Value) bool {
	for _, v := range args {
		if v.IsNull() {
			return true
		}
	}
	return false
}

// extend binds the unmapped nulls of atoms in h, keeping the mapped ones
// fixed, so that every atom's image lies in u, and reports whether it
// could. Each level takes the atom with the fewest unmapped nulls and draws
// its candidate tuples from u's shortest posting list at a mapped position
// (all of u's rows when none is mapped). atoms is reordered; on failure h
// is as on entry.
func extend(u *instance.Instance, atoms []instance.Atom, h []instance.Value) bool {
	if len(atoms) == 0 {
		return true
	}
	best, bestFree := 0, math.MaxInt
	for j, a := range atoms {
		free := 0
		for _, v := range a.Args {
			if v.IsNull() && h[v.NullLabel()] == unmapped {
				free++
			}
		}
		if free < bestFree {
			best, bestFree = j, free
		}
	}
	atoms[0], atoms[best] = atoms[best], atoms[0]
	a, rest := atoms[0], atoms[1:]
	var buf [8]instance.Value
	img := buf[:0]
	for _, v := range a.Args {
		if v.IsNull() {
			v = h[v.NullLabel()]
		}
		img = append(img, v)
	}
	if bestFree == 0 {
		return u.Has(instance.Atom{Rel: a.Rel, Args: img}) && extend(u, rest, h)
	}
	rel, ok := u.Relation(a.Rel, len(a.Args))
	if !ok {
		return false
	}
	var rows []int32
	scan := true
	for p, v := range img {
		if v == unmapped {
			continue
		}
		if l := rel.Postings(p, v); scan || len(l) < len(rows) {
			rows, scan = l, false
		}
	}
	n := int32(len(rows))
	if scan {
		n = rel.Rows()
	}
	cols := rel.Cols()
	for i := int32(0); i < n; i++ {
		row := i
		if !scan {
			row = rows[i]
		} else if rel.HasDead() && !rel.Alive(row) {
			continue
		}
		if bindRow(a, img, cols, row, h) {
			if extend(u, rest, h) {
				return true
			}
			unbind(a, img, h)
		}
	}
	return false
}

// bindRow binds the nulls of a that img leaves unmapped to the values of
// u's row (cols[pos][row]). It reports false, binding nothing, when the row
// disagrees with img or would bind one null to two values.
func bindRow(a instance.Atom, img []instance.Value, cols [][]instance.Value, row int32, h []instance.Value) bool {
	for p, v := range img {
		if v != unmapped && cols[p][row] != v {
			return false
		}
	}
	for p, v := range img {
		if v != unmapped {
			continue
		}
		l, w := a.Args[p].NullLabel(), cols[p][row]
		if h[l] == unmapped {
			h[l] = w
		} else if h[l] != w {
			unbind(a, img, h)
			return false
		}
	}
	return true
}

// unbind resets the nulls of a that img leaves unmapped.
func unbind(a instance.Atom, img, h []instance.Value) {
	for p, v := range img {
		if v == unmapped {
			h[a.Args[p].NullLabel()] = unmapped
		}
	}
}

// forget deletes the keys of ms from keys: a state's closure added them.
func forget(keys map[string]struct{}, ms []openMatch) {
	for i := range ms {
		delete(keys, ms[i].key)
	}
}

// nfound returns the current number of isomorphism classes found.
func (e *enumerator) nfound() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.found)
}

// walk explores the state whose target instance is wk.cur and whose partial
// α is wk.alpha (the σ part of every state is the never-changing source,
// kept out of the walked instance; all dependencies fired here are over τ):
// fire chosen justifications to closure, prune on egd violations and on
// universality, then branch on the first unresolved justification. nextNull
// is the next fresh null label for canonical naming. wk is owned by this
// call until it returns; it leaves cur and alpha extended by whatever the
// state fired, for the caller to roll back (see descend), and wk.keys as it
// found them.
//
// inherited, when non-nil, is the parent state's fixpoint match list and
// fireAtoms the head atoms of the single newly resolved justification
// (instantiated by the parent's branch step, which already needed them for
// the pre-spawn refute): cur already contains every atom the parent fired,
// so instead of re-enumerating all tgd bodies from scratch the walk adds
// just the new firing's atoms and lets the semi-naive delta rounds discover
// the consequences. Their matches are appended to inherited in place, past
// the parent's length. A nil inherited (the root state) builds the list
// with a full enumeration.
//
// h is the parent state's homomorphism into the universal solution, indexed
// by null label (nil at the root), which the state extends in place past
// the parent's length too (see universality).
func (e *enumerator) walk(wk *walker, nextNull int64, inherited []openMatch, fireAtoms []instance.Atom, h []instance.Value) {
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
	cur, alpha := wk.cur, wk.alpha

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
	// justification key against wk.keys — is exactly the matches at the
	// fixpoint, reused by the first-unresolved scan below. s-t tgds use their
	// precomputed (constant) matches and can only fire in the first round;
	// target tgds (always conjunctive) stay on the slot path.
	var matches []openMatch
	mStart := cur.Mark()
	// The entry watermark: everything added from here to the fixpoint is
	// this state's delta over its parent, which h already maps.
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
		for i := range matches {
			wk.keys[matches[i].key] = struct{}{}
		}
	}
	for {
		mEnd := cur.Mark()
		if mEnd == mStart {
			break // previous round added nothing: fixpoint
		}
		start := len(matches)
		for _, d := range e.allTGDs {
			if _, ok := e.stMatches[d]; ok {
				continue
			}
			chase.DeltaBodyEnvsKeyedBetween(d, cur, mStart, mEnd, wk.addBuf[:0], func(env []instance.Value, key string) bool {
				if _, seen := wk.keys[key]; seen {
					return true
				}
				wk.keys[key] = struct{}{}
				senv := append([]instance.Value(nil), env...)
				matches = append(matches, openMatch{d: d, senv: senv, key: key})
				return true
			})
		}
		mStart = mEnd
		for _, m := range matches[start:] {
			if w, chosen := witness(alpha, m.d, m.key); chosen {
				fire(cur, m.d, m.senv, nil, w)
			}
		}
	}
	defer forget(wk.keys, matches[len(inherited):])

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
	// subtree contains no CWA-solution (Theorem 4.8). The parent's witness
	// is extended over this state's delta — see universality.
	h, univ := e.universality(wk, h, mBase, nextNull)
	if e.univHook != nil {
		e.univHook(cur, h, univ)
	}
	if !univ {
		e.prunedUniv.Add(1)
		return
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
		e.emit(wk, nextNull)
		return
	}

	// Branch over witness tuples for the unresolved justification: each
	// existential variable takes one of its witness pool's values (an
	// existing null, or a source or target constant the universal solution
	// admits at the variable's head positions) or a fresh null; fresh nulls
	// are introduced in canonical order to cut symmetry. Each complete
	// witness explores its subtree on a free worker if available, in place
	// on the walker otherwise (descend). Children inherit this state's
	// fixpoint match list and witness and fire only the justification
	// resolved here. The pool is computed before the first child runs; an
	// in-place child restores the walker on return.
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
			e.descend(wk, first.key, w, nextNull+freshUsed, matches, atoms, h)
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

// SortEnumeratedBySize is SortBySize for solutions in the order Enumerate
// and EnumerateOn return them: sorted by their canonical keys, each equal
// to the solution's String(). A stable sort by atom count alone then yields
// SortBySize's order without rendering any solution.
func SortEnumeratedBySize(sols []*instance.Instance) {
	sort.SliceStable(sols, func(i, j int) bool { return sols[i].Len() < sols[j].Len() })
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
