package hom

import (
	"sync"

	"repro/internal/instance"
	"repro/internal/metrics"
)

// Search is a compiled source instance: the atoms of "from" in the static
// fewest-unseen-nulls order of orderAtoms, with nulls assigned integer slots
// and each atom position classified at compile time as constant, bound by an
// earlier atom (pattern fill), first occurrence (bind) or repeat within the
// same atom (equality check). A Search is immutable and safe for concurrent
// use; compile once per source instance and run it against many targets
// (core computation probes the same block against the instance once per
// droppable null).
//
// The source instance must not be mutated while a Search compiled from it is
// in use.
type Search struct {
	nulls  []instance.Value // slot → null
	slotOf map[instance.Value]int
	consts []instance.Value // distinct constants of the source atoms
	atoms  []searchAtom
	occs   [][]searchOcc // per slot: distinct (rel,pos) occurrences in from
	pool   sync.Pool     // *searchState
}

// searchOcc is one position of the source instance where a null occurs.
type searchOcc struct {
	rel string
	pos int
}

type searchFill struct{ pos, slot int }

// searchOp handles an unbound position of a candidate tuple: bind the slot
// (first occurrence) or check equality against it (repeat in the same atom).
type searchOp struct {
	pos, slot int
	check     bool
}

type searchAtom struct {
	rel     string
	pattern []instance.Value
	bound   []bool
	fills   []searchFill
	ops     []searchOp
}

type searchState struct {
	env      []instance.Value
	patterns [][]instance.Value
	// Per-run options (reset by each Find/FindAll call).
	used      map[instance.Value]bool // injective: reserved image values
	forced    []instance.Value        // slot → forced image
	forcedSet []bool
	injective bool
	avoid     instance.Value
	hasAvoid  bool
}

// CompileSource compiles the atoms of from for repeated homomorphism
// searches. The traversal order and candidate order are identical to the
// interpreted finder's, so Find results are unchanged.
func CompileSource(from *instance.Instance) *Search {
	return CompileAtoms(from.AtomsShared())
}

// CompileAtoms compiles an explicit atom list — a source that never needs to
// be materialized as an Instance (core computation compiles each Gaifman
// block's atoms directly). The atoms are reordered by the same
// fewest-unseen-nulls heuristic as CompileSource, so for an atom list equal
// to an instance's (sorted-relation, insertion-order) enumeration the
// compiled search is identical. The atoms' Args must stay unmodified while
// the Search is in use.
func CompileAtoms(src []instance.Atom) *Search {
	metrics.HomCompiles.Inc()
	atoms := orderAtoms(src)
	total := 0
	for _, a := range atoms {
		total += len(a.Args)
	}
	s := &Search{slotOf: make(map[instance.Value]int, total)}
	constSeen := make(map[instance.Value]bool)
	s.atoms = make([]searchAtom, 0, len(atoms))
	// One flat backing for every atom's pattern, bound, ops and fills
	// slices; each atom gets a capacity-bounded disjoint region, so the
	// per-position appends below never reallocate.
	patFlat := make([]instance.Value, total)
	boundFlat := make([]bool, total)
	opsFlat := make([]searchOp, 0, total)
	fillsFlat := make([]searchFill, 0, total)
	// slotAtom records the atom index at which each slot is first bound, so a
	// repeat of a null inside the binding atom (an equality check) is told
	// apart from a fill without per-atom bookkeeping.
	var slotAtom []int
	off := 0
	for ai, a := range atoms {
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
					s.consts = append(s.consts, v)
				}
				continue
			}
			if slot, ok := s.slotOf[v]; ok {
				s.addOcc(slot, a.Rel, i)
				if slotAtom[slot] == ai {
					sa.ops = append(sa.ops, searchOp{pos: i, slot: slot, check: true})
					continue
				}
				sa.bound[i] = true
				sa.fills = append(sa.fills, searchFill{pos: i, slot: slot})
				continue
			}
			slot := len(s.nulls)
			s.slotOf[v] = slot
			s.nulls = append(s.nulls, v)
			slotAtom = append(slotAtom, ai)
			// Occurrence lists drive the arc-consistency prune: a null's
			// image must appear at every position the null occupies in from.
			s.occs = append(s.occs, []searchOcc{{rel: a.Rel, pos: i}})
			sa.ops = append(sa.ops, searchOp{pos: i, slot: slot})
		}
		s.atoms = append(s.atoms, sa)
	}
	return s
}

// addOcc appends the (rel,pos) occurrence to the slot's list unless already
// present (lists are tiny; a linear scan beats a map).
func (s *Search) addOcc(slot int, rel string, pos int) {
	for _, o := range s.occs[slot] {
		if o.rel == rel && o.pos == pos {
			return
		}
	}
	s.occs[slot] = append(s.occs[slot], searchOcc{rel: rel, pos: pos})
}

// Nulls returns the slot → null table (the search's own storage).
func (s *Search) Nulls() []instance.Value { return s.nulls }

// Exists reports whether a homomorphism from the compiled source into to
// exists, honouring the same options as Find.
func (s *Search) Exists(to *instance.Instance, opts ...Option) bool {
	metrics.HomExists.Inc()
	_, ok := s.Find(to, opts...)
	return ok
}

// FindAvoidingAC is Find(to, Avoiding(avoid)) with a decision-mode
// arc-consistency pass (acDecide) first: probes whose per-slot candidate
// domains (excluding avoid) empty out are refuted without backtracking, and
// probes where every domain is a singleton return the forced mapping
// immediately, since verifying its image atoms decides the question —
// the common cases of score.Core's per-null droppability probes, which call
// this once per null against the same compiled block.
func (s *Search) FindAvoidingAC(to *instance.Instance, avoid instance.Value) (Mapping, bool) {
	metrics.HomExists.Inc()
	st := s.state()
	defer s.release(st)
	st.avoid, st.hasAvoid = avoid, true
	switch s.acDecide(to, st) {
	case acRefuted:
		return nil, false
	case acUnknown:
		if !s.search(to, st, 0) {
			return nil, false
		}
	}
	out := make(Mapping, len(s.nulls))
	for slot, n := range s.nulls {
		out[n] = st.env[slot]
	}
	return out, true
}

// acVerdict is the outcome of acDecide's arc-consistency pass.
type acVerdict int

const (
	// acUnknown: the pass could not decide; run the backtracking search.
	acUnknown acVerdict = iota
	// acRefuted: no homomorphism exists (some atom or slot cannot embed).
	acRefuted
	// acConfirmed: a homomorphism exists; unit propagation forced it.
	acConfirmed
)

// acDecide runs the decision-mode arc-consistency pass for FindAvoidingAC,
// recording singleton domains into st.env (on acConfirmed,
// st.env holds the complete forced assignment). Stale env entries are
// harmless on acUnknown: the subsequent search rebinds every slot at its
// binding atom before any fill reads it.
func (s *Search) acDecide(to *instance.Instance, st *searchState) acVerdict {
	allSingle := true
	for slot, occs := range s.occs {
		if len(occs) == 0 {
			continue
		}
		base := occs[0]
		for _, o := range occs[1:] {
			if to.PosDistinct(o.rel, o.pos) < to.PosDistinct(base.rel, base.pos) {
				base = o
			}
		}
		survivors := 0
		var single instance.Value
		to.EachPosValue(base.rel, base.pos, func(v instance.Value, _ int) bool {
			if st.hasAvoid && v == st.avoid {
				return true
			}
			for _, o := range occs {
				if o == base {
					continue
				}
				if !to.PosHasValue(o.rel, o.pos, v) {
					return true
				}
			}
			survivors++
			single = v
			return survivors < 2
		})
		if survivors == 0 {
			metrics.HomACRefutes.Inc()
			return acRefuted
		}
		if survivors >= 2 {
			allSingle = false
			continue
		}
		st.env[slot] = single
	}
	if !allSingle {
		return acUnknown
	}
	// Every domain is a singleton (vacuously for ground sources): presence of
	// the forced assignment's image atoms decides existence either way.
	for i := range s.atoms {
		a := &s.atoms[i]
		pat := st.patterns[i]
		copy(pat, a.pattern)
		for _, fr := range a.fills {
			pat[fr.pos] = st.env[fr.slot]
		}
		for _, op := range a.ops {
			pat[op.pos] = st.env[op.slot]
		}
		if st.hasAvoid {
			// Slot images exclude avoid by domain construction, but a
			// constant position could still mention it.
			for _, v := range pat {
				if v == st.avoid {
					metrics.HomACRefutes.Inc()
					return acRefuted
				}
			}
		}
		if !to.Has(instance.Atom{Rel: a.rel, Args: pat}) {
			metrics.HomACRefutes.Inc()
			return acRefuted
		}
	}
	metrics.HomACConfirms.Inc()
	return acConfirmed
}

func (s *Search) state() *searchState {
	if st, ok := s.pool.Get().(*searchState); ok {
		return st
	}
	st := &searchState{
		env:       make([]instance.Value, len(s.nulls)),
		patterns:  make([][]instance.Value, len(s.atoms)),
		forced:    make([]instance.Value, len(s.nulls)),
		forcedSet: make([]bool, len(s.nulls)),
	}
	total := 0
	for _, a := range s.atoms {
		total += len(a.pattern)
	}
	flat := make([]instance.Value, total)
	off := 0
	for i, a := range s.atoms {
		st.patterns[i] = flat[off : off+len(a.pattern) : off+len(a.pattern)]
		off += len(a.pattern)
	}
	return st
}

func (s *Search) release(st *searchState) {
	st.used = nil
	for i := range st.forcedSet {
		st.forcedSet[i] = false
	}
	st.injective = false
	st.hasAvoid = false
	s.pool.Put(st)
}

// Find searches for a homomorphism from the compiled source into to,
// honouring the same options as the package-level Find.
func (s *Search) Find(to *instance.Instance, opts ...Option) (Mapping, bool) {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	st := s.state()
	defer s.release(st)
	st.injective = o.injective
	st.avoid, st.hasAvoid = o.avoid, o.hasAvoid
	if o.injective {
		st.used = make(map[instance.Value]bool)
	}
	// Seed forced assignments (constants in forced must be identities).
	for k, v := range o.forced {
		if k.IsConst() {
			if k != v {
				return nil, false
			}
			continue
		}
		if o.injective {
			if st.used[v] {
				return nil, false
			}
			st.used[v] = true
		}
		if slot, ok := s.slotOf[k]; ok {
			st.forced[slot] = v
			st.forcedSet[slot] = true
		}
	}
	if o.injective {
		// Constants are fixed, so they occupy their own images.
		for _, c := range s.consts {
			if st.used[c] {
				// A forced null already maps onto this constant.
				return nil, false
			}
			st.used[c] = true
		}
	}
	if s.pruned(to, st) {
		return nil, false
	}
	if !s.search(to, st, 0) {
		return nil, false
	}
	out := make(Mapping, len(s.nulls)+len(o.forced))
	for slot, n := range s.nulls {
		out[n] = st.env[slot]
	}
	// Forced nulls outside the active domain still belong to the mapping.
	for k, v := range o.forced {
		if k.IsNull() {
			if _, ok := s.slotOf[k]; !ok {
				out[k] = v
			}
		}
	}
	return out, true
}

// pruned runs the arc-consistency check: for each null, its candidate domain
// is the set of values occurring at every position the null occupies in the
// source (minus the avoided value). An empty domain refutes the search
// before any backtracking; only these deterministic empty-domain events are
// counted in metrics.HomPrunes (the domain scan itself iterates index maps
// in unspecified order, but emptiness does not depend on that order).
func (s *Search) pruned(to *instance.Instance, st *searchState) bool {
	for slot, occs := range s.occs {
		if len(occs) == 0 {
			continue
		}
		if st.forcedSet[slot] {
			v := st.forced[slot]
			if st.hasAvoid && v == st.avoid {
				metrics.HomPrunes.Inc()
				return true
			}
			for _, o := range occs {
				if !to.PosHasValue(o.rel, o.pos, v) {
					metrics.HomPrunes.Inc()
					return true
				}
			}
			continue
		}
		// Enumerate the smallest occurrence's distinct values and probe the
		// rest; one survivor is enough.
		base := occs[0]
		for _, o := range occs[1:] {
			if to.PosDistinct(o.rel, o.pos) < to.PosDistinct(base.rel, base.pos) {
				base = o
			}
		}
		found := false
		to.EachPosValue(base.rel, base.pos, func(v instance.Value, _ int) bool {
			if st.hasAvoid && v == st.avoid {
				return true
			}
			for _, o := range occs {
				if o == base {
					continue
				}
				if !to.PosHasValue(o.rel, o.pos, v) {
					return true
				}
			}
			found = true
			return false
		})
		if !found {
			metrics.HomPrunes.Inc()
			return true
		}
	}
	return false
}

// search runs the backtracking over the compiled atoms, keeping the
// successful bindings in st.env. It mirrors the interpreted finder: same
// atom order, same candidate enumeration, same per-position bind/check
// sequence, so the found mapping is identical.
func (s *Search) search(to *instance.Instance, st *searchState, lvl int) bool {
	if lvl == len(s.atoms) {
		return true
	}
	a := &s.atoms[lvl]
	pat := st.patterns[lvl]
	copy(pat, a.pattern)
	for _, fr := range a.fills {
		pat[fr.pos] = st.env[fr.slot]
	}
	rel, ok := to.Relation(a.rel, len(a.pattern))
	if !ok {
		return false
	}
	cols := rel.Cols()
	best := -1
	var bestList []int32
	for i, b := range a.bound {
		if !b {
			continue
		}
		l := rel.Postings(i, pat[i])
		if best == -1 || len(l) < len(bestList) {
			best, bestList = i, l
		}
	}
	if best >= 0 {
		for _, row := range bestList {
			if done, found := s.step(to, st, lvl, a, pat, cols, row); done {
				return found
			}
		}
		return false
	}
	n := rel.Rows()
	dead := rel.HasDead()
	for row := int32(0); row < n; row++ {
		if dead && !rel.Alive(row) {
			continue
		}
		if done, found := s.step(to, st, lvl, a, pat, cols, row); done {
			return found
		}
	}
	return false
}

// step tries one candidate row at the given level. done reports that the
// whole search finished (found true: keep bindings and unwind).
func (s *Search) step(to *instance.Instance, st *searchState, lvl int, a *searchAtom, pat []instance.Value, cols [][]instance.Value, row int32) (done, found bool) {
	for i, b := range a.bound {
		if b && cols[i][row] != pat[i] {
			return false, false
		}
	}
	if st.hasAvoid {
		for _, col := range cols {
			if col[row] == st.avoid {
				return false, false
			}
		}
	}
	nBinds := 0
	ok := true
	for _, op := range a.ops {
		if op.check {
			if cols[op.pos][row] != st.env[op.slot] {
				ok = false
				break
			}
			continue
		}
		v := cols[op.pos][row]
		if st.forcedSet[op.slot] {
			// The forced image is already reserved; only equality matters.
			if v != st.forced[op.slot] {
				ok = false
				break
			}
			st.env[op.slot] = v
			continue
		}
		if st.injective {
			if st.used[v] {
				ok = false
				break
			}
			st.used[v] = true
		}
		st.env[op.slot] = v
		nBinds++
	}
	if ok && s.search(to, st, lvl+1) {
		return true, true
	}
	if nBinds > 0 {
		metrics.HomBacktracks.Inc()
	}
	if st.injective {
		// Release the values reserved by this candidate's binds. Slots bound
		// here still hold this candidate's values: deeper levels never
		// rebind them (boundness is static).
		n := 0
		for _, op := range a.ops {
			if op.check || st.forcedSet[op.slot] {
				continue
			}
			if n == nBinds {
				break
			}
			delete(st.used, st.env[op.slot])
			n++
		}
	}
	return false, false
}

// searchAll enumerates every completion, emitting a copy of the mapping for
// each; emit returns false to stop. Used by FindAll and FindOnto.
func (s *Search) searchAll(to *instance.Instance, st *searchState, lvl int, emit func(Mapping) bool) bool {
	if lvl == len(s.atoms) {
		cp := make(Mapping, len(s.nulls))
		for slot, n := range s.nulls {
			cp[n] = st.env[slot]
		}
		return emit(cp)
	}
	a := &s.atoms[lvl]
	pat := st.patterns[lvl]
	copy(pat, a.pattern)
	for _, fr := range a.fills {
		pat[fr.pos] = st.env[fr.slot]
	}
	rel, ok := to.Relation(a.rel, len(a.pattern))
	if !ok {
		return true
	}
	cols := rel.Cols()
	best := -1
	var bestList []int32
	for i, b := range a.bound {
		if !b {
			continue
		}
		l := rel.Postings(i, pat[i])
		if best == -1 || len(l) < len(bestList) {
			best, bestList = i, l
		}
	}
	if best >= 0 {
		for _, row := range bestList {
			if !s.stepAll(to, st, lvl, a, pat, cols, row, emit) {
				return false
			}
		}
		return true
	}
	n := rel.Rows()
	dead := rel.HasDead()
	for row := int32(0); row < n; row++ {
		if dead && !rel.Alive(row) {
			continue
		}
		if !s.stepAll(to, st, lvl, a, pat, cols, row, emit) {
			return false
		}
	}
	return true
}

func (s *Search) stepAll(to *instance.Instance, st *searchState, lvl int, a *searchAtom, pat []instance.Value, cols [][]instance.Value, row int32, emit func(Mapping) bool) bool {
	for i, b := range a.bound {
		if b && cols[i][row] != pat[i] {
			return true
		}
	}
	nBinds := 0
	ok := true
	for _, op := range a.ops {
		if op.check {
			if cols[op.pos][row] != st.env[op.slot] {
				ok = false
				break
			}
			continue
		}
		st.env[op.slot] = cols[op.pos][row]
		nBinds++
	}
	cont := true
	if ok {
		cont = s.searchAll(to, st, lvl+1, emit)
	}
	if nBinds > 0 {
		metrics.HomBacktracks.Inc()
	}
	return cont
}
