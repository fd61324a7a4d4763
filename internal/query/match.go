package query

import (
	"sort"

	"repro/internal/instance"
)

// Tuple is an answer tuple over the domain.
type Tuple []instance.Value

// Key returns a canonical string key for set operations on tuples.
func (t Tuple) Key() string {
	out := make([]byte, 0, len(t)*12)
	for i, v := range t {
		if i > 0 {
			out = append(out, '|')
		}
		out = append(out, v.String()...)
	}
	return string(out)
}

// HasNull reports whether the tuple mentions a labeled null.
func (t Tuple) HasNull() bool {
	for _, v := range t {
		if v.IsNull() {
			return true
		}
	}
	return false
}

func (t Tuple) String() string {
	out := "("
	for i, v := range t {
		if i > 0 {
			out += ","
		}
		out += v.String()
	}
	return out + ")"
}

// Equal reports component-wise equality.
func (t Tuple) Equal(u Tuple) bool {
	if len(t) != len(u) {
		return false
	}
	for i := range t {
		if t[i] != u[i] {
			return false
		}
	}
	return true
}

// TupleSet is a set of tuples keyed canonically, preserving insertion order.
type TupleSet struct {
	byKey map[string]int
	elems []Tuple
}

// NewTupleSet builds a set from the given tuples.
func NewTupleSet(ts ...Tuple) *TupleSet {
	s := &TupleSet{byKey: make(map[string]int)}
	for _, t := range ts {
		s.Add(t)
	}
	return s
}

// Add inserts the tuple, reporting whether it was new.
func (s *TupleSet) Add(t Tuple) bool {
	k := t.Key()
	if _, ok := s.byKey[k]; ok {
		return false
	}
	cp := make(Tuple, len(t))
	copy(cp, t)
	s.byKey[k] = len(s.elems)
	s.elems = append(s.elems, cp)
	return true
}

// Has reports membership.
func (s *TupleSet) Has(t Tuple) bool { _, ok := s.byKey[t.Key()]; return ok }

// Len returns the number of tuples.
func (s *TupleSet) Len() int { return len(s.elems) }

// Tuples returns the tuples in insertion order.
func (s *TupleSet) Tuples() []Tuple { return s.elems }

// Intersect returns the tuples present in both sets.
func (s *TupleSet) Intersect(o *TupleSet) *TupleSet {
	out := NewTupleSet()
	for _, t := range s.elems {
		if o.Has(t) {
			out.Add(t)
		}
	}
	return out
}

// UnionWith adds every tuple of o to s.
func (s *TupleSet) UnionWith(o *TupleSet) {
	for _, t := range o.elems {
		s.Add(t)
	}
}

// Equal reports whether the two sets contain the same tuples.
func (s *TupleSet) Equal(o *TupleSet) bool {
	if s.Len() != o.Len() {
		return false
	}
	for _, t := range s.elems {
		if !o.Has(t) {
			return false
		}
	}
	return true
}

// SubsetOf reports whether every tuple of s is in o.
func (s *TupleSet) SubsetOf(o *TupleSet) bool {
	for _, t := range s.elems {
		if !o.Has(t) {
			return false
		}
	}
	return true
}

// String renders the set as { (a,b), (c,d) } in insertion order.
func (s *TupleSet) String() string {
	out := "{"
	for i, t := range s.elems {
		if i > 0 {
			out += ", "
		}
		out += t.String()
	}
	return out + "}"
}

// MatchAtoms enumerates all extensions of init that make every atom of the
// conjunction true in ins, invoking f for each complete binding. The binding
// passed to f is reused between calls; clone it if you keep it. Enumeration
// stops early when f returns false. MatchAtoms returns false iff it was
// stopped early.
//
// MatchAtoms compiles the conjunction into a Plan (fixed most-bound atom
// order, integer slots) and evaluates it, so the per-step cost is
// allocation-free; callers that evaluate the same body repeatedly should
// Compile once and reuse the Plan. The enumeration order is identical to the
// interpreted reference engine MatchAtomsRef (ref_test.go).
func MatchAtoms(ins *instance.Instance, atoms []Atom, init Binding, f func(Binding) bool) bool {
	var preBound []string
	if len(init) > 0 {
		preBound = make([]string, 0, len(init))
		for v := range init {
			preBound = append(preBound, v)
		}
		sort.Strings(preBound)
	}
	return Compile(atoms, preBound).EvalBinding(ins, init, f)
}
