// Package hom implements homomorphism search between relational instances
// with nulls, in the sense of Fagin, Kolaitis, Miller, Popa that the paper
// adopts: a homomorphism h: Dom(I) → Dom(J) maps every atom of I to an atom
// of J and is the identity on constants (nulls may map to nulls or to
// constants).
//
// Homomorphisms are the paper's central tool: universal solutions are the
// solutions with homomorphisms into every solution, cores are minimal
// retracts, and CWA-solutions are characterised as universal CWA-presolutions
// (Theorem 4.8).
package hom

import (
	"sort"
	"strconv"
	"strings"

	"repro/internal/instance"
	"repro/internal/metrics"
)

// Mapping is a value mapping; constants always map to themselves and are not
// stored. Apply resolves values through the mapping.
type Mapping map[instance.Value]instance.Value

// Apply resolves a value: constants and unmapped values stay fixed.
func (m Mapping) Apply(v instance.Value) instance.Value {
	if w, ok := m[v]; ok {
		return w
	}
	return v
}

// ApplyInstance returns the image of an instance under the mapping.
func (m Mapping) ApplyInstance(ins *instance.Instance) *instance.Instance {
	return ins.Map(map[instance.Value]instance.Value(m))
}

// options configures the search.
type options struct {
	injective bool
	forced    Mapping
	avoid     instance.Value
	hasAvoid  bool
}

// Option customises Find.
type Option func(*options)

// Injective requires the homomorphism to be injective on Dom(from).
func Injective() Option { return func(o *options) { o.injective = true } }

// Forced seeds the search with a partial mapping that the result must extend.
func Forced(m Mapping) Option { return func(o *options) { o.forced = m } }

// Avoiding forbids the given value from occurring in the image: no atom of
// from may map to an atom mentioning it. Find(from, to, Avoiding(n)) is
// equivalent to Find(from, Without(to, n)) but needs no instance copy.
func Avoiding(v instance.Value) Option {
	return func(o *options) { o.avoid = v; o.hasAvoid = true }
}

// Find searches for a homomorphism from one instance to another. It returns
// the mapping restricted to the nulls of from (constants are implicitly
// fixed) and whether one exists.
//
// Find compiles the source's atom list once (CompileSource) and runs the
// compiled search with arc-consistency pruning; callers probing the same
// source repeatedly should compile once and reuse the Search.
func Find(from, to *instance.Instance, opts ...Option) (Mapping, bool) {
	return CompileSource(from).Find(to, opts...)
}

// Exists reports whether a homomorphism from → to exists.
func Exists(from, to *instance.Instance) bool {
	metrics.HomExists.Inc()
	_, ok := Find(from, to)
	return ok
}

// FindAll enumerates homomorphisms from → to, up to max of them (max ≤ 0
// means no bound). Each mapping covers every null of from.
func FindAll(from, to *instance.Instance, max int) []Mapping {
	var out []Mapping
	s := CompileSource(from)
	st := s.state()
	defer s.release(st)
	s.searchAll(to, st, 0, func(m Mapping) bool {
		out = append(out, m)
		return max <= 0 || len(out) < max
	})
	return out
}

// FindOnto searches for a homomorphism from → to whose image is exactly to
// (every atom of to is the image of some atom of from): "to is a
// homomorphic image of from", the comparison underlying maximal
// CWA-solutions (Section 5).
//
// Bound contract: with maxHoms > 0 the search examines exactly
// min(maxHoms, total) enumerated homomorphisms, each fully checked for
// surjectivity — including the maxHoms-th, whose verdict is never
// discarded at the boundary (pinned by TestFindOntoBoundContract). If none
// of the examined candidates is onto, FindOnto reports false even when a
// later homomorphism would be; callers that need a complete answer must
// pass maxHoms ≤ 0 (unbounded). The bound counts enumerated homomorphisms,
// not search states, so a false result with maxHoms > 0 is "not found
// among the first maxHoms", not "no onto homomorphism exists".
func FindOnto(from, to *instance.Instance, maxHoms int) (Mapping, bool) {
	if from.Len() < to.Len() {
		return nil, false
	}
	var found Mapping
	s := CompileSource(from)
	st := s.state()
	defer s.release(st)
	n := 0
	s.searchAll(to, st, 0, func(m Mapping) bool {
		n++
		// Surjectivity is checked before the bound: the candidate that
		// exhausts the budget still gets its full verdict.
		if m.ApplyInstance(from).Equal(to) {
			found = m
			return false
		}
		return maxHoms <= 0 || n < maxHoms
	})
	return found, found != nil
}

// orderAtoms returns the atoms ordered so that atoms sharing nulls are
// adjacent (grouped by connected component, most-constrained first). A static
// greedy order: repeatedly pick the atom with the fewest unseen nulls.
// The input slice is left unmodified.
func orderAtoms(atoms []instance.Atom) []instance.Atom {
	// Greedy fewest-unseen-nulls-first, first minimum wins. Scores are
	// maintained incrementally (decremented at every occurrence of a null the
	// moment it becomes seen), which picks the exact same sequence as
	// re-scoring every remaining atom per round: the scan below visits alive
	// atoms in original order, just as the splice-based remaining list did.
	n := len(atoms)
	score := make([]int, n)
	occs := make(map[instance.Value][]int)
	for i, a := range atoms {
		for _, v := range a.Args {
			if v.IsNull() {
				score[i]++ // per occurrence, as the rescan counted
				occs[v] = append(occs[v], i)
			}
		}
	}
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	ordered := make([]instance.Atom, 0, n)
	for len(ordered) < n {
		best, bestScore := -1, 1<<30
		for i := 0; i < n; i++ {
			if alive[i] && score[i] < bestScore {
				best, bestScore = i, score[i]
			}
		}
		a := atoms[best]
		alive[best] = false
		for _, v := range a.Args {
			if idxs, unseen := occs[v]; unseen && v.IsNull() {
				delete(occs, v)
				for _, j := range idxs {
					score[j]--
				}
			}
		}
		ordered = append(ordered, a)
	}
	return ordered
}

// Isomorphic reports whether the two instances are equal up to renaming of
// nulls: same atom counts per relation and an injective homomorphism from a
// to b (which is then necessarily an isomorphism).
func Isomorphic(a, b *instance.Instance) bool {
	if a.Len() != b.Len() {
		return false
	}
	ra, rb := a.Relations(), b.Relations()
	if len(ra) != len(rb) {
		return false
	}
	for i := range ra {
		if ra[i] != rb[i] || a.RelLen(ra[i]) != b.RelLen(rb[i]) {
			return false
		}
	}
	if a.DomSize() != b.DomSize() {
		return false
	}
	_, ok := Find(a, b, Injective())
	return ok
}

// HomEquivalent reports whether homomorphisms exist in both directions.
// Homomorphically equivalent instances have isomorphic cores.
func HomEquivalent(a, b *instance.Instance) bool {
	return Exists(a, b) && Exists(b, a)
}

// Endomorphism searches for a homomorphism from t to the sub-instance of t
// consisting of the atoms that do not mention the value drop. Such a
// homomorphism exists iff t retracts to a structure missing drop; it is the
// elementary step of core computation.
func Endomorphism(t *instance.Instance, drop instance.Value) (Mapping, bool) {
	return Find(t, Without(t, drop))
}

// Without returns the atoms of t that do not mention v.
func Without(t *instance.Instance, v instance.Value) *instance.Instance {
	out := instance.New()
	for _, a := range t.Atoms() {
		mentions := false
		for _, w := range a.Args {
			if w == v {
				mentions = true
				break
			}
		}
		if !mentions {
			out.Add(a)
		}
	}
	return out
}

// CanonicalNullForm renames the nulls of t to 0,1,2,… in first-occurrence
// order of the deterministic atom enumeration, producing a representative
// that is stable under label shifts (though not under all isomorphisms).
func CanonicalNullForm(t *instance.Instance) *instance.Instance {
	ren := make(map[instance.Value]instance.Value)
	var next int64
	for _, a := range t.Atoms() {
		for _, v := range a.Args {
			if v.IsNull() {
				if _, ok := ren[v]; !ok {
					ren[v] = instance.Null(next)
					next++
				}
			}
		}
	}
	return t.Map(ren)
}

// CanonicalNullString returns CanonicalNullForm(t).String() without
// building the renamed instance: each atom is rendered under the renaming
// into one shared buffer, and the rendered atoms are sorted in place.
func CanonicalNullString(t *instance.Instance) string {
	ren := make(map[instance.Value]int64)
	n := t.Len()
	buf := make([]byte, 0, 16*n)
	spans := make([][2]int, 0, n)
	for _, rel := range t.Relations() {
		t.Tuples(rel, func(args []instance.Value) bool {
			start := len(buf)
			buf = append(buf, rel...)
			buf = append(buf, '(')
			for i, v := range args {
				if i > 0 {
					buf = append(buf, ',')
				}
				if v.IsConst() {
					buf = append(buf, instance.ConstName(v)...)
					continue
				}
				l, ok := ren[v]
				if !ok {
					l = int64(len(ren))
					ren[v] = l
				}
				buf = append(buf, '_')
				buf = strconv.AppendInt(buf, l, 10)
			}
			buf = append(buf, ')')
			spans = append(spans, [2]int{start, len(buf)})
			return true
		})
	}
	sort.Slice(spans, func(i, j int) bool {
		return string(buf[spans[i][0]:spans[i][1]]) < string(buf[spans[j][0]:spans[j][1]])
	})
	var b strings.Builder
	b.Grow(len(buf) + 2*len(spans) + 2)
	b.WriteByte('{')
	for i, sp := range spans {
		if i > 0 {
			b.WriteString(", ")
		}
		b.Write(buf[sp[0]:sp[1]])
	}
	b.WriteByte('}')
	return b.String()
}

// SortValues sorts a value slice under the canonical order.
func SortValues(vs []instance.Value) {
	sort.Slice(vs, func(i, j int) bool { return instance.Less(vs[i], vs[j]) })
}
