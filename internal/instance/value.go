// Package instance provides the relational data model used throughout the
// library: values (constants and labeled nulls), atoms, schemas, and indexed
// instances over a fixed countable domain Dom = Const ∪ Null.
//
// The representation follows Section 2 of Hernich & Schweikardt (PODS 2007):
// an instance is a finite set of atoms R(ū) whose arguments are either
// constants (denoted a, b, c, … in the paper) or labeled nulls (⊥, ⊥1, …),
// and Null is linearly ordered so that equality-generating dependencies can
// deterministically replace the larger null by the smaller one.
package instance

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Value is an element of Dom = Const ∪ Null.
//
// Non-negative values are constants: indexes into the process-wide constant
// intern table. Negative values are labeled nulls: the null with label i is
// represented as -(i+1). The linear order on nulls required by the paper for
// unambiguous egd application is the order of their labels.
type Value int64

// IsNull reports whether v is a labeled null.
func (v Value) IsNull() bool { return v < 0 }

// IsConst reports whether v is a constant.
func (v Value) IsConst() bool { return v >= 0 }

// NullLabel returns the label of a null value. It panics if v is a constant.
func (v Value) NullLabel() int64 {
	if !v.IsNull() {
		panic("instance: NullLabel on constant " + v.String())
	}
	return -int64(v) - 1
}

// Null returns the null with the given label (label ≥ 0).
func Null(label int64) Value {
	if label < 0 {
		panic("instance: negative null label")
	}
	return Value(-label - 1)
}

// constTable is the process-wide constant intern table. Constants are
// compared by identity, so interning makes equality O(1) and keeps Value a
// plain integer.
var constTable = struct {
	sync.RWMutex
	byName map[string]Value
	names  []string
}{byName: make(map[string]Value)}

// Const interns the constant with the given name and returns its value.
// The same name always returns the same Value within a process.
func Const(name string) Value {
	constTable.RLock()
	v, ok := constTable.byName[name]
	constTable.RUnlock()
	if ok {
		return v
	}
	constTable.Lock()
	defer constTable.Unlock()
	if v, ok := constTable.byName[name]; ok {
		return v
	}
	v = Value(len(constTable.names))
	constTable.names = append(constTable.names, name)
	constTable.byName[name] = v
	return v
}

// ConstName returns the interned name of a constant value.
func ConstName(v Value) string {
	if v.IsNull() {
		panic("instance: ConstName on null " + v.String())
	}
	constTable.RLock()
	defer constTable.RUnlock()
	if int64(v) >= int64(len(constTable.names)) {
		panic("instance: unknown constant id " + strconv.FormatInt(int64(v), 10))
	}
	return constTable.names[v]
}

// String renders a constant as its name and a null as _<label>.
func (v Value) String() string {
	if v.IsNull() {
		return "_" + strconv.FormatInt(v.NullLabel(), 10)
	}
	return ConstName(v)
}

// Less is the total order used for deterministic output and for the paper's
// rule that egd application replaces the larger null by the smaller: nulls
// are ordered by label; every constant is smaller than every null when mixed
// (so that a null is always the one replaced); constants order by name.
func Less(a, b Value) bool {
	switch {
	case a.IsConst() && b.IsConst():
		return ConstName(a) < ConstName(b)
	case a.IsConst():
		return true
	case b.IsConst():
		return false
	default:
		return a.NullLabel() < b.NullLabel()
	}
}

// NullSource hands out fresh labeled nulls. The zero value starts at label 0;
// use NewNullSource to start above the labels already present in an instance.
type NullSource struct {
	mu   sync.Mutex
	next int64
}

// NewNullSource returns a source whose first fresh null has the given label.
func NewNullSource(first int64) *NullSource { return &NullSource{next: first} }

// Fresh returns a null that the source has not returned before.
func (s *NullSource) Fresh() Value {
	s.mu.Lock()
	defer s.mu.Unlock()
	v := Null(s.next)
	s.next++
	return v
}

// Atom is a fact R(u1, …, ur).
type Atom struct {
	Rel  string
	Args []Value
}

// NewAtom builds an atom; it copies args so callers may reuse their slice.
func NewAtom(rel string, args ...Value) Atom {
	cp := make([]Value, len(args))
	copy(cp, args)
	return Atom{Rel: rel, Args: cp}
}

// String renders the atom as R(a,b,_0).
func (a Atom) String() string {
	var b strings.Builder
	b.WriteString(a.Rel)
	b.WriteByte('(')
	for i, v := range a.Args {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(v.String())
	}
	b.WriteByte(')')
	return b.String()
}

// Equal reports argument-wise equality of two atoms.
func (a Atom) Equal(b Atom) bool {
	if a.Rel != b.Rel || len(a.Args) != len(b.Args) {
		return false
	}
	for i := range a.Args {
		if a.Args[i] != b.Args[i] {
			return false
		}
	}
	return true
}

// Schema maps relation names to arities.
type Schema map[string]int

// NewSchema builds a schema from name/arity pairs given as "R/2" strings.
func NewSchema(decls ...string) Schema {
	s := make(Schema, len(decls))
	for _, d := range decls {
		i := strings.LastIndexByte(d, '/')
		if i < 0 {
			panic("instance: schema declaration must look like R/2: " + d)
		}
		ar, err := strconv.Atoi(d[i+1:])
		if err != nil || ar < 0 {
			panic("instance: bad arity in schema declaration: " + d)
		}
		s[strings.TrimSpace(d[:i])] = ar
	}
	return s
}

// Has reports whether the schema contains the relation.
func (s Schema) Has(rel string) bool { _, ok := s[rel]; return ok }

// Names returns the relation names in sorted order.
func (s Schema) Names() []string {
	names := make([]string, 0, len(s))
	for n := range s {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Union returns a schema containing the relations of both operands.
// It panics if a relation appears in both with different arities.
func (s Schema) Union(t Schema) Schema {
	u := make(Schema, len(s)+len(t))
	for n, a := range s {
		u[n] = a
	}
	for n, a := range t {
		if prev, ok := u[n]; ok && prev != a {
			panic(fmt.Sprintf("instance: arity clash for %s: %d vs %d", n, prev, a))
		}
		u[n] = a
	}
	return u
}

// Disjoint reports whether the two schemas share no relation name.
func (s Schema) Disjoint(t Schema) bool {
	for n := range s {
		if t.Has(n) {
			return false
		}
	}
	return true
}

// String renders the schema as "E/2, F/3" in sorted order.
func (s Schema) String() string {
	names := s.Names()
	parts := make([]string, len(names))
	for i, n := range names {
		parts[i] = fmt.Sprintf("%s/%d", n, s[n])
	}
	return strings.Join(parts, ", ")
}
