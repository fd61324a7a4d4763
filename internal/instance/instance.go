package instance

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
)

// Instance is a finite set of atoms over a fixed domain of constants and
// labeled nulls. Tuples are stored column-major: each relation keeps one
// flat []Value per position, a presence bitmap over row slots (removal
// clears a bit instead of reindexing), a hash index for O(1) membership and
// per-position posting lists of row ids to support joins and homomorphism
// search. Posting lists hold live rows only, in ascending row order, so
// index-backed scans enumerate candidates in insertion order.
//
// All iteration over relations is in sorted relation-name order (via a
// name slice maintained on insertion), never over the rels map directly:
// atom enumeration, cloning, mapping and value replacement are therefore
// deterministic run to run, which downstream canonical forms
// (hom.CanonicalNullForm), golden outputs and benchmarks rely on.
//
// An Instance is safe for concurrent readers as long as no goroutine
// mutates it; the parallel evaluation paths share read-only instances
// across workers under exactly this contract.
type Instance struct {
	rels map[string]*relation
	// names holds the keys of rels in sorted order; maintained eagerly by
	// rel() (rather than lazily on read) so that read-only methods stay
	// side-effect-free and safe for concurrent readers.
	names []string
	// byID holds the relations in creation order; seq entries refer to
	// relations by this index so the insertion log stays name-free.
	byID []*relation
	// seq is the global insertion log: one entry per successful Add, in
	// order. Watermark deltas (Mark/EachAddedBetween) are views over it.
	seq []rowRef
	// epoch invalidates watermarks: any removal or value rewrite bumps it,
	// since row ids referenced by older marks may no longer identify the
	// same (or any) atom.
	epoch uint64

	// version counts content changes (see Version in mutation.go).
	version uint64
}

// rowRef locates one inserted row: the relation (by creation index) and its
// row slot.
type rowRef struct{ rel, row int32 }

type relation struct {
	name  string
	arity int
	id    int32               // index into Instance.byID
	nRows int                 // row slots in use, including dead ones
	nLive int                 // live rows
	cols  [][]Value           // column-major storage: cols[pos][row]
	live  []uint64            // presence bitmap over row slots
	byKey map[string]int32    // encoded live tuple -> row
	byPos []map[Value][]int32 // position -> value -> ascending live row ids
	// shared is the largest row count a clone has shared of the column and
	// posting backings (see clone): rows below it may be read by a clone, so
	// Rollback trims the backings' capacities only when it pops such a row.
	// Clone is a read, so concurrent clones raise it with an atomic max.
	shared atomic.Int32
}

func (r *relation) alive(row int32) bool {
	return r.live[row>>6]&(1<<(uint(row)&63)) != 0
}

func (r *relation) hasDead() bool { return r.nLive != r.nRows }

// gather fills buf with the values of the given row. buf must have length
// arity.
func (r *relation) gather(row int32, buf []Value) {
	for p, col := range r.cols {
		buf[p] = col[row]
	}
}

// appendTuple appends the fixed-width encoding of args to buf. Callers on
// hot paths pass a stack buffer and rely on the compiler's alloc-free
// map[string(buf)] lookup optimization for the duplicate check.
func appendTuple(buf []byte, args []Value) []byte {
	var tmp [8]byte
	for _, v := range args {
		binary.LittleEndian.PutUint64(tmp[:], uint64(v))
		buf = append(buf, tmp[:]...)
	}
	return buf
}

func encodeTuple(args []Value) string {
	return string(appendTuple(make([]byte, 0, len(args)*8), args))
}

// appendRow appends the fixed-width encoding of the row's values.
func (r *relation) appendRow(buf []byte, row int32) []byte {
	var tmp [8]byte
	for _, col := range r.cols {
		binary.LittleEndian.PutUint64(tmp[:], uint64(col[row]))
		buf = append(buf, tmp[:]...)
	}
	return buf
}

// New returns an empty instance.
func New() *Instance { return &Instance{rels: make(map[string]*relation)} }

// FromAtoms returns an instance containing exactly the given atoms (a
// repeated atom counts once), built in bulk: it equals the instance that
// adding the atoms one by one to New() builds, relation order, row order,
// posting lists, insertion log and version included, so later mutations
// and marks behave on it as on that one. The storage is sized once rather
// than grown per atom: every column, posting list and presence bitmap is a
// capacity-limited window of one shared backing array (an append past a
// window reallocates, as after Clone), and the tuple keys are substrings of
// one string. The atoms' argument slices are not retained.
func FromAtoms(atoms ...Atom) *Instance {
	if len(atoms) == 0 {
		return New()
	}
	// The relations, in order of first appearance, from one backing array
	// (runs of equal relation names bound their number), and each atom's
	// relation id. nLive counts each relation's atoms, repeats included,
	// until the rows are known.
	runs := 1
	for i := 1; i < len(atoms); i++ {
		if atoms[i].Rel != atoms[i-1].Rel {
			runs++
		}
	}
	ins := &Instance{rels: make(map[string]*relation, runs), byID: make([]*relation, 0, runs)}
	slab := make([]relation, runs)
	rid := make([]int32, len(atoms))
	var last *relation
	nKey, nArity := 0, 0
	for i, a := range atoms {
		r := last
		if r == nil || r.name != a.Rel {
			var ok bool
			if r, ok = ins.rels[a.Rel]; !ok {
				r = &slab[len(ins.byID)]
				r.name, r.arity, r.id = a.Rel, len(a.Args), int32(len(ins.byID))
				ins.rels[a.Rel] = r
				ins.byID = append(ins.byID, r)
				nArity += r.arity
			}
			last = r
		}
		if r.arity != len(a.Args) {
			panic("instance: arity clash for relation " + r.name)
		}
		rid[i] = r.id
		r.nLive++
		nKey += 8 * len(a.Args)
	}
	// Every tuple's fixed-width key, in one string; a repeated atom's key
	// finds its first occurrence in byKey, and the atom is marked dropped.
	var kb strings.Builder
	kb.Grow(nKey)
	var tmp [8 * 8]byte
	for _, a := range atoms {
		kb.Write(appendTuple(tmp[:0], a.Args))
	}
	keys := kb.String()
	for _, r := range ins.byID {
		r.byKey = make(map[string]int32, r.nLive)
	}
	ins.seq = make([]rowRef, 0, len(atoms))
	off := 0
	for i, a := range atoms {
		r, w := ins.byID[rid[i]], 8*len(a.Args)
		k := keys[off : off+w]
		off += w
		if _, dup := r.byKey[k]; dup {
			rid[i] = -1
			continue
		}
		row := int32(r.nRows)
		r.byKey[k] = row
		r.nRows++
		ins.seq = append(ins.seq, rowRef{rel: r.id, row: row})
	}
	// Exact-size columns and bitmaps, each a window of one backing array.
	nVals, nWords := 0, 0
	for _, r := range ins.byID {
		r.nLive = r.nRows
		nVals += r.nRows * r.arity
		nWords += (r.nRows + 63) / 64
	}
	vals := make([]Value, nVals)
	words := make([]uint64, nWords)
	colSlab := make([][]Value, nArity)
	posSlab := make([]map[Value][]int32, nArity)
	for _, r := range ins.byID {
		n := r.nRows
		r.cols, colSlab = colSlab[:r.arity:r.arity], colSlab[r.arity:]
		r.byPos, posSlab = posSlab[:r.arity:r.arity], posSlab[r.arity:]
		for p := range r.cols {
			r.cols[p], vals = vals[:n:n], vals[n:]
		}
		nw := (n + 63) / 64
		r.live, words = words[:nw:nw], words[nw:]
		for row := 0; row < n; row++ {
			r.live[row>>6] |= 1 << (uint(row) & 63)
		}
	}
	j := 0
	for i, a := range atoms {
		if rid[i] < 0 {
			continue
		}
		ref := ins.seq[j]
		j++
		cols := ins.byID[ref.rel].cols
		for p, v := range a.Args {
			cols[p][ref.row] = v
		}
	}
	post := make([]int32, nVals)
	for _, r := range ins.byID {
		n := r.nRows
		for p, col := range r.cols {
			r.byPos[p] = postings(col, post[:n:n])
			post = post[n:]
		}
	}
	names := make([]string, 0, len(ins.byID))
	for _, r := range ins.byID {
		names = append(names, r.name)
	}
	slices.Sort(names)
	ins.names = names
	ins.version = uint64(len(ins.seq))
	return ins
}

// postings returns the posting lists of one column: each value's rows, in
// ascending order, as a window of rows at its exact capacity. rows must
// have the column's length; it ends up holding the rows sorted by value,
// then by row, so that each value's rows are one run.
func postings(col []Value, rows []int32) map[Value][]int32 {
	for i := range rows {
		rows[i] = int32(i)
	}
	slices.SortFunc(rows, func(x, y int32) int {
		if c := cmp.Compare(col[x], col[y]); c != 0 {
			return c
		}
		return cmp.Compare(x, y)
	})
	distinct := 0
	for i := range rows {
		if i == 0 || col[rows[i]] != col[rows[i-1]] {
			distinct++
		}
	}
	m := make(map[Value][]int32, distinct)
	for i := 0; i < len(rows); {
		j := i + 1
		for j < len(rows) && col[rows[j]] == col[rows[i]] {
			j++
		}
		m[col[rows[i]]] = rows[i:j:j]
		i = j
	}
	return m
}

func (ins *Instance) rel(name string, arity int) *relation {
	r, ok := ins.rels[name]
	if !ok {
		// The new relation keeps a copy of the name, so no caller's atom
		// escapes through it and Add's argument slices can stay on the
		// caller's stack.
		r = ins.newRel(string([]byte(name)), arity)
	}
	if r.arity != arity {
		panic("instance: arity clash for relation " + r.name)
	}
	return r
}

func (ins *Instance) newRel(name string, arity int) *relation {
	r := &relation{
		name:  name,
		arity: arity,
		id:    int32(len(ins.byID)),
		cols:  make([][]Value, arity),
		byKey: make(map[string]int32),
		byPos: make([]map[Value][]int32, arity),
	}
	for i := range r.byPos {
		r.byPos[i] = make(map[Value][]int32)
	}
	ins.rels[name] = r
	ins.byID = append(ins.byID, r)
	i := sort.SearchStrings(ins.names, name)
	ins.names = append(ins.names, "")
	copy(ins.names[i+1:], ins.names[i:])
	ins.names[i] = name
	return r
}

// eachRel visits every relation in sorted name order.
func (ins *Instance) eachRel(f func(r *relation)) {
	for _, n := range ins.names {
		f(ins.rels[n])
	}
}

// Add inserts the atom and reports whether it was new. The duplicate path
// is allocation-free: the tuple encoding is built in a stack buffer and the
// key string is only materialized when the atom is actually inserted.
func (ins *Instance) Add(a Atom) bool {
	r := ins.rel(a.Rel, len(a.Args))
	var kb [8 * 8]byte
	buf := appendTuple(kb[:0], a.Args)
	if _, ok := r.byKey[string(buf)]; ok {
		return false
	}
	row := int32(r.nRows)
	r.nRows++
	r.nLive++
	for i, v := range a.Args {
		r.cols[i] = append(r.cols[i], v)
		r.byPos[i][v] = append(r.byPos[i][v], row)
	}
	if w := int(row >> 6); w >= len(r.live) {
		r.live = append(r.live, 0)
	}
	r.live[row>>6] |= 1 << (uint(row) & 63)
	r.byKey[string(buf)] = row
	ins.seq = append(ins.seq, rowRef{rel: r.id, row: row})
	ins.version++
	return true
}

// AddAll inserts every atom of other and reports how many were new.
func (ins *Instance) AddAll(other *Instance) int {
	added := 0
	buf := make([]Value, 0, 8)
	other.eachRel(func(r *relation) {
		args := append(buf, make([]Value, r.arity)...)
		for row := int32(0); row < int32(r.nRows); row++ {
			if !r.alive(row) {
				continue
			}
			r.gather(row, args)
			if ins.Add(Atom{Rel: r.name, Args: args}) {
				added++
			}
		}
	})
	return added
}

// Has reports whether the atom is present.
func (ins *Instance) Has(a Atom) bool {
	r, ok := ins.rels[a.Rel]
	if !ok || r.arity != len(a.Args) {
		return false
	}
	var kb [8 * 8]byte
	_, ok = r.byKey[string(appendTuple(kb[:0], a.Args))]
	return ok
}

// Len returns the number of atoms.
func (ins *Instance) Len() int {
	n := 0
	for _, r := range ins.rels {
		n += r.nLive
	}
	return n
}

// Note for the iteration-order-sensitive methods below: every method that
// produces atoms, instances or strings iterates relations via eachRel
// (sorted name order). Order-insensitive aggregates (Len, sorted Dom) may
// still range over the map.

// RelLen returns the number of tuples in the named relation.
func (ins *Instance) RelLen(rel string) int {
	r, ok := ins.rels[rel]
	if !ok {
		return 0
	}
	return r.nLive
}

// Relations returns the names of all nonempty relations in sorted order.
func (ins *Instance) Relations() []string {
	names := make([]string, 0, len(ins.names))
	for _, n := range ins.names {
		if ins.rels[n].nLive > 0 {
			names = append(names, n)
		}
	}
	return names
}

// Arity returns the arity of the named relation, or -1 if absent.
func (ins *Instance) Arity(rel string) int {
	r, ok := ins.rels[rel]
	if !ok {
		return -1
	}
	return r.arity
}

// Atoms returns all atoms in a deterministic order (relation name, then
// insertion order). The returned atoms share no storage with the instance.
func (ins *Instance) Atoms() []Atom {
	return ins.atoms(false)
}

// AtomsShared is Atoms with all Args carved out of one flat backing array
// instead of one allocation per atom. The arguments are snapshots — they
// stay valid across later mutations — but the backing is shared between the
// returned atoms, so callers must treat them as read-only.
// Iteration order is identical to Atoms.
func (ins *Instance) AtomsShared() []Atom {
	return ins.atoms(true)
}

func (ins *Instance) atoms(shared bool) []Atom {
	out := make([]Atom, 0, ins.Len())
	var flat []Value
	if shared {
		total := 0
		for _, r := range ins.rels {
			total += r.nLive * r.arity
		}
		flat = make([]Value, 0, total)
	}
	ins.eachRel(func(r *relation) {
		for row := int32(0); row < int32(r.nRows); row++ {
			if !r.alive(row) {
				continue
			}
			var args []Value
			if shared {
				start := len(flat)
				for _, col := range r.cols {
					flat = append(flat, col[row])
				}
				args = flat[start:len(flat):len(flat)]
			} else {
				args = make([]Value, r.arity)
				r.gather(row, args)
			}
			out = append(out, Atom{Rel: r.name, Args: args})
		}
	})
	return out
}

// Tuples calls f for each tuple of the named relation. The slice passed to f
// is a shared scratch buffer: it must not be modified or retained. Iteration
// stops early if f returns false.
func (ins *Instance) Tuples(rel string, f func(args []Value) bool) {
	r, ok := ins.rels[rel]
	if !ok {
		return
	}
	args := make([]Value, r.arity)
	for row := int32(0); row < int32(r.nRows); row++ {
		if !r.alive(row) {
			continue
		}
		r.gather(row, args)
		if !f(args) {
			return
		}
	}
}

// MatchTuples calls f for every tuple of rel that agrees with pattern at
// every position where bound is true. It uses the posting list on the most
// selective bound position. The slice passed to f is a shared scratch buffer
// and must not be retained.
func (ins *Instance) MatchTuples(rel string, pattern []Value, bound []bool, f func(args []Value) bool) {
	r, ok := ins.rels[rel]
	if !ok || r.arity != len(pattern) {
		return
	}
	args := make([]Value, r.arity)
	try := func(row int32) bool {
		for i, b := range bound {
			if b && r.cols[i][row] != pattern[i] {
				return true
			}
		}
		r.gather(row, args)
		return f(args)
	}
	best, bestList := -1, []int32(nil)
	for i, b := range bound {
		if !b {
			continue
		}
		l := r.byPos[i][pattern[i]]
		if best == -1 || len(l) < len(bestList) {
			best, bestList = i, l
		}
	}
	if best == -1 {
		for row := int32(0); row < int32(r.nRows); row++ {
			if !r.alive(row) {
				continue
			}
			if !try(row) {
				return
			}
		}
		return
	}
	for _, row := range bestList {
		if !try(row) {
			return
		}
	}
}

// Rel is a read-only handle on one relation's columnar storage, the
// allocation-free access path used by compiled query plans (query.Plan) and
// homomorphism search. All accessors are O(1); the returned slices are the
// instance's own storage and must not be modified or retained past the next
// mutation.
type Rel struct{ r *relation }

// Relation returns a handle on the named relation, or ok=false when it is
// absent or its arity differs.
func (ins *Instance) Relation(name string, arity int) (Rel, bool) {
	r, ok := ins.rels[name]
	if !ok || r.arity != arity {
		return Rel{}, false
	}
	return Rel{r: r}, true
}

// EachRelation calls f with a handle on every nonempty relation, in sorted
// name order.
func (ins *Instance) EachRelation(f func(r Rel)) {
	for _, n := range ins.names {
		if r := ins.rels[n]; r.nLive > 0 {
			f(Rel{r: r})
		}
	}
}

// Name returns the relation's name.
func (h Rel) Name() string { return h.r.name }

// Len returns the number of live rows.
func (h Rel) Len() int { return h.r.nLive }

// Rows returns the number of row slots, including dead ones: the iteration
// bound for full scans. Callers must skip rows for which Alive is false
// (cheap to elide when HasDead reports false).
func (h Rel) Rows() int32 { return int32(h.r.nRows) }

// Cols returns the column slices (cols[pos][row]).
func (h Rel) Cols() [][]Value { return h.r.cols }

// Postings returns the ascending row ids carrying v at the given position.
// The list contains live rows only.
func (h Rel) Postings(pos int, v Value) []int32 { return h.r.byPos[pos][v] }

// HasDead reports whether any row slot is dead, i.e. whether full scans
// need the Alive filter.
func (h Rel) HasDead() bool { return h.r.hasDead() }

// Alive reports whether the row slot holds a live tuple.
func (h Rel) Alive(row int32) bool { return h.r.alive(row) }

// PosDistinct returns the number of distinct values occurring at the given
// position of rel, or 0 if the relation is absent or the position is out of
// range. It sizes candidate domains for homomorphism-search pruning.
func (ins *Instance) PosDistinct(rel string, pos int) int {
	r, ok := ins.rels[rel]
	if !ok || pos < 0 || pos >= r.arity {
		return 0
	}
	return len(r.byPos[pos])
}

// PosHasValue reports whether some tuple of rel carries v at the given
// position — an O(1) membership probe into the position index.
func (ins *Instance) PosHasValue(rel string, pos int, v Value) bool {
	r, ok := ins.rels[rel]
	if !ok || pos < 0 || pos >= r.arity {
		return false
	}
	return len(r.byPos[pos][v]) > 0
}

// EachPosValue calls f for every distinct value occurring at the given
// position of rel, with the number of tuples carrying it. Iteration order is
// unspecified (it ranges over the index map); stop early by returning false.
func (ins *Instance) EachPosValue(rel string, pos int, f func(v Value, count int) bool) {
	r, ok := ins.rels[rel]
	if !ok || pos < 0 || pos >= r.arity {
		return
	}
	for v, idxs := range r.byPos[pos] {
		if !f(v, len(idxs)) {
			return
		}
	}
}

// Mark is a watermark into the instance's insertion log: the delta between
// two marks is the exact sequence of atoms added between them, in insertion
// order. Marks are only meaningful on the instance they were taken from and
// are invalidated by removals and value rewrites (check MarkValid), and by a
// Rollback to an earlier mark; Clone and Reduct reset the log, so marks do
// not carry over to copies.
type Mark struct {
	epoch uint64
	seq   int
}

// Mark returns a watermark for the current state of the insertion log.
func (ins *Instance) Mark() Mark { return Mark{epoch: ins.epoch, seq: len(ins.seq)} }

// MarkValid reports whether the mark still identifies a valid log position:
// false after any removal or value rewrite since the mark was taken, in
// which case delta consumers must fall back to a full scan.
func (ins *Instance) MarkValid(m Mark) bool {
	return m.epoch == ins.epoch && m.seq <= len(ins.seq)
}

// EachAddedBetween calls f with every atom added between the two marks
// (from inclusive, to exclusive), in exact insertion order — the order
// matters downstream because chase firing order determines fresh-null
// labels. Both marks must be valid (MarkValid) and from must not be after
// to. The atom's Args slice is scratch, rewritten for the next atom: copy
// what you keep. It is buf's backing array when buf's capacity covers the
// atom's arity, and a fresh slice otherwise; a caller that sweeps
// repeatedly holds one buffer for all its sweeps, since a buffer made here
// would escape through f and cost an allocation per call. Iteration stops
// early if f returns false; the return value reports whether the sweep ran
// to completion.
func (ins *Instance) EachAddedBetween(from, to Mark, buf []Value, f func(a Atom) bool) bool {
	if from.seq >= to.seq {
		return true
	}
	for _, ref := range ins.seq[from.seq:to.seq] {
		r := ins.byID[ref.rel]
		if !r.alive(ref.row) {
			continue
		}
		args := buf[:0]
		if r.arity > cap(args) {
			args = make([]Value, r.arity)
		}
		args = args[:r.arity]
		r.gather(ref.row, args)
		if !f(Atom{Rel: r.name, Args: args}) {
			return false
		}
	}
	return true
}

// Rollback removes every atom added since the mark, in reverse insertion
// order, restoring the content, indexes and enumeration order the instance
// had when m was taken. Marks at or before m stay valid; later ones do not.
// It panics when m is no longer valid (a removal or value rewrite since m
// renumbered or dropped rows the log refers to).
//
// A clone shares column and posting-list backings up to its own lengths,
// relying on the parent only ever appending past them. Popping a row below
// the relation's shared watermark (the most rows any clone has shared)
// therefore trims the capacities as well: the next Add then reallocates
// instead of overwriting slots that a clone taken before the rollback still
// reads. Popping a row at or above the watermark keeps the capacity, since
// no clone reads that far, so an instance that is never cloned re-adds
// after a rollback without reallocating its columns or posting lists.
func (ins *Instance) Rollback(m Mark) {
	if !ins.MarkValid(m) {
		panic("instance: Rollback to a mark invalidated by a removal")
	}
	var kb [8 * 8]byte
	for i := len(ins.seq) - 1; i >= m.seq; i-- {
		// Without removals since m, every logged row was appended last to
		// its relation, so undoing them newest first pops each one's tail.
		ref := ins.seq[i]
		r, row := ins.byID[ref.rel], ref.row
		delete(r.byKey, string(r.appendRow(kb[:0], row)))
		trim := row < r.shared.Load()
		for p, col := range r.cols {
			l := r.byPos[p][col[row]]
			switch n := len(l) - 1; {
			case n == 0:
				delete(r.byPos[p], col[row])
			case trim:
				r.byPos[p][col[row]] = l[:n:n]
			default:
				r.byPos[p][col[row]] = l[:n]
			}
			if trim {
				r.cols[p] = col[:row:row]
			} else {
				r.cols[p] = col[:row]
			}
		}
		r.live[row>>6] &^= 1 << (uint(row) & 63)
		r.nRows = int(row)
		r.nLive--
		ins.version++
	}
	ins.seq = ins.seq[:m.seq]
}

// ContentKey returns a compact byte-string key with the property that two
// instances hold exactly the same atom set iff their keys are equal,
// regardless of insertion order. It is cheaper than String() (no name
// decoding) and is the memo key used by cwa.Enumerate's canonical-form
// cache. The key is only stable within a process (constants are interned
// process-wide).
func (ins *Instance) ContentKey() string {
	var b strings.Builder
	total := 0
	ins.eachRel(func(r *relation) {
		if r.nLive == 0 {
			return
		}
		total += len(r.name) + 2 + 8*r.arity*r.nLive
	})
	b.Grow(total)
	ins.eachRel(func(r *relation) {
		if r.nLive == 0 {
			return
		}
		b.WriteString(r.name)
		b.WriteByte(0)
		// Sort the fixed-width tuple encodings so the key is insertion-order
		// independent (equal atom sets always collide). byKey's keys are
		// exactly those encodings, already materialized — reuse them.
		keys := make([]string, 0, len(r.byKey))
		for k := range r.byKey {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			b.WriteString(k)
		}
		b.WriteByte(0)
	})
	return b.String()
}

// eachValue calls f with every value of every live tuple (with multiplicity).
// Stops early when f returns false.
func (ins *Instance) eachValue(f func(v Value) bool) {
	for _, r := range ins.rels {
		if r.nLive == 0 {
			continue
		}
		for _, col := range r.cols {
			if !r.hasDead() {
				for _, v := range col {
					if !f(v) {
						return
					}
				}
				continue
			}
			for row := int32(0); row < int32(r.nRows); row++ {
				if !r.alive(row) {
					continue
				}
				if !f(col[row]) {
					return
				}
			}
		}
	}
}

// Dom returns the active domain of the instance in sorted order.
func (ins *Instance) Dom() []Value {
	seen := make(map[Value]struct{})
	ins.eachValue(func(v Value) bool {
		seen[v] = struct{}{}
		return true
	})
	out := make([]Value, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return Less(out[i], out[j]) })
	return out
}

// DomSize returns the size of the active domain, without Dom's sort.
func (ins *Instance) DomSize() int {
	seen := make(map[Value]struct{})
	ins.eachValue(func(v Value) bool {
		seen[v] = struct{}{}
		return true
	})
	return len(seen)
}

// HasValue reports whether v occurs in the active domain: one position
// index probe per relation position, no scan of the tuples.
func (ins *Instance) HasValue(v Value) bool {
	for _, r := range ins.rels {
		for _, m := range r.byPos {
			if len(m[v]) > 0 {
				return true
			}
		}
	}
	return false
}

// Nulls returns the nulls of the active domain in increasing label order.
func (ins *Instance) Nulls() []Value {
	var out []Value
	for _, v := range ins.Dom() {
		if v.IsNull() {
			out = append(out, v)
		}
	}
	return out
}

// Consts returns the constants of the active domain in name order.
func (ins *Instance) Consts() []Value {
	var out []Value
	for _, v := range ins.Dom() {
		if v.IsConst() {
			out = append(out, v)
		}
	}
	return out
}

// HasNulls reports whether any atom mentions a null.
func (ins *Instance) HasNulls() bool {
	has := false
	ins.eachValue(func(v Value) bool {
		if v.IsNull() {
			has = true
			return false
		}
		return true
	})
	return has
}

// MaxNullLabel returns the largest null label occurring in the instance,
// or -1 if the instance is null-free. Use it to seed a NullSource.
func (ins *Instance) MaxNullLabel() int64 {
	max := int64(-1)
	ins.eachValue(func(v Value) bool {
		if v.IsNull() && v.NullLabel() > max {
			max = v.NullLabel()
		}
		return true
	})
	return max
}

// clone copies a relation without re-encoding keys, rehashing values or
// copying any tuple data: the column slices and posting lists are shared
// with their capacities trimmed to their lengths, so an append on either
// copy reallocates instead of clobbering the other (in-place writes never
// happen — removal replaces posting lists wholesale and clears bits in the
// bitmap, which is copied). Only byKey, byPos (the maps themselves) and the
// bitmap are materialized fresh. It raises r's shared watermark to the row
// count it shares, so a later Rollback on r knows which rows to protect.
func (r *relation) clone(id int32) *relation {
	for n := int32(r.nRows); ; {
		s := r.shared.Load()
		if s >= n || r.shared.CompareAndSwap(s, n) {
			break
		}
	}
	cp := &relation{
		name:  r.name,
		arity: r.arity,
		id:    id,
		nRows: r.nRows,
		nLive: r.nLive,
		cols:  make([][]Value, r.arity),
		live:  make([]uint64, len(r.live)),
		byKey: make(map[string]int32, len(r.byKey)),
		byPos: make([]map[Value][]int32, r.arity),
	}
	for p, col := range r.cols {
		cp.cols[p] = col[:len(col):len(col)]
	}
	copy(cp.live, r.live)
	for k, v := range r.byKey {
		cp.byKey[k] = v
	}
	for p, m := range r.byPos {
		nm := make(map[Value][]int32, len(m))
		for v, idxs := range m {
			nm[v] = idxs[:len(idxs):len(idxs)]
		}
		cp.byPos[p] = nm
	}
	return cp
}

// Clone returns a deep copy with identical iteration order. The version
// counter carries over (the copy identifies the same content state); the
// insertion log does not (marks never survive a Clone).
func (ins *Instance) Clone() *Instance {
	cp := New()
	cp.version = ins.version
	ins.eachRel(func(r *relation) {
		if r.nLive == 0 {
			return
		}
		nr := r.clone(int32(len(cp.byID)))
		cp.rels[r.name] = nr
		cp.byID = append(cp.byID, nr)
		cp.names = append(cp.names, r.name)
	})
	return cp
}

// Reduct returns the sub-instance containing only atoms whose relation
// belongs to the schema (the σ-reduct I|σ of the paper).
func (ins *Instance) Reduct(s Schema) *Instance {
	out := New()
	out.version = ins.version
	ins.eachRel(func(r *relation) {
		if !s.Has(r.name) || r.nLive == 0 {
			return
		}
		nr := r.clone(int32(len(out.byID)))
		out.rels[r.name] = nr
		out.byID = append(out.byID, nr)
		out.names = append(out.names, r.name)
	})
	return out
}

// ReductView is Reduct without the copy: the returned instance shares the
// relations of ins, so building it allocates only the relation index. It
// is a read-only view, valid while ins is not mutated: adding to or
// removing from either one while the view is in use is not allowed.
func (ins *Instance) ReductView(s Schema) *Instance {
	out := New()
	out.version = ins.version
	ins.eachRel(func(r *relation) {
		if !s.Has(r.name) || r.nLive == 0 {
			return
		}
		out.rels[r.name] = r
		out.names = append(out.names, r.name)
	})
	return out
}

// Union returns a new instance holding the atoms of both operands.
func Union(a, b *Instance) *Instance {
	u := a.Clone()
	u.AddAll(b)
	return u
}

// Equal reports whether the two instances hold exactly the same atom sets.
func (ins *Instance) Equal(other *Instance) bool {
	if ins.Len() != other.Len() {
		return false
	}
	for _, r := range ins.rels {
		if r.nLive == 0 {
			continue
		}
		o, ok := other.rels[r.name]
		if !ok || o.arity != r.arity || o.nLive != r.nLive {
			return false
		}
		var kb [8 * 8]byte
		for row := int32(0); row < int32(r.nRows); row++ {
			if !r.alive(row) {
				continue
			}
			if _, ok := o.byKey[string(r.appendRow(kb[:0], row))]; !ok {
				return false
			}
		}
	}
	return true
}

// Map returns the image of the instance under the value mapping h;
// values outside h are kept unchanged. The image may have fewer atoms
// than the original if h identifies tuples. It is built in bulk by
// FromAtoms, from the image atoms in the order Atoms lists the originals.
func (ins *Instance) Map(h map[Value]Value) *Instance {
	n, nVals := 0, 0
	for _, r := range ins.rels {
		n += r.nLive
		nVals += r.nLive * r.arity
	}
	atoms := make([]Atom, 0, n)
	flat := make([]Value, 0, nVals)
	ins.eachRel(func(r *relation) {
		for row := int32(0); row < int32(r.nRows); row++ {
			if !r.alive(row) {
				continue
			}
			start := len(flat)
			for _, col := range r.cols {
				v := col[row]
				if w, ok := h[v]; ok {
					v = w
				}
				flat = append(flat, v)
			}
			atoms = append(atoms, Atom{Rel: r.name, Args: flat[start:len(flat):len(flat)]})
		}
	})
	return FromAtoms(atoms...)
}

// ReplaceValue substitutes new for every occurrence of old, in place.
// It is the primitive used by egd application. Rewritten tuples are
// re-inserted after the untouched ones, preserving the established
// enumeration order contract.
func (ins *Instance) ReplaceValue(old, new Value) {
	if old == new {
		return
	}
	ins.eachRel(func(r *relation) {
		rows := rowsWith(r, old)
		if len(rows) == 0 {
			return
		}
		// Collect affected tuples, remove them, re-add rewritten.
		rewritten := make([][]Value, len(rows))
		for i, row := range rows {
			cp := make([]Value, r.arity)
			r.gather(row, cp)
			for j, v := range cp {
				if v == old {
					cp[j] = new
				}
			}
			rewritten[i] = cp
		}
		for _, row := range rows {
			ins.removeRow(r, row)
		}
		ins.maybeCompact(r)
		for _, t := range rewritten {
			ins.Add(Atom{Rel: r.name, Args: t})
		}
	})
}

// rowsWith returns the live rows mentioning v, ascending: the merged union
// of v's posting lists across all positions.
func rowsWith(r *relation, v Value) []int32 {
	var out []int32
	for pos := 0; pos < r.arity; pos++ {
		l := r.byPos[pos][v]
		if len(l) == 0 {
			continue
		}
		if out == nil {
			out = append(out, l...)
			continue
		}
		out = mergeRows(out, l)
	}
	return out
}

// mergeRows merges two ascending row lists, deduplicating.
func mergeRows(a, b []int32) []int32 {
	out := make([]int32, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			out = append(out, a[i])
			i++
			j++
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		default:
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// removePosting deletes row from the posting list of v at position pos.
// The replacement list is freshly allocated (never shifted in place)
// because clones share posting backings.
func removePosting(m map[Value][]int32, v Value, row int32) {
	idxs := m[v]
	n := len(idxs)
	if n == 1 {
		if idxs[0] == row {
			delete(m, v)
		}
		return
	}
	i := sort.Search(n, func(k int) bool { return idxs[k] >= row })
	if i >= n || idxs[i] != row {
		return
	}
	nw := make([]int32, n-1)
	copy(nw, idxs[:i])
	copy(nw[i:], idxs[i+1:])
	m[v] = nw
}

// removeRow deletes one live row: drops its key, removes it from every
// posting list, clears its presence bit, bumps the epoch (watermarks no
// longer identify a consistent log) and advances the version.
func (ins *Instance) removeRow(r *relation, row int32) {
	var kb [8 * 8]byte
	key := r.appendRow(kb[:0], row)
	delete(r.byKey, string(key))
	for p, col := range r.cols {
		removePosting(r.byPos[p], col[row], row)
	}
	r.live[row>>6] &^= 1 << (uint(row) & 63)
	r.nLive--
	// Any removal invalidates all outstanding watermarks; dropping the log
	// keeps stale marks from ever indexing rebuilt (compacted) storage and
	// bounds the log's memory between removals.
	ins.epoch++
	ins.seq = ins.seq[:0]
	ins.version++
}

// maybeCompact rebuilds the relation's storage when dead row slots dominate,
// reclaiming space and restoring dense scans. Row ids change, so it must
// only run at points where no caller holds row references; the epoch bumped
// by the removals that made compaction necessary already invalidated all
// watermarks.
func (ins *Instance) maybeCompact(r *relation) {
	dead := r.nRows - r.nLive
	if dead < 32 || dead <= r.nLive {
		return
	}
	cols := make([][]Value, r.arity)
	for p := range cols {
		cols[p] = make([]Value, 0, r.nLive)
	}
	live := make([]uint64, (r.nLive+63)/64)
	byKey := make(map[string]int32, r.nLive)
	byPos := make([]map[Value][]int32, r.arity)
	for p := range byPos {
		byPos[p] = make(map[Value][]int32, len(r.byPos[p]))
	}
	next := int32(0)
	var kb [8 * 8]byte
	for row := int32(0); row < int32(r.nRows); row++ {
		if !r.alive(row) {
			continue
		}
		for p, col := range r.cols {
			v := col[row]
			cols[p] = append(cols[p], v)
			byPos[p][v] = append(byPos[p][v], next)
		}
		byKey[string(r.appendRow(kb[:0], row))] = next
		live[next>>6] |= 1 << (uint(next) & 63)
		next++
	}
	r.cols, r.live, r.byKey, r.byPos = cols, live, byKey, byPos
	r.nRows = int(next)
	r.shared.Store(0) // the fresh backings are shared with no clone
	ins.epoch++
}

// Remove deletes the atom if present and reports whether it was present.
func (ins *Instance) Remove(a Atom) bool {
	r, ok := ins.rels[a.Rel]
	if !ok || r.arity != len(a.Args) {
		return false
	}
	var kb [8 * 8]byte
	row, ok := r.byKey[string(appendTuple(kb[:0], a.Args))]
	if !ok {
		return false
	}
	ins.removeRow(r, row)
	ins.maybeCompact(r)
	return true
}

// Diff returns the atoms present only in a and only in b, in deterministic
// order — a debugging aid for comparing chase results and solutions.
func Diff(a, b *Instance) (onlyA, onlyB []Atom) {
	for _, at := range a.Atoms() {
		if !b.Has(at) {
			onlyA = append(onlyA, at)
		}
	}
	for _, at := range b.Atoms() {
		if !a.Has(at) {
			onlyB = append(onlyB, at)
		}
	}
	return onlyA, onlyB
}

// String renders the instance as a sorted, comma-separated atom list in
// braces, e.g. {E(a,b), F(a,_0)}.
func (ins *Instance) String() string { return AtomSetString(ins.AtomsShared()) }

// AtomSetString renders distinct atoms as String renders the instance that
// holds exactly them: each atom as Atom.String does, sorted, comma-separated
// in braces. The atoms are rendered into one buffer and their spans sorted.
func AtomSetString(atoms []Atom) string {
	buf := make([]byte, 0, 16*len(atoms))
	spans := make([][2]int, len(atoms))
	for i, a := range atoms {
		start := len(buf)
		buf = append(buf, a.Rel...)
		buf = append(buf, '(')
		for j, v := range a.Args {
			if j > 0 {
				buf = append(buf, ',')
			}
			if v.IsNull() {
				buf = append(buf, '_')
				buf = strconv.AppendInt(buf, v.NullLabel(), 10)
			} else {
				buf = append(buf, ConstName(v)...)
			}
		}
		buf = append(buf, ')')
		spans[i] = [2]int{start, len(buf)}
	}
	slices.SortFunc(spans, func(x, y [2]int) int {
		return bytes.Compare(buf[x[0]:x[1]], buf[y[0]:y[1]])
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
