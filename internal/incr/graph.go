package incr

import (
	"strconv"

	"repro/internal/instance"
)

// atomKey returns a collision-free map key for a ground atom. Values are
// encoded by their numeric identity (constants are interned process-wide,
// null labels are stable), so the key is stable for the engine's lifetime.
func atomKey(a instance.Atom) string {
	buf := make([]byte, 0, len(a.Rel)+1+8*len(a.Args))
	buf = append(buf, a.Rel...)
	for _, v := range a.Args {
		buf = append(buf, '|')
		buf = strconv.AppendInt(buf, int64(v), 10)
	}
	return string(buf)
}

// firing is one recorded tgd application: the ground body atoms the match
// consumed and the head atoms the firing actually inserted (head atoms that
// were already present are not recorded as produced — see the graph comment
// for why that keeps support counting sound).
type firing struct {
	body     []instance.Atom
	produced []instance.Atom
}

// graph is the justification graph of a chase: per Definition 4.1, every
// derived atom is justified by the firing (d, ū, v̄) that produced it, and
// the firing in turn depends on its ground body atoms. The graph indexes
// both directions — producer (which live firing inserted an atom) and
// consumers (which firings used an atom in their body) — so a deletion can
// walk exactly the derivations that are gone (DRed-style over-deletion;
// re-derivation is the chase re-saturation that follows).
//
// A firing records as produced only the atoms it actually inserted. Because
// an inserted atom did not exist before its firing, the produced→consumed
// relation is acyclic (each atom's producer strictly precedes every firing
// consuming it), so "no live producer" is a sound deletion criterion even
// in settings with cyclic copy dependencies. The cost is under-counting:
// an atom also derivable by a match whose head was already satisfied is
// over-deleted — and then restored by the re-saturation pass, which sees
// the match as violated again. That is exactly the DRed contract.
//
// At any moment an atom has at most one live producer: a second firing can
// only insert an atom after the first firing's copy was retracted, and the
// retraction killed the first firing's claim before returning the atom.
type graph struct {
	// firings holds the live firings by id. A firing that dies is deleted.
	firings map[int]*firing
	next    int // id of the next recorded firing
	// producer maps an atom key to the id of the live firing that
	// inserted it. Source atoms never appear (nothing produces them).
	producer map[string]int
	// consumers maps an atom key to the firings whose ground body contains
	// the atom. Entries may reference dead firings (a firing dies through
	// one body atom and stays listed under the others); retract skips them,
	// and record drops them when a list is full, so a list grows only when
	// every entry in it is live, and a long run of insert/delete toggles
	// does not lengthen it.
	consumers map[string][]int
}

func newGraph() *graph {
	return &graph{
		firings:   make(map[int]*firing),
		producer:  make(map[string]int),
		consumers: make(map[string][]int),
	}
}

// record adds one firing. body and produced are retained — callers pass
// freshly instantiated slices.
func (g *graph) record(body, produced []instance.Atom) {
	idx := g.next
	g.next++
	g.firings[idx] = &firing{body: body, produced: produced}
	for _, a := range produced {
		g.producer[atomKey(a)] = idx
	}
	for _, a := range body {
		k := atomKey(a)
		l := g.consumers[k]
		if len(l) == cap(l) {
			l = g.live(l)
		}
		g.consumers[k] = append(l, idx)
	}
}

// live filters the dead firings out of ids, in place.
func (g *graph) live(ids []int) []int {
	out := ids[:0]
	for _, fi := range ids {
		if _, ok := g.firings[fi]; ok {
			out = append(out, fi)
		}
	}
	return out
}

// retract removes the given (source) atoms from the graph and cascades:
// every firing consuming a removed atom dies, every atom whose sole live
// producer died is removed in turn, transitively. It returns the derived
// atoms that lost their last justification — the over-deletion set the
// caller must remove from the instance before re-saturating.
func (g *graph) retract(deleted []instance.Atom) []instance.Atom {
	var removed []instance.Atom
	queued := make(map[string]bool, len(deleted))
	queue := make([]string, 0, len(deleted))
	for _, a := range deleted {
		k := atomKey(a)
		if !queued[k] {
			queued[k] = true
			queue = append(queue, k)
		}
	}
	for len(queue) > 0 {
		k := queue[0]
		queue = queue[1:]
		for _, fi := range g.consumers[k] {
			f, live := g.firings[fi]
			if !live {
				continue
			}
			delete(g.firings, fi)
			for _, p := range f.produced {
				pk := atomKey(p)
				if idx, ok := g.producer[pk]; !ok || idx != fi {
					continue // retracted and re-derived by a later firing
				}
				delete(g.producer, pk)
				if !queued[pk] {
					queued[pk] = true
					removed = append(removed, p)
					queue = append(queue, pk)
				}
			}
		}
		delete(g.consumers, k)
	}
	return removed
}

// liveFirings reports how many recorded firings are still alive (tests and
// introspection).
func (g *graph) liveFirings() int { return len(g.firings) }
