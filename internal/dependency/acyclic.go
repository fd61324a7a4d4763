package dependency

import (
	"fmt"
	"sort"
)

// Position is a pair (R, i): the i-th argument slot (0-based) of target
// relation R (Definition 6.5).
type Position struct {
	Rel string
	I   int
}

func (p Position) String() string { return fmt.Sprintf("(%s,%d)", p.Rel, p.I+1) }

// Edge is a dependency-graph edge; Existential marks the special edges
// introduced for existentially quantified head variables.
type Edge struct {
	From, To    Position
	Existential bool
	// Dep names the tgd that induced the edge, for diagnostics.
	Dep string
}

// DependencyGraph is the (possibly extended) dependency graph of the target
// tgds of a setting.
type DependencyGraph struct {
	Positions []Position
	Edges     []Edge
	adj       map[Position][]int // indexes into Edges
}

// BuildDependencyGraph builds the dependency graph of Σt's tgds
// (Definition 6.5). If extended is true it additionally inserts the
// existential edges of Definition 7.3 (from positions of ȳ-variables in the
// body to positions of z̄-variables in the head), yielding the extended
// dependency graph used for rich acyclicity.
func BuildDependencyGraph(s *Setting, extended bool) *DependencyGraph {
	g := &DependencyGraph{adj: make(map[Position][]int)}
	posSeen := make(map[Position]bool)
	addPos := func(p Position) {
		if !posSeen[p] {
			posSeen[p] = true
			g.Positions = append(g.Positions, p)
		}
	}
	// Every position of the target schema is a vertex.
	for rel, ar := range s.Target {
		for i := 0; i < ar; i++ {
			addPos(Position{Rel: rel, I: i})
		}
	}
	addEdge := func(e Edge) {
		g.Edges = append(g.Edges, e)
		g.adj[e.From] = append(g.adj[e.From], len(g.Edges)-1)
	}
	for _, d := range s.TGDs {
		exists := make(map[string]bool, len(d.Exists))
		for _, z := range d.Exists {
			exists[z] = true
		}
		// Positions of each variable in the body / head.
		bodyPos := make(map[string][]Position)
		for _, a := range d.BodyAtoms {
			for i, t := range a.Terms {
				if t.IsVar() {
					bodyPos[t.Var] = append(bodyPos[t.Var], Position{Rel: a.Rel, I: i})
				}
			}
		}
		headPos := make(map[string][]Position)
		for _, a := range d.Head {
			for i, t := range a.Terms {
				if t.IsVar() {
					headPos[t.Var] = append(headPos[t.Var], Position{Rel: a.Rel, I: i})
				}
			}
		}
		var zPositions []Position
		for z := range exists {
			zPositions = append(zPositions, headPos[z]...)
		}
		sort.Slice(zPositions, func(i, j int) bool {
			if zPositions[i].Rel != zPositions[j].Rel {
				return zPositions[i].Rel < zPositions[j].Rel
			}
			return zPositions[i].I < zPositions[j].I
		})
		// Regular and existential edges from x̄-positions (Def 6.5).
		for _, x := range d.X {
			for _, from := range bodyPos[x] {
				for _, to := range headPos[x] {
					addEdge(Edge{From: from, To: to, Dep: d.Name})
				}
				for _, to := range zPositions {
					addEdge(Edge{From: from, To: to, Existential: true, Dep: d.Name})
				}
			}
		}
		// Extended existential edges from ȳ-positions (Def 7.3).
		if extended {
			for _, y := range d.Y {
				for _, from := range bodyPos[y] {
					for _, to := range zPositions {
						addEdge(Edge{From: from, To: to, Existential: true, Dep: d.Name})
					}
				}
			}
		}
	}
	return g
}

// String renders the graph as one edge per line, existential edges marked
// with "=∃=>", in deterministic order — a debugging aid for acyclicity
// diagnoses.
func (g *DependencyGraph) String() string {
	lines := make([]string, 0, len(g.Edges))
	for _, e := range g.Edges {
		arrow := "--->"
		if e.Existential {
			arrow = "=∃=>"
		}
		lines = append(lines, fmt.Sprintf("%v %s %v  [%s]", e.From, arrow, e.To, e.Dep))
	}
	sort.Strings(lines)
	out := ""
	for _, l := range lines {
		out += l + "\n"
	}
	return out
}

// HasExistentialCycle reports whether some cycle of the graph contains an
// existential edge. Following the standard argument, this holds iff some
// strongly connected component contains an existential edge whose endpoints
// both lie in that component.
func (g *DependencyGraph) HasExistentialCycle() bool {
	comp := g.sccs()
	for _, e := range g.Edges {
		if e.Existential && comp[e.From] == comp[e.To] {
			return true
		}
	}
	return false
}

// sccs computes strongly connected components (Tarjan) and returns the
// component id of every position.
func (g *DependencyGraph) sccs() map[Position]int {
	index := make(map[Position]int)
	low := make(map[Position]int)
	onStack := make(map[Position]bool)
	comp := make(map[Position]int)
	var stack []Position
	counter, compID := 0, 0

	var strong func(v Position)
	strong = func(v Position) {
		index[v] = counter
		low[v] = counter
		counter++
		stack = append(stack, v)
		onStack[v] = true
		for _, ei := range g.adj[v] {
			w := g.Edges[ei].To
			if _, seen := index[w]; !seen {
				strong(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp[w] = compID
				if w == v {
					break
				}
			}
			compID++
		}
	}
	for _, p := range g.Positions {
		if _, seen := index[p]; !seen {
			strong(p)
		}
	}
	return comp
}

// Ranks returns, for every position, the maximum number of existential
// edges on any path ending in that position (well-defined only for weakly
// acyclic graphs; call HasExistentialCycle first). It is the stratification
// underlying the polynomial chase bound of Fagin et al.
func (g *DependencyGraph) Ranks() map[Position]int {
	// Longest path in a DAG of SCCs where existential edges count 1.
	comp := g.sccs()
	nComp := 0
	for _, c := range comp {
		if c+1 > nComp {
			nComp = c + 1
		}
	}
	// Edges between components (within-component edges are non-existential
	// in a weakly acyclic graph and do not increase rank).
	type cedge struct {
		to   int
		cost int
	}
	cadj := make([][]cedge, nComp)
	indeg := make([]int, nComp)
	for _, e := range g.Edges {
		cf, ct := comp[e.From], comp[e.To]
		if cf == ct {
			continue
		}
		cost := 0
		if e.Existential {
			cost = 1
		}
		cadj[cf] = append(cadj[cf], cedge{to: ct, cost: cost})
		indeg[ct]++
	}
	// Topological longest path over components.
	rank := make([]int, nComp)
	var queue []int
	for c := 0; c < nComp; c++ {
		if indeg[c] == 0 {
			queue = append(queue, c)
		}
	}
	for len(queue) > 0 {
		c := queue[0]
		queue = queue[1:]
		for _, e := range cadj[c] {
			if rank[c]+e.cost > rank[e.to] {
				rank[e.to] = rank[c] + e.cost
			}
			indeg[e.to]--
			if indeg[e.to] == 0 {
				queue = append(queue, e.to)
			}
		}
	}
	out := make(map[Position]int, len(g.Positions))
	for _, p := range g.Positions {
		out[p] = rank[comp[p]]
	}
	return out
}

// WeaklyAcyclic reports whether the setting is weakly acyclic
// (Definition 6.5): no cycle of the dependency graph of Σt contains an
// existential edge. The test runs once per Setting; later calls read the
// memoised answer.
func (s *Setting) WeaklyAcyclic() bool {
	s.weakOnce.Do(func() { s.weakly = !BuildDependencyGraph(s, false).HasExistentialCycle() })
	return s.weakly
}

// RichlyAcyclic reports whether the setting is richly acyclic
// (Definition 7.3): no cycle of the extended dependency graph contains an
// existential edge. Every richly acyclic setting is weakly acyclic. Like
// WeaklyAcyclic, it is computed once per Setting.
func (s *Setting) RichlyAcyclic() bool {
	s.richOnce.Do(func() { s.richly = !BuildDependencyGraph(s, true).HasExistentialCycle() })
	return s.richly
}
