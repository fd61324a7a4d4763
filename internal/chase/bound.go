package chase

import (
	"math"

	"repro/internal/dependency"
	"repro/internal/instance"
)

// TerminationBound computes a safe step budget for the standard chase of a
// weakly acyclic setting on a source instance of the given active-domain
// size, following the Fagin-et-al. argument: stratify the target positions
// by rank (the maximum number of existential edges on a path into the
// position, finite iff the setting is weakly acyclic) and bound the number
// of distinct values per position rank by rank. The returned bound is the
// resulting cap on distinct atoms (each chase step adds at least one atom),
// clamped to at most math.MaxInt32 and at least 1.
//
// ok is false when the setting is not weakly acyclic, in which case no
// finite bound exists in general and bound is 0.
func TerminationBound(s *dependency.Setting, domSize int) (bound int, ok bool) {
	g := dependency.BuildDependencyGraph(s, false)
	if g.HasExistentialCycle() {
		return 0, false
	}
	ranks := g.Ranks()
	maxRank := 0
	for _, r := range ranks {
		if r > maxRank {
			maxRank = r
		}
	}
	// Values per rank: v(0) = |dom(S)| + constants in dependencies;
	// v(r+1) ≤ v(r) + (#tgds) · v(r)^(max frontier size) fresh values —
	// the standard (coarse) inductive bound.
	maxFrontier := 1
	for _, d := range s.AllTGDs() {
		if f := len(d.X) + len(d.Y); f > maxFrontier {
			maxFrontier = f
		}
	}
	nTgds := float64(len(s.AllTGDs()))
	v := float64(domSize + 1 + countDependencyConstants(s))
	for r := 0; r < maxRank; r++ {
		v = v + nTgds*math.Pow(v, float64(maxFrontier))
		if v > math.MaxInt32 {
			return math.MaxInt32, true
		}
	}
	// Atoms: every target relation over the value pool, coarsely.
	maxArity := 1
	for _, ar := range s.Target {
		if ar > maxArity {
			maxArity = ar
		}
	}
	atoms := float64(len(s.Target)) * math.Pow(v, float64(maxArity))
	if atoms > math.MaxInt32 {
		return math.MaxInt32, true
	}
	if atoms < 1 {
		atoms = 1
	}
	return int(atoms), true
}

// countDependencyConstants counts the distinct constants mentioned in the
// dependencies' atoms (they can enter the chase result).
func countDependencyConstants(s *dependency.Setting) int {
	seen := make(map[instance.Value]bool)
	for _, d := range s.AllTGDs() {
		for _, a := range d.Head {
			for _, t := range a.Terms {
				if !t.IsVar() {
					seen[t.Val] = true
				}
			}
		}
		for _, a := range d.BodyAtoms {
			for _, t := range a.Terms {
				if !t.IsVar() {
					seen[t.Val] = true
				}
			}
		}
	}
	for _, d := range s.EGDs {
		for _, a := range d.Body {
			for _, t := range a.Terms {
				if !t.IsVar() {
					seen[t.Val] = true
				}
			}
		}
	}
	return len(seen)
}
