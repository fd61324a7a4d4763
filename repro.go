// Package repro is a Go implementation of closed-world-assumption data
// exchange following Hernich & Schweikardt, "CWA-Solutions for Data
// Exchange Settings with Target Dependencies" (PODS 2007).
//
// It provides relational instances with labeled nulls, data exchange
// settings with source-to-target tgds, target tgds and egds, the standard
// chase and the paper's justification-controlled α-chase, universal
// solutions and cores, CWA-presolutions and CWA-solutions, and the four
// certain/maybe query-answering semantics of Section 7.
//
// Quick start:
//
//	s, _ := repro.ParseSetting(`
//	source M/2, N/2.
//	target E/2, F/2, G/2.
//	st:
//	  d1: M(x1,x2) -> E(x1,x2).
//	  d2: N(x,y) -> exists z1,z2 : E(x,z1) & F(x,z2).
//	target-deps:
//	  d3: F(y,x) -> exists z : G(x,z).
//	  d4: F(x,y) & F(x,z) -> y = z.
//	`)
//	src, _ := repro.ParseInstance(`M(a,b). N(a,b). N(a,c).`)
//	sol, _ := repro.CWASolution(s, src, repro.ChaseOptions{})
//	q, _ := repro.ParseUCQ(`q(x,y) :- E(x,y).`)
//	ans, _ := repro.CertainAnswersUCQ(s, q, src, repro.ChaseOptions{})
package repro

import (
	"fmt"

	"repro/internal/certain"
	"repro/internal/chase"
	"repro/internal/cwa"
	"repro/internal/dependency"
	"repro/internal/hom"
	"repro/internal/instance"
	"repro/internal/parser"
	"repro/internal/query"
	"repro/internal/score"
)

// Core data model types.
type (
	// Value is a constant or labeled null.
	Value = instance.Value
	// Atom is a fact R(u1,…,ur).
	Atom = instance.Atom
	// Instance is a finite set of atoms over constants and nulls.
	Instance = instance.Instance
	// Schema maps relation names to arities.
	Schema = instance.Schema
	// Setting is a data exchange setting (σ, τ, Σst, Σt).
	Setting = dependency.Setting
	// TGD is a tuple-generating dependency.
	TGD = dependency.TGD
	// EGD is an equality-generating dependency.
	EGD = dependency.EGD
	// ChaseOptions bounds chase runs.
	ChaseOptions = chase.Options
	// ChaseResult is the outcome of a terminating chase.
	ChaseResult = chase.Result
	// AlphaChaseResult is the outcome of an α-chase.
	AlphaChaseResult = chase.AlphaResult
	// Justification identifies a potential justification (d, ū, v̄, z).
	Justification = chase.Justification
	// Alpha maps justifications to values.
	Alpha = chase.Alpha
	// EnumOptions bounds CWA-solution enumeration.
	EnumOptions = cwa.EnumOptions
	// CertainOptions configures certain-answer computation.
	CertainOptions = certain.Options
	// Semantics selects certain⊓, certain⊔, maybe⊓ or maybe⊔.
	Semantics = certain.Semantics
	// CQ is a conjunctive query, optionally with inequalities.
	CQ = query.CQ
	// UCQ is a union of conjunctive queries.
	UCQ = query.UCQ
	// FOQuery is a first-order query.
	FOQuery = query.FOQuery
	// Query is the common interface of the query classes.
	Query = query.Evaluable
	// TupleSet is a set of answer tuples.
	TupleSet = query.TupleSet
	// Tuple is one answer tuple.
	Tuple = query.Tuple
	// Mapping is a homomorphism's value mapping.
	Mapping = hom.Mapping
)

// Sentinel errors for aborted evaluations. Both may accompany a partial
// result; errors.Is distinguishes a run that exhausted its step budget from
// one whose ChaseOptions.Ctx was canceled (deadline or explicit cancel).
var (
	// ErrBudgetExceeded reports that a chase exceeded its MaxSteps budget.
	ErrBudgetExceeded = chase.ErrBudgetExceeded
	// ErrCanceled reports that ChaseOptions.Ctx was done; it wraps the
	// context's error.
	ErrCanceled = chase.ErrCanceled
)

// The four query-answering semantics of Section 7.1.
const (
	CertainCap = certain.CertainCap // certain⊓
	CertainCup = certain.CertainCup // certain⊔
	MaybeCap   = certain.MaybeCap   // maybe⊓
	MaybeCup   = certain.MaybeCup   // maybe⊔
)

// Const interns a constant by name.
func Const(name string) Value { return instance.Const(name) }

// Null returns the labeled null with the given label.
func Null(label int64) Value { return instance.Null(label) }

// NewInstance builds an instance from atoms.
func NewInstance(atoms ...Atom) *Instance { return instance.FromAtoms(atoms...) }

// NewAtom builds an atom.
func NewAtom(rel string, args ...Value) Atom { return instance.NewAtom(rel, args...) }

// ParseSetting parses a data exchange setting (see package parser for the
// syntax) and validates it.
func ParseSetting(text string) (*Setting, error) { return parser.ParseSetting(text) }

// ParseInstance parses a list of ground atoms such as "M(a,b). N(a,_0)."
func ParseInstance(text string) (*Instance, error) { return parser.ParseInstance(text) }

// ParseCQ parses a conjunctive query "q(x) :- E(x,y), x != y."
func ParseCQ(text string) (CQ, error) { return parser.ParseCQ(text) }

// ParseUCQ parses one or more CQ rules forming a union.
func ParseUCQ(text string) (UCQ, error) { return parser.ParseUCQ(text) }

// ParseFOQuery parses "(x) . formula" or a Boolean formula.
func ParseFOQuery(text string) (FOQuery, error) { return parser.ParseFOQuery(text) }

// Chase runs the standard chase, whose target reduct is a universal
// solution when it terminates without egd failure.
func Chase(s *Setting, src *Instance, opt ChaseOptions) (*ChaseResult, error) {
	return chase.Standard(s, src, opt)
}

// AlphaChase runs the justification-controlled chase of Definition 4.1
// under a fixed α.
func AlphaChase(s *Setting, src *Instance, a Alpha, opt ChaseOptions) (*AlphaChaseResult, error) {
	return chase.AlphaChase(s, src, a, opt)
}

// UniversalSolution chases and returns the target reduct.
func UniversalSolution(s *Setting, src *Instance, opt ChaseOptions) (*Instance, error) {
	return chase.UniversalSolution(s, src, opt)
}

// IsSolution reports whether t is a solution for src under s.
func IsSolution(s *Setting, src, t *Instance) bool { return chase.IsSolution(s, src, t) }

// Core computes the core of an instance.
func Core(t *Instance) *Instance { return score.Core(t) }

// CWASolution computes the minimal CWA-solution Core_D(S) (Theorem 5.1,
// Proposition 6.6). It fails with an error when no solution exists or the
// chase exceeds its budget.
func CWASolution(s *Setting, src *Instance, opt ChaseOptions) (*Instance, error) {
	return cwa.Minimal(s, src, opt)
}

// CanSol computes the canonical solution (maximal CWA-solution for egd-only
// and full+egd settings, Proposition 5.4).
func CanSol(s *Setting, src *Instance, opt ChaseOptions) (*Instance, error) {
	return cwa.CanSol(s, src, opt)
}

// ExistsCWASolution decides Existence-of-CWA-Solutions (Corollary 5.2:
// equivalent to the existence of universal solutions).
func ExistsCWASolution(s *Setting, src *Instance, opt ChaseOptions) (bool, error) {
	return cwa.Exists(s, src, opt)
}

// IsCWASolution decides whether t is a CWA-solution via Theorem 4.8.
func IsCWASolution(s *Setting, src, t *Instance, opt ChaseOptions) (bool, error) {
	return cwa.IsCWASolution(s, src, t, opt)
}

// IsCWAPresolution decides whether S ∪ T arises from a successful α-chase.
func IsCWAPresolution(s *Setting, src, t *Instance) bool {
	return cwa.IsCWAPresolution(s, src, t)
}

// EnumerateCWASolutions lists all CWA-solutions up to isomorphism, within
// the given bounds.
func EnumerateCWASolutions(s *Setting, src *Instance, opt EnumOptions) ([]*Instance, error) {
	return cwa.Enumerate(s, src, opt)
}

// Answers computes the chosen semantics (certain⊓/certain⊔/maybe⊓/maybe⊔)
// using the Theorem 7.1 characterisations where available.
func Answers(s *Setting, q Query, src *Instance, sem Semantics, opt CertainOptions) (*TupleSet, error) {
	return certain.Answers(s, q, src, sem, opt)
}

// CertainAnswersUCQ computes certain⊓ = certain⊔ of a pure UCQ in
// polynomial time (Theorem 7.6 / Lemma 7.7).
func CertainAnswersUCQ(s *Setting, u UCQ, src *Instance, opt ChaseOptions) (*TupleSet, error) {
	return certain.CertainUCQ(s, u, src, certain.Options{Chase: opt})
}

// HomomorphismExists reports whether a homomorphism from → to exists.
func HomomorphismExists(from, to *Instance) bool { return hom.Exists(from, to) }

// Isomorphic reports equality up to renaming of nulls.
func Isomorphic(a, b *Instance) bool { return hom.Isomorphic(a, b) }

// WeaklyAcyclic reports weak acyclicity of the setting (Definition 6.5).
func WeaklyAcyclic(s *Setting) bool { return s.WeaklyAcyclic() }

// RichlyAcyclic reports rich acyclicity of the setting (Definition 7.3).
func RichlyAcyclic(s *Setting) bool { return s.RichlyAcyclic() }

// ObliviousChase runs the per-trigger (oblivious) chase variant, which
// terminates on all sources exactly for richly acyclic settings.
func ObliviousChase(s *Setting, src *Instance, opt ChaseOptions) (*ChaseResult, error) {
	return chase.Oblivious(s, src, opt)
}

// ChaseTerminationBound returns a safe step budget for the standard chase
// on a weakly acyclic setting (ok=false otherwise).
func ChaseTerminationBound(s *Setting, domSize int) (bound int, ok bool) {
	return chase.TerminationBound(s, domSize)
}

// FindPresolutionAlpha returns the justification witnesses behind a
// CWA-presolution: the fragment of the α whose successful chase produces t.
func FindPresolutionAlpha(s *Setting, src, t *Instance) (map[string]query.Binding, bool) {
	return cwa.FindPresolutionAlpha(s, src, t)
}

// CertainAnswersUCQIneq computes certain⊓ for a UCQ with at most one
// inequality per disjunct through the planner, which uses the polynomial
// algorithms for the Table 1 classes where they apply. More inequalities in
// a disjunct are refused.
func CertainAnswersUCQIneq(s *Setting, u UCQ, src *Instance, opt CertainOptions) (*TupleSet, error) {
	if u.MaxInequalitiesPerDisjunct() > 1 {
		return nil, fmt.Errorf("certain: CertainAnswersUCQIneq requires at most one inequality per disjunct")
	}
	return certain.Answers(s, u, src, certain.CertainCap, opt)
}

// PossibleUCQ decides the Boolean maybe answer ◇Q(T) ≠ ∅ in polynomial
// time for settings without target dependencies.
func PossibleUCQ(s *Setting, u UCQ, t *Instance) (bool, error) {
	return certain.PossibleUCQ(s, u, t)
}

// CQContainedIn decides conjunctive-query containment (Chandra–Merlin).
func CQContainedIn(q1, q2 CQ) (bool, error) { return query.ContainedIn(q1, q2) }

// CQMinimize returns an equivalent minimal conjunctive query.
func CQMinimize(q CQ) (CQ, error) { return query.Minimize(q) }

// CanonicalFact builds the canonical fact ϕ_T of a target instance
// (Section 4): the Boolean sentence true in I iff a homomorphism T → I
// exists.
func CanonicalFact(t *Instance) FOQuery { return query.CanonicalFact(t) }
