// Package dependency defines data exchange settings and their dependencies:
// source-to-target tuple-generating dependencies (s-t tgds) with first-order
// bodies, target tgds with conjunctive bodies, and equality-generating
// dependencies (egds), following Section 2 of Hernich & Schweikardt
// (PODS 2007). It also implements the dependency graph, weak acyclicity
// (Definition 6.5) and rich acyclicity (Definition 7.3).
package dependency

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/instance"
	"repro/internal/query"
)

// TGD is a tuple-generating dependency
//
//	∀x̄ ∀ȳ ( ϕ(x̄, ȳ) → ∃z̄ ψ(x̄, z̄) )
//
// where ψ is a conjunction of relational atoms over the target schema. For a
// source-to-target tgd the body ϕ may be an arbitrary first-order formula
// over the source schema (with quantifiers relativized to the active
// domain); for a target tgd it must be a conjunction of relational atoms,
// exposed via BodyAtoms.
type TGD struct {
	// Name identifies the dependency in traces and justifications
	// (e.g. "d2"). Names must be unique within a setting.
	Name string
	// Body is the premise ϕ(x̄, ȳ).
	Body query.Formula
	// BodyAtoms is non-nil iff Body is a conjunction of relational atoms;
	// target tgds require it, s-t tgds have it when the body is conjunctive.
	BodyAtoms []query.Atom
	// X are the universally quantified variables shared with the head (x̄),
	// Y those occurring only in the body (ȳ), Exists the z̄.
	X, Y, Exists []string
	// Head is the conclusion ψ(x̄, z̄) as a conjunction of atoms.
	Head []query.Atom

	// Compiled-plan caches (see plan.go). Lazily built, concurrency-safe;
	// TGDs are shared by pointer so a plan is compiled once per dependency.
	planOnce   sync.Once
	bodyPlan   *query.Plan
	headPlan   *query.Plan
	deltaOnce  sync.Once
	deltaPlans []*query.Plan
	deltaPerms [][]int
	deltaUnify []DeltaUnifier

	// Slot-space caches for the fully slot-based chase hot path (conjunctive
	// bodies only, see plan.go).
	slotsOnce   sync.Once
	headSlots   *query.Plan
	headTmpl    *query.AtomTemplates
	bodyTmpl    *query.AtomTemplates
	existsSlots []int
	xSlots      []int
	ySlots      []int
}

// Full reports whether the tgd has no existentially quantified variables.
func (d *TGD) Full() bool { return len(d.Exists) == 0 }

// FrontierVars returns x̄ ∪ ȳ in declaration order.
func (d *TGD) FrontierVars() []string {
	out := make([]string, 0, len(d.X)+len(d.Y))
	out = append(out, d.X...)
	out = append(out, d.Y...)
	return out
}

func (d *TGD) String() string {
	head := make([]string, len(d.Head))
	for i, a := range d.Head {
		head[i] = a.String()
	}
	rhs := strings.Join(head, " & ")
	if len(d.Exists) > 0 {
		rhs = "exists " + strings.Join(d.Exists, ",") + " : " + rhs
	}
	// Quantified and implicational bodies must be parenthesised so that the
	// printed dependency re-parses: a bare quantifier body would swallow the
	// tgd arrow, and a bare implication would be mistaken for it.
	body := d.Body.String()
	switch d.Body.(type) {
	case query.Implies, query.Exists, query.Forall:
		body = "(" + body + ")"
	}
	return fmt.Sprintf("%s: %s -> %s", d.Name, body, rhs)
}

// NewTGD builds a tgd from a body and head, inferring X (body variables used
// in the head), Y (remaining body variables) and Exists (head variables not
// in the body). The body may be any formula; if it is a conjunction of
// atoms, BodyAtoms is populated.
func NewTGD(name string, body query.Formula, head []query.Atom) *TGD {
	d := &TGD{Name: name, Body: body, Head: head}
	bodyVars := query.FreeVars(body)
	inBody := make(map[string]bool, len(bodyVars))
	for _, v := range bodyVars {
		inBody[v] = true
	}
	headVars := make(map[string]bool)
	var headOrder []string
	for _, a := range head {
		for _, v := range a.Vars() {
			if !headVars[v] {
				headVars[v] = true
				headOrder = append(headOrder, v)
			}
		}
	}
	for _, v := range bodyVars {
		if headVars[v] {
			d.X = append(d.X, v)
		} else {
			d.Y = append(d.Y, v)
		}
	}
	for _, v := range headOrder {
		if !inBody[v] {
			d.Exists = append(d.Exists, v)
		}
	}
	d.BodyAtoms = conjunctionAtoms(body)
	return d
}

// conjunctionAtoms returns the atoms of a pure positive conjunction, or nil
// if the formula is not one.
func conjunctionAtoms(f query.Formula) []query.Atom {
	switch g := f.(type) {
	case query.Atom:
		return []query.Atom{g}
	case query.And:
		var out []query.Atom
		for _, h := range g.Fs {
			as := conjunctionAtoms(h)
			if as == nil {
				return nil
			}
			out = append(out, as...)
		}
		return out
	default:
		return nil
	}
}

// EGD is an equality-generating dependency
//
//	∀x̄ ( ϕ(x̄) → x_k = x_l )
//
// where ϕ is a conjunction of relational atoms over the target schema.
type EGD struct {
	Name string
	Body []query.Atom
	L, R string // the variables equated; both must occur in the body

	// Compiled-plan cache (see plan.go).
	planOnce     sync.Once
	bodyPlan     *query.Plan
	slotL, slotR int
}

func (d *EGD) String() string {
	parts := make([]string, len(d.Body))
	for i, a := range d.Body {
		parts[i] = a.String()
	}
	return fmt.Sprintf("%s: %s -> %s = %s", d.Name, strings.Join(parts, " & "), d.L, d.R)
}

// Setting is a data exchange setting D = (σ, τ, Σst, Σt). A Setting must
// not change once it is in use: its acyclicity tests (acyclic.go) and its
// dependencies' plans (plan.go) are computed once and memoised, which is
// what lets one parsed Setting be shared by pointer across goroutines and
// across every scenario built on it.
type Setting struct {
	Source instance.Schema // σ
	Target instance.Schema // τ
	ST     []*TGD          // Σst: source-to-target tgds
	TGDs   []*TGD          // target tgds of Σt
	EGDs   []*EGD          // egds of Σt

	weakOnce, richOnce sync.Once
	weakly, richly     bool
}

// AllTGDs returns Σst ∪ (tgds of Σt); the order is s-t tgds first.
func (s *Setting) AllTGDs() []*TGD {
	out := make([]*TGD, 0, len(s.ST)+len(s.TGDs))
	out = append(out, s.ST...)
	out = append(out, s.TGDs...)
	return out
}

// TGDByName returns the tgd with the given name, or nil.
func (s *Setting) TGDByName(name string) *TGD {
	for _, d := range s.AllTGDs() {
		if d.Name == name {
			return d
		}
	}
	return nil
}

// HasTargetDependencies reports whether Σt is nonempty.
func (s *Setting) HasTargetDependencies() bool {
	return len(s.TGDs) > 0 || len(s.EGDs) > 0
}

// EgdsOnly reports whether Σt consists of egds only (first restricted class
// of Proposition 5.4 / Theorem 7.1 / Table 1 row 3).
func (s *Setting) EgdsOnly() bool { return len(s.TGDs) == 0 }

// FullAndEgds reports whether Σst consists of full tgds and Σt of egds and
// full tgds (second restricted class of Proposition 5.4 / Table 1 row 4).
func (s *Setting) FullAndEgds() bool {
	for _, d := range s.ST {
		if !d.Full() {
			return false
		}
	}
	for _, d := range s.TGDs {
		if !d.Full() {
			return false
		}
	}
	return true
}

// Validate checks the structural well-formedness constraints of Section 2:
// disjoint schemas, s-t tgd bodies over σ and heads over τ, target
// dependencies entirely over τ, conjunctive bodies where required, matching
// arities, and head/egd variables coming from the body.
func (s *Setting) Validate() error {
	if !s.Source.Disjoint(s.Target) {
		return fmt.Errorf("dependency: source and target schemas must be disjoint")
	}
	names := make(map[string]bool)
	for _, d := range s.AllTGDs() {
		if d.Name == "" {
			return fmt.Errorf("dependency: unnamed tgd %v", d)
		}
		if names[d.Name] {
			return fmt.Errorf("dependency: duplicate dependency name %q", d.Name)
		}
		names[d.Name] = true
	}
	for _, d := range s.ST {
		if err := s.checkFormulaSchema(d.Body, s.Source); err != nil {
			return fmt.Errorf("s-t tgd %s body: %w", d.Name, err)
		}
		if err := s.checkHead(d); err != nil {
			return fmt.Errorf("s-t tgd %s: %w", d.Name, err)
		}
	}
	for _, d := range s.TGDs {
		if d.BodyAtoms == nil {
			return fmt.Errorf("target tgd %s: body must be a conjunction of atoms", d.Name)
		}
		for _, a := range d.BodyAtoms {
			if err := s.checkAtomSchema(a, s.Target); err != nil {
				return fmt.Errorf("target tgd %s body: %w", d.Name, err)
			}
		}
		if err := s.checkHead(d); err != nil {
			return fmt.Errorf("target tgd %s: %w", d.Name, err)
		}
	}
	for _, d := range s.EGDs {
		if d.Name == "" {
			return fmt.Errorf("dependency: unnamed egd %v", d)
		}
		if names[d.Name] {
			return fmt.Errorf("dependency: duplicate dependency name %q", d.Name)
		}
		names[d.Name] = true
		if len(d.Body) == 0 {
			return fmt.Errorf("egd %s: empty body", d.Name)
		}
		bodyVars := make(map[string]bool)
		for _, a := range d.Body {
			if err := s.checkAtomSchema(a, s.Target); err != nil {
				return fmt.Errorf("egd %s body: %w", d.Name, err)
			}
			for _, v := range a.Vars() {
				bodyVars[v] = true
			}
		}
		if !bodyVars[d.L] || !bodyVars[d.R] {
			return fmt.Errorf("egd %s: equated variables must occur in the body", d.Name)
		}
	}
	return nil
}

func (s *Setting) checkHead(d *TGD) error {
	if len(d.Head) == 0 {
		return fmt.Errorf("empty head")
	}
	for _, a := range d.Head {
		if err := s.checkAtomSchema(a, s.Target); err != nil {
			return fmt.Errorf("head: %w", err)
		}
	}
	return nil
}

func (s *Setting) checkAtomSchema(a query.Atom, sch instance.Schema) error {
	ar, ok := sch[a.Rel]
	if !ok {
		return fmt.Errorf("relation %s not in schema {%s}", a.Rel, sch)
	}
	if ar != len(a.Terms) {
		return fmt.Errorf("relation %s has arity %d, atom has %d arguments", a.Rel, ar, len(a.Terms))
	}
	return nil
}

func (s *Setting) checkFormulaSchema(f query.Formula, sch instance.Schema) error {
	var err error
	var walk func(query.Formula)
	walk = func(f query.Formula) {
		if err != nil {
			return
		}
		switch g := f.(type) {
		case query.Atom:
			err = s.checkAtomSchema(g, sch)
		case query.Not:
			walk(g.F)
		case query.And:
			for _, h := range g.Fs {
				walk(h)
			}
		case query.Or:
			for _, h := range g.Fs {
				walk(h)
			}
		case query.Implies:
			walk(g.L)
			walk(g.R)
		case query.Exists:
			walk(g.F)
		case query.Forall:
			walk(g.F)
		case query.Eq, query.Truth:
		default:
			err = fmt.Errorf("unknown formula node %T", f)
		}
	}
	walk(f)
	return err
}

// String renders the whole setting in the parser's text syntax.
func (s *Setting) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "source %s.\ntarget %s.\n", schemaDecl(s.Source), schemaDecl(s.Target))
	if len(s.ST) > 0 {
		b.WriteString("st:\n")
		for _, d := range s.ST {
			fmt.Fprintf(&b, "  %s.\n", d)
		}
	}
	if len(s.TGDs) > 0 || len(s.EGDs) > 0 {
		b.WriteString("target-deps:\n")
		for _, d := range s.TGDs {
			fmt.Fprintf(&b, "  %s.\n", d)
		}
		for _, d := range s.EGDs {
			fmt.Fprintf(&b, "  %s.\n", d)
		}
	}
	return b.String()
}

func schemaDecl(s instance.Schema) string {
	names := s.Names()
	parts := make([]string, len(names))
	for i, n := range names {
		parts[i] = fmt.Sprintf("%s/%d", n, s[n])
	}
	sort.Strings(parts)
	return strings.Join(parts, ", ")
}
