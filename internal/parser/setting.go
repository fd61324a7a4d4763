package parser

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/dependency"
	"repro/internal/instance"
	"repro/internal/query"
)

// ParseSetting parses a data exchange setting:
//
//	source M/2, N/2.
//	target E/2, F/2, G/2.
//	st:
//	  d1: M(x1,x2) -> E(x1,x2).
//	  d2: N(x,y) -> exists z1,z2 : E(x,z1) & F(x,z2).
//	target-deps:
//	  d3: F(y,x) -> exists z : G(x,z).
//	  d4: F(x,y) & F(x,z) -> y = z.
//
// Dependency names ("d1:") are optional; unnamed dependencies are named
// st1, st2, … and t1, t2, … in order. The setting is validated before it is
// returned.
func ParseSetting(src string) (*dependency.Setting, error) {
	p, err := newParser(src)
	if err != nil {
		return nil, err
	}
	s := &dependency.Setting{}

	if !p.acceptIdent("source") {
		return nil, fmt.Errorf("line %d: setting must start with 'source'", p.cur().line)
	}
	if s.Source, err = p.parseSchemaDecl(); err != nil {
		return nil, err
	}
	if !p.acceptIdent("target") {
		return nil, fmt.Errorf("line %d: expected 'target' declaration", p.cur().line)
	}
	if s.Target, err = p.parseSchemaDecl(); err != nil {
		return nil, err
	}

	stCount, tCount := 0, 0
	for p.cur().kind != tokEOF {
		switch {
		case p.acceptIdent("st"):
			if _, err := p.expect(tokColon); err != nil {
				return nil, err
			}
			for p.cur().kind != tokEOF && !p.atSectionStart() {
				d, egd, err := p.parseDependency()
				if err != nil {
					return nil, err
				}
				if egd != nil {
					return nil, fmt.Errorf("egd %q not allowed in st section", egd.Name)
				}
				stCount++
				if d.Name == "" {
					d.Name = fmt.Sprintf("st%d", stCount)
				}
				s.ST = append(s.ST, d)
			}
		case p.acceptIdent("target-deps"):
			if _, err := p.expect(tokColon); err != nil {
				return nil, err
			}
			for p.cur().kind != tokEOF && !p.atSectionStart() {
				d, egd, err := p.parseDependency()
				if err != nil {
					return nil, err
				}
				tCount++
				if egd != nil {
					if egd.Name == "" {
						egd.Name = fmt.Sprintf("t%d", tCount)
					}
					s.EGDs = append(s.EGDs, egd)
				} else {
					if d.Name == "" {
						d.Name = fmt.Sprintf("t%d", tCount)
					}
					s.TGDs = append(s.TGDs, d)
				}
			}
		default:
			return nil, fmt.Errorf("line %d: expected 'st:' or 'target-deps:' section, found %q", p.cur().line, p.cur().text)
		}
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

func (p *parser) atSectionStart() bool {
	t := p.cur()
	return t.kind == tokIdent && (t.text == "st" || t.text == "target-deps") &&
		p.toks[p.pos+1].kind == tokColon &&
		// A dependency name also looks like "ident:"; sections are only
		// recognised for the two reserved words, so dependencies cannot be
		// named "st" or "target-deps".
		true
}

func (p *parser) parseSchemaDecl() (instance.Schema, error) {
	s := instance.Schema{}
	for {
		name, err := p.expect(tokIdent)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokSlash); err != nil {
			return nil, err
		}
		ar, err := p.expect(tokNumber)
		if err != nil {
			return nil, err
		}
		n := 0
		fmt.Sscanf(ar.text, "%d", &n)
		s[name.text] = n
		if p.accept(tokComma) {
			continue
		}
		break
	}
	if _, err := p.expect(tokDot); err != nil {
		return nil, err
	}
	return s, nil
}

// parseDependency parses one dependency statement ending in '.': either a
// tgd "body -> [exists vars :] head-conjunction" or an egd "body -> x = y".
// An optional "name:" prefix names it.
func (p *parser) parseDependency() (*dependency.TGD, *dependency.EGD, error) {
	name := ""
	if p.cur().kind == tokIdent && p.toks[p.pos+1].kind == tokColon &&
		p.cur().text != "st" && p.cur().text != "target-deps" {
		name = p.next().text
		p.next() // colon
	}
	body, err := p.parseOr()
	if err != nil {
		return nil, nil, err
	}
	if _, err := p.expect(tokArrow); err != nil {
		return nil, nil, err
	}

	// Egd head: term = term.
	if p.isEgdHead() {
		l, err := p.parseTerm()
		if err != nil {
			return nil, nil, err
		}
		if _, err := p.expect(tokEq); err != nil {
			return nil, nil, err
		}
		r, err := p.parseTerm()
		if err != nil {
			return nil, nil, err
		}
		if _, err := p.expect(tokDot); err != nil {
			return nil, nil, err
		}
		if !l.IsVar() || !r.IsVar() {
			return nil, nil, fmt.Errorf("egd %q: head must equate two variables", name)
		}
		bodyAtoms, err := atomsOf(body)
		if err != nil {
			return nil, nil, fmt.Errorf("egd %q: %w", name, err)
		}
		return nil, &dependency.EGD{Name: name, Body: bodyAtoms, L: l.Var, R: r.Var}, nil
	}

	// Tgd head: optional exists block then conjunction of atoms.
	var exVars []string
	if p.acceptIdent("exists") {
		for {
			v, err := p.expect(tokIdent)
			if err != nil {
				return nil, nil, err
			}
			exVars = append(exVars, v.text)
			if p.accept(tokComma) {
				continue
			}
			break
		}
		p.accept(tokColon)
	}
	var head []query.Atom
	for {
		a, err := p.parseQueryAtom()
		if err != nil {
			return nil, nil, err
		}
		head = append(head, a)
		if p.accept(tokAmp) {
			continue
		}
		break
	}
	if _, err := p.expect(tokDot); err != nil {
		return nil, nil, err
	}
	d := dependency.NewTGD(name, body, head)
	if err := checkDeclaredExists(d, exVars); err != nil {
		return nil, nil, err
	}
	return d, nil, nil
}

// isEgdHead peeks whether the head is "term = term" rather than an atom.
func (p *parser) isEgdHead() bool {
	if p.cur().kind != tokIdent && p.cur().kind != tokNumber && p.cur().kind != tokQuoted {
		return false
	}
	return p.toks[p.pos+1].kind == tokEq
}

// checkDeclaredExists verifies that the declared existential variables match
// the inferred ones (head variables absent from the body).
func checkDeclaredExists(d *dependency.TGD, declared []string) error {
	inferred := make(map[string]bool, len(d.Exists))
	for _, v := range d.Exists {
		inferred[v] = true
	}
	decl := make(map[string]bool, len(declared))
	for _, v := range declared {
		decl[v] = true
	}
	for _, v := range declared {
		if !inferred[v] {
			return fmt.Errorf("tgd %q: declared existential %q occurs in the body or not in the head", d.Name, v)
		}
	}
	for _, v := range d.Exists {
		if !decl[v] {
			return fmt.Errorf("tgd %q: head variable %q is not in the body; declare it with 'exists'", d.Name, v)
		}
	}
	return nil
}

func atomsOf(f query.Formula) ([]query.Atom, error) {
	switch g := f.(type) {
	case query.Atom:
		return []query.Atom{g}, nil
	case query.And:
		var out []query.Atom
		for _, h := range g.Fs {
			as, err := atomsOf(h)
			if err != nil {
				return nil, err
			}
			out = append(out, as...)
		}
		return out, nil
	default:
		return nil, fmt.Errorf("body must be a conjunction of atoms, found %v", f)
	}
}

// FormatInstance renders an instance in the text syntax ParseInstance
// accepts: one atom per line, terminated by periods, in deterministic
// order (Atoms' order). Constants that contain characters outside the
// bare-identifier alphabet are quoted. The text is written straight from
// the instance's rows into one buffer.
func FormatInstance(ins *instance.Instance) string {
	size := 0
	ins.EachRelation(func(r instance.Rel) {
		size += r.Len() * (len(r.Name()) + 4 + 8*len(r.Cols()))
	})
	var b strings.Builder
	b.Grow(size)
	var num [20]byte
	ins.EachRelation(func(r instance.Rel) {
		cols := r.Cols()
		for row, n := int32(0), r.Rows(); row < n; row++ {
			if r.HasDead() && !r.Alive(row) {
				continue
			}
			b.WriteString(r.Name())
			b.WriteByte('(')
			for i, col := range cols {
				if i > 0 {
					b.WriteString(", ")
				}
				v := col[row]
				if v.IsNull() {
					b.WriteByte('_')
					b.Write(strconv.AppendInt(num[:0], v.NullLabel(), 10))
					continue
				}
				b.WriteString(quoteConstIfNeeded(instance.ConstName(v)))
			}
			b.WriteString(").\n")
		}
	})
	return b.String()
}

// quoteConstIfNeeded wraps a constant name in quotes unless it lexes as a
// bare identifier or number.
func quoteConstIfNeeded(name string) string {
	if name == "" {
		return "''"
	}
	allDigits := true
	for _, r := range name {
		if r < '0' || r > '9' {
			allDigits = false
			break
		}
	}
	if allDigits {
		return name // lexes as a number token
	}
	bare := true
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z':
		case r >= '0' && r <= '9' && i > 0:
		case (r == '_' || r == '-') && i > 0:
		default:
			bare = false
		}
	}
	// Reserved words would parse as keywords or section markers.
	switch name {
	case "exists", "forall", "true", "false", "st", "target-deps", "source", "target":
		bare = false
	}
	if bare {
		return name
	}
	return "'" + name + "'"
}

// ParseCQ parses a conjunctive query "q(x,z) :- E(x,y), F(y,z), x != z."
// The trailing period is optional; commas separate body literals.
func ParseCQ(src string) (query.CQ, error) {
	p, err := newParser(src)
	if err != nil {
		return query.CQ{}, err
	}
	cq, err := p.parseCQ()
	if err != nil {
		return query.CQ{}, err
	}
	if p.cur().kind != tokEOF {
		return query.CQ{}, fmt.Errorf("line %d: trailing input %q", p.cur().line, p.cur().text)
	}
	return cq, nil
}

func (p *parser) parseCQ() (query.CQ, error) {
	var cq query.CQ
	if _, err := p.expect(tokIdent); err != nil { // query name, ignored
		return cq, err
	}
	if _, err := p.expect(tokLParen); err != nil {
		return cq, err
	}
	if !p.accept(tokRParen) {
		for {
			v, err := p.expect(tokIdent)
			if err != nil {
				return cq, err
			}
			cq.Head = append(cq.Head, v.text)
			if p.accept(tokComma) {
				continue
			}
			break
		}
		if _, err := p.expect(tokRParen); err != nil {
			return cq, err
		}
	}
	if _, err := p.expect(tokTurnstile); err != nil {
		return cq, err
	}
	for {
		if p.cur().kind == tokIdent && p.toks[p.pos+1].kind == tokLParen {
			a, err := p.parseQueryAtom()
			if err != nil {
				return cq, err
			}
			cq.Atoms = append(cq.Atoms, a)
		} else {
			l, err := p.parseTerm()
			if err != nil {
				return cq, err
			}
			if _, err := p.expect(tokNeq); err != nil {
				return cq, err
			}
			r, err := p.parseTerm()
			if err != nil {
				return cq, err
			}
			cq.Diseqs = append(cq.Diseqs, query.Diseq{L: l, R: r})
		}
		if p.accept(tokComma) {
			continue
		}
		break
	}
	p.accept(tokDot)
	return cq, nil
}

// ParseUCQ parses one or more CQ rules; rules form the disjuncts of a union.
//
//	q(x) :- A(x).
//	q(x) :- B(x).
func ParseUCQ(src string) (query.UCQ, error) {
	p, err := newParser(src)
	if err != nil {
		return query.UCQ{}, err
	}
	var disjuncts []query.CQ
	for p.cur().kind != tokEOF {
		cq, err := p.parseCQ()
		if err != nil {
			return query.UCQ{}, err
		}
		disjuncts = append(disjuncts, cq)
	}
	if len(disjuncts) == 0 {
		return query.UCQ{}, fmt.Errorf("no rules in UCQ")
	}
	return query.NewUCQ(disjuncts...), nil
}

// ParseFOQuery parses "(x, y) . formula" — an answer-variable tuple followed
// by a period and a formula — or, without the tuple prefix, a Boolean
// formula query.
func ParseFOQuery(src string) (query.FOQuery, error) {
	p, err := newParser(src)
	if err != nil {
		return query.FOQuery{}, err
	}
	var vars []string
	if p.cur().kind == tokLParen && p.looksLikeVarTuple() {
		p.next()
		if !p.accept(tokRParen) {
			for {
				v, err := p.expect(tokIdent)
				if err != nil {
					return query.FOQuery{}, err
				}
				vars = append(vars, v.text)
				if p.accept(tokComma) {
					continue
				}
				break
			}
			if _, err := p.expect(tokRParen); err != nil {
				return query.FOQuery{}, err
			}
		}
		if _, err := p.expect(tokDot); err != nil {
			return query.FOQuery{}, err
		}
	}
	f, err := p.parseFormula()
	if err != nil {
		return query.FOQuery{}, err
	}
	if p.cur().kind != tokEOF {
		return query.FOQuery{}, fmt.Errorf("line %d: trailing input %q", p.cur().line, p.cur().text)
	}
	free := query.FreeVars(f)
	if vars == nil {
		if len(free) != 0 {
			return query.FOQuery{}, fmt.Errorf("query has free variables %v; declare them with a (x,…) prefix", free)
		}
		return query.FOQuery{F: f}, nil
	}
	declared := make(map[string]bool, len(vars))
	for _, v := range vars {
		declared[v] = true
	}
	for _, v := range free {
		if !declared[v] {
			return query.FOQuery{}, fmt.Errorf("free variable %q not declared in answer tuple", v)
		}
	}
	return query.FOQuery{Vars: vars, F: f}, nil
}

// looksLikeVarTuple distinguishes "(x, y) . formula" from a parenthesised
// formula "(P(x) | Q(x))": after the closing paren of a variable tuple comes
// a period.
func (p *parser) looksLikeVarTuple() bool {
	depth := 0
	for i := p.pos; i < len(p.toks); i++ {
		switch p.toks[i].kind {
		case tokLParen:
			depth++
		case tokRParen:
			depth--
			if depth == 0 {
				return i+1 < len(p.toks) && p.toks[i+1].kind == tokDot
			}
		case tokIdent, tokComma:
			// fine inside a variable tuple
		default:
			if depth > 0 {
				return false
			}
		}
	}
	return false
}
