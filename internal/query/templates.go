package query

import (
	"repro/internal/instance"
)

// AtomTemplates instantiate a list of atoms under a slot environment without
// any map lookups: each argument is either a constant or a slot index into
// the env of the Plan the templates were compiled against. They are the
// slot-based counterpart of instantiating head atoms under a Binding.
type AtomTemplates struct {
	atoms []atomTemplate
}

type atomTemplate struct {
	rel   string
	args  []instance.Value // constant positions pre-filled
	slots []int            // per position: env slot, or -1 for constants
}

// NewAtomTemplates compiles the atoms against the plan's slot table. Every
// variable must have a slot in p (occur in p's atoms or pre-bound set);
// NewAtomTemplates panics otherwise, since that indicates a caller bug.
func NewAtomTemplates(atoms []Atom, p *Plan) *AtomTemplates {
	ts := &AtomTemplates{atoms: make([]atomTemplate, len(atoms))}
	for i, a := range atoms {
		t := atomTemplate{
			rel:   a.Rel,
			args:  make([]instance.Value, len(a.Terms)),
			slots: make([]int, len(a.Terms)),
		}
		for j, term := range a.Terms {
			if !term.IsVar() {
				t.args[j] = term.Val
				t.slots[j] = -1
				continue
			}
			slot := p.Slot(term.Var)
			if slot < 0 {
				panic("query.NewAtomTemplates: variable " + term.Var + " has no slot")
			}
			t.slots[j] = slot
		}
		ts.atoms[i] = t
	}
	return ts
}

// fill writes the template's atom arguments under the environment into
// args, which has the template's arity.
func (t *atomTemplate) fill(args, env []instance.Value) {
	for j, slot := range t.slots {
		if slot >= 0 {
			args[j] = env[slot]
		} else {
			args[j] = t.args[j]
		}
	}
}

// scratchArgs returns buf cut to the template's arity, or a fresh slice
// when the arity exceeds it.
func (t *atomTemplate) scratchArgs(buf *[8]instance.Value) []instance.Value {
	if len(t.args) > len(buf) {
		return make([]instance.Value, len(t.args))
	}
	return buf[:len(t.args)]
}

// AllPresent reports whether every templated atom, instantiated under the
// environment, is present in ins — Instantiate followed by Has checks, but
// without materializing the atom list (the α-chase applicability test runs
// it once per body match per pass).
func (ts *AtomTemplates) AllPresent(ins *instance.Instance, env []instance.Value) bool {
	var buf [8]instance.Value
	for i := range ts.atoms {
		t := &ts.atoms[i]
		args := t.scratchArgs(&buf)
		t.fill(args, env)
		if !ins.Has(instance.Atom{Rel: t.rel, Args: args}) {
			return false
		}
	}
	return true
}

// AddTo adds the templated atoms, instantiated under the environment, to
// ins. Like AllPresent it builds each atom in a stack buffer, so it
// allocates only what ins.Add stores.
func (ts *AtomTemplates) AddTo(ins *instance.Instance, env []instance.Value) {
	var buf [8]instance.Value
	for i := range ts.atoms {
		t := &ts.atoms[i]
		args := t.scratchArgs(&buf)
		t.fill(args, env)
		ins.Add(instance.Atom{Rel: t.rel, Args: args})
	}
}

// Scratch returns atoms shaped for Fill: one per template, their argument
// slices carved from a single backing array.
func (ts *AtomTemplates) Scratch() []instance.Atom {
	n := 0
	for _, t := range ts.atoms {
		n += len(t.args)
	}
	flat := make([]instance.Value, n)
	out := make([]instance.Atom, len(ts.atoms))
	for i, t := range ts.atoms {
		out[i] = instance.Atom{Rel: t.rel, Args: flat[:len(t.args):len(t.args)]}
		flat = flat[len(t.args):]
	}
	return out
}

// Fill overwrites the arguments of dst, a Scratch of ts, with the atoms
// under the environment. It allocates nothing, so a caller can instantiate
// candidate atoms repeatedly and keep (copy) only those it needs.
func (ts *AtomTemplates) Fill(env []instance.Value, dst []instance.Atom) {
	for i := range ts.atoms {
		ts.atoms[i].fill(dst[i].Args, env)
	}
}

// Instantiate returns the atoms under the environment. The returned atoms
// use freshly allocated argument slices.
func (ts *AtomTemplates) Instantiate(env []instance.Value) []instance.Atom {
	out := make([]instance.Atom, len(ts.atoms))
	for i := range ts.atoms {
		t := &ts.atoms[i]
		args := make([]instance.Value, len(t.args))
		t.fill(args, env)
		out[i] = instance.Atom{Rel: t.rel, Args: args}
	}
	return out
}
