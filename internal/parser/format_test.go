package parser

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/instance"
)

func TestFormatInstanceRoundTrip(t *testing.T) {
	ins := instance.FromAtoms(
		instance.NewAtom("E", instance.Const("a"), instance.Null(3)),
		instance.NewAtom("F", instance.Const("hello world"), instance.Const("42")),
		instance.NewAtom("P", instance.Const("exists")), // reserved word
		instance.NewAtom("P", instance.Const("x-y_1")),
	)
	text := FormatInstance(ins)
	back, err := ParseInstance(text)
	if err != nil {
		t.Fatalf("re-parsing failed: %v\n%s", err, text)
	}
	if !back.Equal(ins) {
		t.Fatalf("round trip lost atoms:\noriginal %v\nback     %v\ntext:\n%s", ins, back, text)
	}
}

func TestQuoteConstIfNeeded(t *testing.T) {
	cases := map[string]string{
		"abc":         "abc",
		"42":          "42",
		"a1_b-c":      "a1_b-c",
		"hello there": "'hello there'",
		"9lives":      "'9lives'",
		"_weird":      "'_weird'",
		"exists":      "'exists'",
		"":            "''",
	}
	for in, want := range cases {
		if got := quoteConstIfNeeded(in); got != want {
			t.Errorf("quote(%q) = %q, want %q", in, got, want)
		}
	}
}

// Property: FormatInstance → ParseInstance is the identity on instances over
// generated constant names and nulls.
func TestQuickFormatRoundTrip(t *testing.T) {
	f := func(vals []uint8) bool {
		ins := instance.New()
		for i := 0; i+1 < len(vals); i += 2 {
			var a, b instance.Value
			if vals[i]%2 == 0 {
				a = instance.Const(string(rune('a' + vals[i]%26)))
			} else {
				a = instance.Null(int64(vals[i] % 7))
			}
			if vals[i+1]%2 == 0 {
				b = instance.Const(string(rune('a' + vals[i+1]%26)))
			} else {
				b = instance.Null(int64(vals[i+1] % 7))
			}
			ins.Add(instance.NewAtom("R", a, b))
		}
		back, err := ParseInstance(FormatInstance(ins))
		return err == nil && back.Equal(ins)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// formatInstanceAtoms is FormatInstance as it rendered before it wrote
// from the rows: through a copy of every atom and fmt per null.
func formatInstanceAtoms(ins *instance.Instance) string {
	var b strings.Builder
	for _, a := range ins.Atoms() {
		b.WriteString(a.Rel)
		b.WriteByte('(')
		for i, v := range a.Args {
			if i > 0 {
				b.WriteString(", ")
			}
			if v.IsNull() {
				fmt.Fprintf(&b, "_%d", v.NullLabel())
			} else {
				b.WriteString(quoteConstIfNeeded(instance.ConstName(v)))
			}
		}
		b.WriteString(").\n")
	}
	return b.String()
}

// FormatInstance renders byte for byte what the atom-by-atom rendering
// did: on the fixtures and on random instances over quoted, reserved,
// numeric and null-like constants, with removals leaving dead rows behind.
// (internal/cwa's TestEnumerateBodiesGolden pins it on the enumeration's
// golden cases.)
func TestFormatInstanceMatchesAtomRendering(t *testing.T) {
	var cases []*instance.Instance
	for _, name := range []string{"source21.dx", "hr_source.dx"} {
		b, err := os.ReadFile(filepath.Join("..", "..", "testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		ins, err := ParseInstance(string(b))
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, ins)
	}
	cases = append(cases, instance.New())
	odd := []string{"a", "b9", "42", "0", "hello world", "_0", "_weird", "exists", "target-deps", "", "x-y_1", "9lives", "it's", "ünï", "-x"}
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ins := instance.New()
		var added []instance.Atom
		for i := 0; i < 30; i++ {
			args := make([]instance.Value, 1+rng.Intn(3))
			for j := range args {
				if rng.Intn(3) == 0 {
					args[j] = instance.Null(int64(rng.Intn(12)))
				} else {
					args[j] = instance.Const(odd[rng.Intn(len(odd))])
				}
			}
			a := instance.Atom{Rel: fmt.Sprintf("R%d", len(args)), Args: args}
			ins.Add(a)
			added = append(added, a)
		}
		for i := 0; i < 5; i++ {
			ins.Remove(added[rng.Intn(len(added))])
		}
		cases = append(cases, ins)
	}
	for i, ins := range cases {
		if got, want := FormatInstance(ins), formatInstanceAtoms(ins); got != want {
			t.Fatalf("case %d: FormatInstance =\n%s\nwant\n%s", i, got, want)
		}
	}
}
