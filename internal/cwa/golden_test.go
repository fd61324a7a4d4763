package cwa

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dependency"
	"repro/internal/genwl"
	"repro/internal/instance"
	"repro/internal/parser"
)

// goldenBodiesPath holds the instance text /v1/enum streams for every golden
// case, recorded while emit still built each representative through
// hom.CanonicalNullForm: one worker, in SortEnumeratedBySize order, each
// solution rendered by parser.FormatInstance and closed by a "--" line. It
// pins, beyond the sorted String() of goldenPath, the row order of every
// solution the enumeration builds.
const goldenBodiesPath = "testdata/enum_bodies_golden.txt"

// goldenPath holds the canonical solution strings Enumerate returned for
// goldenCases before the witness candidates were filtered against the
// universal solution. The filter only drops witnesses that could never
// complete a CWA-solution, so the output must stay byte-identical.
const goldenPath = "testdata/enum_golden.txt"

type enumCase struct {
	name string
	s    *dependency.Setting
	src  *instance.Instance
}

// paddedExample21Source is Example 2.1's source plus pad copied facts
// M(u_j, v_j) over fresh constants: the scenario shape dxbench registers.
// Each pad fact adds a constant that no existential witness may take.
func paddedExample21Source(pad int) *instance.Instance {
	src := genwl.Example21Source()
	for j := 0; j < pad; j++ {
		src.Add(instance.NewAtom("M",
			instance.Const(fmt.Sprintf("u%d", j)), instance.Const(fmt.Sprintf("v%d", j))))
	}
	return src
}

// goldenCases lists the pinned inputs: the repository's testdata fixtures,
// Example 5.3, the random richly acyclic settings of
// TestRandomSettingsPipeline with and without egds, and padded Example 2.1.
func goldenCases(t testing.TB) []enumCase {
	t.Helper()
	readFixture := func(name string) string {
		b, err := os.ReadFile(filepath.Join("..", "..", "testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	var cases []enumCase
	for _, fx := range []struct{ setting, source string }{
		{"example21.dx", "source21.dx"},
		{"hr.dx", "hr_source.dx"},
	} {
		s, err := parser.ParseSetting(readFixture(fx.setting))
		if err != nil {
			t.Fatal(err)
		}
		src, err := parser.ParseInstance(readFixture(fx.source))
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, enumCase{"fixture " + fx.setting + " " + fx.source, s, src})
	}
	for _, n := range []int{1, 2} {
		cases = append(cases, enumCase{fmt.Sprintf("example53 n=%d", n), genwl.Example53(), genwl.Example53Source(n)})
	}
	for seed := int64(0); seed < 24; seed++ {
		src := genwl.RandomLayeredSource(4+int(seed%5), seed*7)
		for _, withEgd := range []bool{false, true} {
			cases = append(cases, enumCase{fmt.Sprintf("random seed=%d egd=%v", seed, withEgd),
				genwl.RandomRichlyAcyclic(seed, withEgd), src})
		}
	}
	for pad := 0; pad <= 16; pad++ {
		cases = append(cases, enumCase{fmt.Sprintf("example21 pad=%d", pad), genwl.Example21(), paddedExample21Source(pad)})
	}
	return cases
}

// formatGolden renders Enumerate's output on every golden case: a header
// line with the case name and solution count, then one canonical solution
// per line, in the returned order.
func formatGolden(t testing.TB, workers int) string {
	t.Helper()
	var b strings.Builder
	for _, c := range goldenCases(t) {
		sols, err := Enumerate(c.s, c.src, EnumOptions{Workers: workers})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		fmt.Fprintf(&b, "== %s: %d\n", c.name, len(sols))
		for _, sol := range sols {
			b.WriteString(sol.String())
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// formatGoldenBodies renders what /v1/enum would stream on every golden case
// (see goldenBodiesPath).
func formatGoldenBodies(t testing.TB) string {
	t.Helper()
	var b strings.Builder
	for _, c := range goldenCases(t) {
		sols, err := Enumerate(c.s, c.src, EnumOptions{Workers: 1})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		SortEnumeratedBySize(sols)
		fmt.Fprintf(&b, "== %s: %d\n", c.name, len(sols))
		for _, sol := range sols {
			b.WriteString(parser.FormatInstance(sol))
			b.WriteString("--\n")
		}
	}
	return b.String()
}

func TestEnumerateGolden(t *testing.T) {
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		got := formatGolden(t, workers)
		if got == string(want) {
			continue
		}
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("workers=%d: line %d differs from %s:\ngot  %s\nwant %s", workers, i+1, goldenPath, gl[i], wl[i])
			}
		}
		t.Fatalf("workers=%d: %d lines, %s has %d", workers, len(gl), goldenPath, len(wl))
	}
}

// The bytes /v1/enum streams, row order included, are the ones recorded in
// goldenBodiesPath.
func TestEnumerateBodiesGolden(t *testing.T) {
	want, err := os.ReadFile(goldenBodiesPath)
	if err != nil {
		t.Fatal(err)
	}
	got := formatGoldenBodies(t)
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("line %d differs from %s:\ngot  %s\nwant %s", i+1, goldenBodiesPath, gl[i], wl[i])
		}
	}
	t.Fatalf("%d lines, %s has %d", len(gl), goldenBodiesPath, len(wl))
}

// On every golden case, the stable size sort of Enumerate's output (which
// /v1/enum streams) orders the solutions exactly as SortBySize does.
func TestSortEnumeratedBySizeMatchesSortBySize(t *testing.T) {
	for _, c := range goldenCases(t) {
		sols, err := Enumerate(c.s, c.src, EnumOptions{Workers: 1})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		want := append([]*instance.Instance(nil), sols...)
		SortBySize(want)
		SortEnumeratedBySize(sols)
		for i := range sols {
			if sols[i] != want[i] {
				t.Fatalf("%s: position %d holds %v, SortBySize puts %v there", c.name, i, sols[i], want[i])
			}
		}
	}
}
