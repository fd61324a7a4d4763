package server_test

// /v1/enum enumerates on the scenario's maintained universal solution, not
// on a fresh chase of its source. These tests pin that the stream still
// lists exactly cwa.Enumerate's solutions when the maintained solution is
// not isomorphic to a fresh chase, and that a source without solutions
// streams an empty 200.

import (
	"context"
	"slices"
	"sort"
	"testing"

	"repro/internal/chase"
	"repro/internal/cwa"
	"repro/internal/hom"
	"repro/internal/parser"
	"repro/internal/server"
	"repro/internal/server/api"
	"repro/internal/server/client"
)

// mergeSetting's chase merges S's null into e by e1 at registration, so
// the engine maintains it on its egd-merged path. Inserting B(a) adds
// R(a,a) beside the R(a,_0) that t1 fired before P(a) existed; a fresh
// chase fires t2 first and never creates R(a,_0).
const mergeSetting = `
source A/1, B/1, C/1, D/2.
target T/1, P/1, R/2, S/2.
st:
  d1: A(x) -> T(x).
  d2: B(x) -> P(x).
  d3: C(x) -> exists z : S(x,z).
  d4: D(x,y) -> S(x,y).
target-deps:
  t2: P(x) -> R(x,x).
  t1: T(x) -> exists z : R(x,z).
  e1: S(x,y) & S(x,z) -> y = z.
`

// enumStream returns the solutions /v1/enum streams for the scenario, as
// sorted canonical strings, and the summary's count.
func enumStream(t *testing.T, c *client.Client, id string) ([]string, api.EnumSummary) {
	t.Helper()
	var got []string
	sum, err := c.Enum(context.Background(), api.EvalRequest{Scenario: id, Max: 100, Workers: 1}, func(sol api.EnumSolution) error {
		ins, err := parser.ParseInstance(sol.Solution)
		if err != nil {
			return err
		}
		got = append(got, hom.CanonicalNullForm(ins).String())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(got)
	return got, sum
}

// enumDirect returns cwa.Enumerate's solutions for the source text, as
// sorted canonical strings.
func enumDirect(t *testing.T, setting, source string) []string {
	t.Helper()
	s, err := parser.ParseSetting(setting)
	if err != nil {
		t.Fatal(err)
	}
	src, err := parser.ParseInstance(source)
	if err != nil {
		t.Fatal(err)
	}
	sols, err := cwa.Enumerate(s, src, cwa.EnumOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(sols))
	for i, sol := range sols {
		out[i] = hom.CanonicalNullForm(sol).String()
	}
	sort.Strings(out)
	return out
}

func TestEnumOnMaintainedSolution(t *testing.T) {
	_, _, c := newTestServer(t, server.Config{})
	ctx := context.Background()
	if _, err := c.Register(ctx, api.RegisterRequest{Name: "merge", Setting: mergeSetting, Source: `A(a). C(c). D(c,e).`}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Insert(ctx, "merge", api.MutateRequest{Tuples: `B(a).`}); err != nil {
		t.Fatal(err)
	}
	inserted := `A(a). B(a). C(c). D(c,e).`

	// The maintained solution differs from a fresh chase of the same source.
	maintained, err := c.Chase(ctx, api.EvalRequest{Scenario: "merge"})
	if err != nil {
		t.Fatal(err)
	}
	m, err := parser.ParseInstance(maintained.Universal)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := parser.ParseSetting(mergeSetting)
	src, _ := parser.ParseInstance(inserted)
	fresh, err := chase.UniversalSolution(s, src, chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if hom.Isomorphic(m, fresh) {
		t.Fatalf("maintained solution %v is isomorphic to the fresh chase %v; the test would be vacuous", m, fresh)
	}

	got, sum := enumStream(t, c, "merge")
	want := enumDirect(t, mergeSetting, inserted)
	if len(want) == 0 || !slices.Equal(got, want) || sum.Count != len(want) || sum.Truncated {
		t.Fatalf("after insert: /v1/enum = %v (summary %+v), cwa.Enumerate = %v", got, sum, want)
	}

	// The delete falls back to a re-chase, since e1 merged values.
	mut, err := c.Remove(ctx, "merge", api.MutateRequest{Tuples: `A(a).`})
	if err != nil {
		t.Fatal(err)
	}
	if !mut.Fallback {
		t.Fatalf("delete after an egd merge = %+v, want a fallback re-chase", mut)
	}
	got, sum = enumStream(t, c, "merge")
	want = enumDirect(t, mergeSetting, `B(a). C(c). D(c,e).`)
	if len(want) == 0 || !slices.Equal(got, want) || sum.Count != len(want) {
		t.Fatalf("after delete: /v1/enum = %v (summary %+v), cwa.Enumerate = %v", got, sum, want)
	}
}

// A source whose chase fails on an egd has no CWA-solutions: /v1/enum
// streams a 200 with only the summary line, count 0.
func TestEnumNoSolutionStreamsEmpty(t *testing.T) {
	_, _, c := newTestServer(t, server.Config{})
	ctx := context.Background()
	if _, err := c.Register(ctx, api.RegisterRequest{Name: "egd", Setting: mergeSetting, Source: `D(c,e). D(c,f).`}); err != nil {
		t.Fatal(err)
	}
	got, sum := enumStream(t, c, "egd")
	if len(got) != 0 || sum.Count != 0 || !sum.Done || sum.Truncated {
		t.Fatalf("no-solution enum = %v, summary %+v; want an empty stream with count 0", got, sum)
	}
}
