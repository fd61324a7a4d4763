package server

// End-to-end checks of the certain-answer planner behind /v1/certain: the
// X-Dx-Plan header on misses and hits, the per-method counters, reads after
// a mutation answered from the incremental engine's universal solution in
// place, and answers byte-identical to the Box/Diamond-over-the-core path
// the endpoint used before the planner.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/certain"
	"repro/internal/chase"
	"repro/internal/cwa"
	"repro/internal/instance"
	"repro/internal/metrics"
	"repro/internal/parser"
	"repro/internal/query"
	"repro/internal/server/api"
)

const planSetting = `
source M/2, N/2.
target E/2, F/2, G/2.
st:
  d1: M(x1,x2) -> E(x1,x2).
  d2: N(x,y) -> exists z1,z2 : E(x,z1) & F(x,z2).
target-deps:
  d3: F(y,x) -> exists z : G(x,z).
  d4: F(x,y) & F(x,z) -> y = z.
`

const planSource = `M(a,b). N(a,b). N(a,c).`

// postJSON sends body to path and returns the status, headers and body.
func postJSON(t *testing.T, ts *httptest.Server, path string, body any) (int, http.Header, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, out
}

func certainAnswers(t *testing.T, ts *httptest.Server, id, q, sem string) (http.Header, [][]string) {
	t.Helper()
	code, hdr, body := postJSON(t, ts, "/v1/certain", api.EvalRequest{Scenario: id, Query: q, Semantics: sem})
	if code != http.StatusOK {
		t.Fatalf("certain %s %q: HTTP %d: %s", sem, q, code, body)
	}
	var resp api.CertainResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	return hdr, resp.Answers
}

func TestCertainPlanHeaderAndCounter(t *testing.T) {
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(s)
	defer ts.Close()
	if _, _, err := s.reg.register("qs", planSetting, planSource, chase.Options{}); err != nil {
		t.Fatal(err)
	}
	counter := func() int64 { return metrics.Read()["certain_plan_naive_universal"] }
	before := counter()
	for i, want := range []string{"miss", "hit"} {
		hdr, _ := certainAnswers(t, ts, "qs", "q(x,y) :- E(x,y).", "certain-cup")
		if got := hdr.Get("X-Cache"); got != want {
			t.Fatalf("request %d: X-Cache %q, want %q", i, got, want)
		}
		if got := hdr.Get(planHeader); got != "naive-universal" {
			t.Fatalf("request %d (%s): %s %q, want naive-universal", i, want, planHeader, got)
		}
	}
	if got := counter() - before; got != 1 {
		t.Fatalf("certain_plan_naive_universal moved by %d over a miss and a hit, want 1", got)
	}
	hdr, _ := certainAnswers(t, ts, "qs", "q(x) :- E(x,y), y != x.", "certain-cap")
	if got := hdr.Get(planHeader); got != "by-definition" {
		t.Fatalf("%s %q, want by-definition", planHeader, got)
	}
	resp, err := ts.Client().Get(ts.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, name := range []string{"certain_plan_naive_universal ", "certain_plan_by_definition "} {
		if !bytes.Contains(text, []byte(name)) {
			t.Errorf("/metricsz lacks %s", name)
		}
	}
}

// A query after a mutation is answered from the engine's maintained
// universal solution: the answers reflect the mutation, and source
// relations stay hidden as on the τ-reduct.
func TestCertainAfterMutationUsesEngineView(t *testing.T) {
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(s)
	defer ts.Close()
	if _, _, err := s.reg.register("qs", planSetting, planSource, chase.Options{}); err != nil {
		t.Fatal(err)
	}
	code, _, body := postJSON(t, ts, "/v1/scenarios/qs/source/tuples", api.MutateRequest{Tuples: "M(c,d)."})
	if code != http.StatusOK {
		t.Fatalf("mutate: HTTP %d: %s", code, body)
	}
	_, got := certainAnswers(t, ts, "qs", "q(x,y) :- E(x,y).", "certain-cup")
	want := [][]string{{"a", "b"}, {"c", "d"}}
	if !equalRows(got, want) {
		t.Fatalf("answers after mutation %v, want %v", got, want)
	}
	// A query over a source relation matches nothing, as on the τ-reduct,
	// although the engine's chase instance holds the source atoms.
	if _, got := certainAnswers(t, ts, "qs", "q(x,y) :- M(x,y).", "certain-cap"); len(got) != 0 {
		t.Fatalf("source-relation query answered %v, want nothing", got)
	}
}

// A long evaluation over the engine's view does not hold up other requests
// on the same scenario: a cache hit, a chase and a second evaluation all
// complete while it runs.
func TestSlowEngineViewDoesNotStallReads(t *testing.T) {
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(s)
	defer ts.Close()
	ts.Client().Timeout = 5 * time.Second
	sc, _, err := s.reg.register("qs", planSetting, planSource, chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	code, _, body := postJSON(t, ts, "/v1/scenarios/qs/source/tuples", api.MutateRequest{Tuples: "M(c,d)."})
	if code != http.StatusOK {
		t.Fatalf("mutate: HTTP %d: %s", code, body)
	}
	certainAnswers(t, ts, "qs", "q(x,y) :- E(x,y).", "certain-cup")

	entered, release, done := make(chan struct{}), make(chan struct{}), make(chan error)
	go func() {
		done <- sc.engine.View(chase.Options{}, func(*instance.Instance) {
			close(entered)
			<-release
		})
	}()
	<-entered
	released := false
	defer func() {
		if !released {
			close(release)
			<-done
		}
	}()

	if hdr, _ := certainAnswers(t, ts, "qs", "q(x,y) :- E(x,y).", "certain-cup"); hdr.Get("X-Cache") != "hit" {
		t.Fatalf("X-Cache %q, want hit", hdr.Get("X-Cache"))
	}
	if code, _, body := postJSON(t, ts, "/v1/chase", api.EvalRequest{Scenario: "qs"}); code != http.StatusOK {
		t.Fatalf("chase: HTTP %d: %s", code, body)
	}
	if _, got := certainAnswers(t, ts, "qs", "q(x) :- E(x,y).", "certain-cup"); !equalRows(got, [][]string{{"a"}, {"c"}}) {
		t.Fatalf("answers %v, want [[a] [c]]", got)
	}
	released = true
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func equalRows(a, b [][]string) bool {
	x, _ := json.Marshal(a)
	y, _ := json.Marshal(b)
	return bytes.Equal(x, y)
}

// The planner's answers are byte-identical to the path the endpoint took
// before it: □Q and ◇Q over the core for certain⊔ and maybe⊓, and the
// by-definition semantics for certain⊓ and maybe⊔ (Example 2.1 lies outside
// Proposition 5.4's classes).
func TestCertainPlanMatchesCorePath(t *testing.T) {
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(s)
	defer ts.Close()
	setting, err := parser.ParseSetting(planSetting)
	if err != nil {
		t.Fatal(err)
	}
	src, err := parser.ParseInstance(planSource)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.reg.register("qs", planSetting, planSource, chase.Options{}); err != nil {
		t.Fatal(err)
	}
	core, err := cwa.Minimal(setting, src, chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{
		"q(x,y) :- E(x,y).",
		"q(x) :- E(x,y).\nq(x) :- F(x,y).",
		"q(x) :- E(x,y), F(x,z), y != z.",
		"(x) . exists y (E(x,y) & !(F(x,y)))",
		"q(x,y) :- M(x,y).",
	}
	opt := certain.Options{Workers: 1}
	for _, qText := range queries {
		q, err := parseQuery(qText)
		if err != nil {
			t.Fatal(err)
		}
		for name, sem := range semanticsByName {
			var want *query.TupleSet
			switch sem {
			case certain.CertainCup:
				want, err = certain.Box(setting, q, core, opt)
			case certain.MaybeCap:
				want, err = certain.Diamond(setting, q, core, opt)
			default:
				want, err = certain.ByDefinition(setting, q, src, sem, opt)
			}
			if err != nil {
				t.Fatalf("%s %q: %v", name, qText, err)
			}
			hdr, got := certainAnswers(t, ts, "qs", qText, name)
			if !equalRows(got, sortedAnswers(want)) {
				t.Errorf("%s %q (%s): got %v, want %v", name, qText, hdr.Get(planHeader), got, sortedAnswers(want))
			}
			if plan := certain.Choose(setting, q, sem).String(); hdr.Get(planHeader) != plan {
				t.Errorf("%s %q: %s %q, want %q", name, qText, planHeader, hdr.Get(planHeader), plan)
			}
		}
	}
}
