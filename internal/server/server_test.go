package server_test

// End-to-end tests over httptest: the paper's worked examples round-trip
// through the HTTP surface, the result cache serves byte-identical bodies,
// deadlines map to 504 without leaking goroutines, and the admission gate
// sheds load with 503.

import (
	"context"
	"encoding/json"
	"io"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/genwl"
	"repro/internal/hom"
	"repro/internal/metrics"
	"repro/internal/parser"
	"repro/internal/semigroup"
	"repro/internal/server"
	"repro/internal/server/api"
	"repro/internal/server/client"
	"repro/internal/turing"
)

const quickstartSetting = `
source M/2, N/2.
target E/2, F/2, G/2.
st:
  d1: M(x1,x2) -> E(x1,x2).
  d2: N(x,y) -> exists z1,z2 : E(x,z1) & F(x,z2).
target-deps:
  d3: F(y,x) -> exists z : G(x,z).
  d4: F(x,y) & F(x,z) -> y = z.
`

const quickstartSource = `M(a,b). N(a,b). N(a,c).`

func newTestServer(t *testing.T, cfg server.Config) (*server.Server, *httptest.Server, *client.Client) {
	t.Helper()
	srv := server.New(cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	c := client.New(ts.URL)
	c.HTTPClient = ts.Client()
	return srv, ts, c
}

func registerQuickstart(t *testing.T, c *client.Client, name string) api.ScenarioInfo {
	t.Helper()
	info, err := c.Register(context.Background(), api.RegisterRequest{
		Name: name, Setting: quickstartSetting, Source: quickstartSource,
	})
	if err != nil {
		t.Fatalf("register %s: %v", name, err)
	}
	return info
}

func wantAPIError(t *testing.T, err error, code string, httpStatus int) {
	t.Helper()
	apiErr, ok := err.(*client.APIError)
	if !ok {
		t.Fatalf("want *client.APIError %s/%d, got %T: %v", code, httpStatus, err, err)
	}
	if apiErr.Code != code || apiErr.StatusCode != httpStatus {
		t.Fatalf("want %s/%d, got %s/%d (%s)", code, httpStatus, apiErr.Code, apiErr.StatusCode, apiErr.Message)
	}
}

func TestQuickstartEndToEnd(t *testing.T) {
	_, _, c := newTestServer(t, server.Config{})
	ctx := context.Background()

	info := registerQuickstart(t, c, "qs")
	if !info.WeaklyAcyclic || !info.Chased || info.Existing {
		t.Fatalf("registration info = %+v", info)
	}
	// Content-identical re-registration dedupes, even anonymously.
	again, err := c.Register(ctx, api.RegisterRequest{Setting: quickstartSetting, Source: quickstartSource})
	if err != nil || !again.Existing || again.ID != "qs" {
		t.Fatalf("re-register = %+v, %v; want existing qs", again, err)
	}

	chase, err := c.Chase(ctx, api.EvalRequest{Scenario: "qs"})
	if err != nil {
		t.Fatal(err)
	}
	if chase.Steps == 0 || chase.Atoms == 0 {
		t.Fatalf("chase = %+v", chase)
	}

	core, err := c.Core(ctx, api.EvalRequest{Scenario: "qs"})
	if err != nil {
		t.Fatal(err)
	}
	got, err := parser.ParseInstance(core.Instance)
	if err != nil {
		t.Fatalf("core text does not re-parse: %v\n%s", err, core.Instance)
	}
	want, _ := parser.ParseInstance(`E(a,b). F(a,_1). G(_1,_2).`)
	if !hom.Isomorphic(got, want) {
		t.Fatalf("core %s is not isomorphic to the Theorem 5.1 core", core.Instance)
	}

	if _, err := c.CanSol(ctx, api.EvalRequest{Scenario: "qs"}); err != nil {
		t.Fatal(err)
	}

	exists, err := c.Exists(ctx, api.EvalRequest{Scenario: "qs"})
	if err != nil || !exists.Exists {
		t.Fatalf("exists = %+v, %v", exists, err)
	}

	ans, err := c.Certain(ctx, api.EvalRequest{
		Scenario: "qs", Query: `q(x,y) :- E(x,y).`, Semantics: "certain-cup",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Answers) != 1 || ans.Answers[0][0] != "a" || ans.Answers[0][1] != "b" {
		t.Fatalf("certain⊔ = %v, want [[a b]]", ans.Answers)
	}

	n := 0
	sum, err := c.Enum(ctx, api.EvalRequest{Scenario: "qs", Max: 50}, func(sol api.EnumSolution) error {
		if _, err := parser.ParseInstance(sol.Solution); err != nil {
			return err
		}
		n++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sum.Done || sum.Count != n || n == 0 {
		t.Fatalf("enum summary %+v after %d solutions", sum, n)
	}
}

// TestCertainCacheByteIdentical is the acceptance criterion: two identical
// /v1/certain requests return byte-identical JSON, the second served from
// the result cache, observable via the server_cache_hits counter on
// /metricsz.
func TestCertainCacheByteIdentical(t *testing.T) {
	_, ts, c := newTestServer(t, server.Config{})
	registerQuickstart(t, c, "cache")

	const body = `{"scenario":"cache","query":"q(x,y) :- E(x,y).","semantics":"certain-cup"}`
	post := func() (string, []byte) {
		resp, err := ts.Client().Post(ts.URL+"/v1/certain", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 200 {
			t.Fatalf("status %d: %s", resp.StatusCode, b)
		}
		return resp.Header.Get("X-Cache"), b
	}

	hitsBefore := metrics.ServerCacheHits.Load()
	cache1, body1 := post()
	cache2, body2 := post()
	if cache1 != "miss" || cache2 != "hit" {
		t.Fatalf("X-Cache sequence = %q, %q; want miss, hit", cache1, cache2)
	}
	if string(body1) != string(body2) {
		t.Fatalf("cached response not byte-identical:\n%s\n%s", body1, body2)
	}
	if d := metrics.ServerCacheHits.Load() - hitsBefore; d < 1 {
		t.Fatalf("server_cache_hits advanced by %d, want >= 1", d)
	}

	// The counter is scrapeable on /metricsz.
	text, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`(?m)^server_cache_hits (\d+)$`).FindStringSubmatch(text)
	if m == nil {
		t.Fatalf("/metricsz missing server_cache_hits:\n%s", text)
	}
	if v, _ := strconv.Atoi(m[1]); v < 1 {
		t.Fatalf("server_cache_hits on /metricsz = %s, want >= 1", m[1])
	}
}

// TestAnomalyFourSemantics serves the Section 3 anomaly workload: on a
// copying setting all four semantics return Q evaluated on the copy — 18
// answers on two 9-cycles.
func TestAnomalyFourSemantics(t *testing.T) {
	_, _, c := newTestServer(t, server.Config{})
	ctx := context.Background()

	if _, err := c.Register(ctx, api.RegisterRequest{
		Name:    "anomaly",
		Setting: parser.FormatSetting(genwl.Copying()),
		Source:  parser.FormatInstance(genwl.TwoNineCycles()),
	}); err != nil {
		t.Fatal(err)
	}

	const q = `(x) . Pp(x) | exists y,z (Pp(y) & Ep(y,z) & !(Pp(z)))`
	var first api.CertainResponse
	for i, sem := range []string{"certain-cap", "certain-cup", "maybe-cap", "maybe-cup"} {
		ans, err := c.Certain(ctx, api.EvalRequest{Scenario: "anomaly", Query: q, Semantics: sem})
		if err != nil {
			t.Fatalf("%s: %v", sem, err)
		}
		if len(ans.Answers) != 18 {
			t.Fatalf("%s: %d answers, want 18 (the full two cycles)", sem, len(ans.Answers))
		}
		if i == 0 {
			first = ans
			continue
		}
		for j := range ans.Answers {
			if ans.Answers[j][0] != first.Answers[j][0] {
				t.Fatalf("%s answers differ from certain-cap at %d", sem, j)
			}
		}
	}
}

// TestSemigroupBudget422 registers D_emb (Example 6.1: solutions exist but
// the chase never terminates) and asserts the step budget maps to 422.
func TestSemigroupBudget422(t *testing.T) {
	_, _, c := newTestServer(t, server.Config{})
	ctx := context.Background()

	src, err := semigroup.SourceInstance(semigroup.Example61Partial())
	if err != nil {
		t.Fatal(err)
	}
	info, err := c.Register(ctx, api.RegisterRequest{
		Name:    "demb",
		Setting: parser.FormatSetting(semigroup.DembSetting()),
		Source:  parser.FormatInstance(src),
	})
	if err != nil {
		t.Fatal(err)
	}
	if info.WeaklyAcyclic || info.Chased {
		t.Fatalf("D_emb must register unchased and non-weakly-acyclic: %+v", info)
	}

	_, err = c.Chase(ctx, api.EvalRequest{Scenario: "demb", MaxSteps: 200})
	wantAPIError(t, err, "budget_exceeded", 422)

	_, err = c.Exists(ctx, api.EvalRequest{Scenario: "demb", MaxSteps: 200})
	wantAPIError(t, err, "budget_exceeded", 422)

	// /v1/enum chases through the engine before it enumerates, under the
	// same budget.
	_, err = c.Enum(ctx, api.EvalRequest{Scenario: "demb", MaxSteps: 200}, nil)
	wantAPIError(t, err, "budget_exceeded", 422)
}

// TestTuringDeadline504NoGoroutineLeak is the acceptance criterion: a 50ms
// deadline on the D_halt looping machine returns 504, and repeated timed-out
// requests leave no goroutines behind.
func TestTuringDeadline504NoGoroutineLeak(t *testing.T) {
	_, ts, c := newTestServer(t, server.Config{})
	ctx := context.Background()

	loopSrc, err := turing.SourceInstance(turing.LoopMachine())
	if err != nil {
		t.Fatal(err)
	}
	info, err := c.Register(ctx, api.RegisterRequest{
		Name:    "turing",
		Setting: parser.FormatSetting(turing.DHaltSetting()),
		Source:  parser.FormatInstance(loopSrc),
	})
	if err != nil {
		t.Fatal(err)
	}
	if info.WeaklyAcyclic || info.Chased {
		t.Fatalf("D_halt must register unchased: %+v", info)
	}

	// Warm up the connection pool, then measure the goroutine baseline.
	if _, err := c.Health(ctx); err != nil {
		t.Fatal(err)
	}
	ts.Client().CloseIdleConnections()
	time.Sleep(50 * time.Millisecond)
	baseline := runtime.NumGoroutine()

	for i := 0; i < 10; i++ {
		_, err = c.Chase(ctx, api.EvalRequest{Scenario: "turing", DeadlineMillis: 50})
		wantAPIError(t, err, "timeout", 504)
	}

	ts.Client().CloseIdleConnections()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: baseline %d, now %d", baseline, runtime.NumGoroutine())
}

// TestNoSolution404 exercises the 404-class mapping: an egd conflict on
// constants means no (CWA-)solution exists.
func TestNoSolution404(t *testing.T) {
	_, _, c := newTestServer(t, server.Config{})
	ctx := context.Background()

	if _, err := c.Register(ctx, api.RegisterRequest{
		Name: "conflict",
		Setting: `
source P/2.
target R/2.
st:
  d1: P(x,y) -> R(x,y).
target-deps:
  e1: R(x,y) & R(x,z) -> y = z.
`,
		Source: `P(a,b). P(a,c).`,
	}); err != nil {
		t.Fatal(err)
	}

	_, err := c.Core(ctx, api.EvalRequest{Scenario: "conflict"})
	wantAPIError(t, err, "no_solution", 404)

	// Exists is a decision, not a failure: it answers false with 200.
	exists, err := c.Exists(ctx, api.EvalRequest{Scenario: "conflict"})
	if err != nil || exists.Exists {
		t.Fatalf("exists = %+v, %v; want false, nil", exists, err)
	}
}

// TestAdmission503 fills the single worker slot with a slow chase and
// asserts the next request is shed with 503.
func TestAdmission503(t *testing.T) {
	_, _, c := newTestServer(t, server.Config{MaxConcurrent: 1, QueueDepth: -1})
	ctx := context.Background()

	registerQuickstart(t, c, "qs")
	loopSrc, err := turing.SourceInstance(turing.LoopMachine())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Register(ctx, api.RegisterRequest{
		Name:    "turing",
		Setting: parser.FormatSetting(turing.DHaltSetting()),
		Source:  parser.FormatInstance(loopSrc),
	}); err != nil {
		t.Fatal(err)
	}

	slow := make(chan error, 1)
	go func() {
		_, err := c.Chase(ctx, api.EvalRequest{Scenario: "turing", DeadlineMillis: 2000})
		slow <- err
	}()

	// Wait until the slow request holds the only slot.
	deadline := time.Now().Add(2 * time.Second)
	for {
		h, err := c.Health(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if h.InFlight == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("slow request never became in-flight")
		}
		time.Sleep(5 * time.Millisecond)
	}

	_, err = c.Core(ctx, api.EvalRequest{Scenario: "qs"})
	wantAPIError(t, err, "overloaded", 503)

	wantAPIError(t, <-slow, "timeout", 504)
}

func TestScenarioLRUEviction(t *testing.T) {
	_, _, c := newTestServer(t, server.Config{MaxScenarios: 2})
	ctx := context.Background()

	sources := []string{`M(a,b).`, `M(c,d).`, `M(e,f).`}
	for i, src := range sources {
		if _, err := c.Register(ctx, api.RegisterRequest{
			Name: "sc" + strconv.Itoa(i), Setting: quickstartSetting, Source: src,
		}); err != nil {
			t.Fatal(err)
		}
	}
	// sc0 is least recently used and must be gone.
	_, err := c.Core(ctx, api.EvalRequest{Scenario: "sc0"})
	wantAPIError(t, err, "unknown_scenario", 404)
	for _, id := range []string{"sc1", "sc2"} {
		if _, err := c.Core(ctx, api.EvalRequest{Scenario: id}); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
}

func TestDeleteAndDrain(t *testing.T) {
	srv, _, c := newTestServer(t, server.Config{})
	ctx := context.Background()

	registerQuickstart(t, c, "qs")
	if err := c.Delete(ctx, "qs"); err != nil {
		t.Fatal(err)
	}
	_, err := c.Core(ctx, api.EvalRequest{Scenario: "qs"})
	wantAPIError(t, err, "unknown_scenario", 404)

	// Re-registration after deletion works and recomputes.
	registerQuickstart(t, c, "qs")

	// Draining: new evaluation work is refused, health reports it.
	srv.BeginDrain()
	_, err = c.Core(ctx, api.EvalRequest{Scenario: "qs"})
	wantAPIError(t, err, "overloaded", 503)
	h, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !h.Draining || h.Status != "draining" {
		t.Fatalf("health during drain = %+v", h)
	}
}

func TestBadRequests(t *testing.T) {
	_, ts, c := newTestServer(t, server.Config{})
	ctx := context.Background()
	registerQuickstart(t, c, "qs")

	// Malformed JSON body.
	resp, err := ts.Client().Post(ts.URL+"/v1/core", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	var envelope api.Error
	json.NewDecoder(resp.Body).Decode(&envelope)
	resp.Body.Close()
	if resp.StatusCode != 400 || envelope.Err.Code != "usage" {
		t.Fatalf("malformed body: %d %+v", resp.StatusCode, envelope)
	}

	// Missing scenario field.
	_, err = c.Core(ctx, api.EvalRequest{})
	wantAPIError(t, err, "usage", 400)

	// Unknown semantics.
	_, err = c.Certain(ctx, api.EvalRequest{Scenario: "qs", Query: "q(x) :- E(x,y).", Semantics: "banana"})
	wantAPIError(t, err, "usage", 400)

	// Unparseable query.
	_, err = c.Certain(ctx, api.EvalRequest{Scenario: "qs", Query: ":-("})
	wantAPIError(t, err, "usage", 400)

	// Unparseable setting.
	_, err = c.Register(ctx, api.RegisterRequest{Setting: "party", Source: "M(a,b)."})
	wantAPIError(t, err, "usage", 400)

	// Name collision with different content.
	_, err = c.Register(ctx, api.RegisterRequest{Name: "qs", Setting: quickstartSetting, Source: `M(z,z).`})
	wantAPIError(t, err, "usage", 400)

	// Sources with nulls are rejected.
	_, err = c.Register(ctx, api.RegisterRequest{Setting: quickstartSetting, Source: `M(a,_1).`})
	wantAPIError(t, err, "usage", 400)
}

// TestChaseMemoServedToLaterRequests: a non-weakly-acyclic scenario whose
// chase nevertheless terminates memoizes its first successful result.
func TestChaseMemoServedToLaterRequests(t *testing.T) {
	_, _, c := newTestServer(t, server.Config{})
	ctx := context.Background()

	zigSrc, err := turing.SourceInstance(turing.ZigzagMachine(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Register(ctx, api.RegisterRequest{
		Name:    "zigzag",
		Setting: parser.FormatSetting(turing.DHaltSetting()),
		Source:  parser.FormatInstance(zigSrc),
	}); err != nil {
		t.Fatal(err)
	}
	first, err := c.Chase(ctx, api.EvalRequest{Scenario: "zigzag", MaxSteps: 200000})
	if err != nil {
		t.Fatal(err)
	}
	info, err := c.Scenario(ctx, "zigzag")
	if err != nil {
		t.Fatal(err)
	}
	if !info.Chased || info.ChaseSteps != first.Steps {
		t.Fatalf("scenario info after chase = %+v, want memoized %d steps", info, first.Steps)
	}
}

// chaseStepsMetric scrapes the chase_steps counter from /metricsz.
func chaseStepsMetric(t *testing.T, c *client.Client) int {
	t.Helper()
	text, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`(?m)^chase_steps (\d+)$`).FindStringSubmatch(text)
	if m == nil {
		t.Fatalf("/metricsz lacks chase_steps:\n%s", text)
	}
	n, _ := strconv.Atoi(m[1])
	return n
}

// TestExistsReadsTheEngine: /v1/exists answers from the scenario's chase
// state. A registered weakly acyclic scenario is already chased, so the
// answer costs no chase step. (TestNoSolution404 covers the false answer.)
func TestExistsReadsTheEngine(t *testing.T) {
	_, _, c := newTestServer(t, server.Config{})
	ctx := context.Background()
	registerQuickstart(t, c, "ex")
	before := chaseStepsMetric(t, c)
	res, err := c.Exists(ctx, api.EvalRequest{Scenario: "ex"})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exists {
		t.Fatal("Example 2.1 has a CWA-solution")
	}
	if after := chaseStepsMetric(t, c); after != before {
		t.Fatalf("/v1/exists on a chased scenario moved chase_steps %d -> %d", before, after)
	}
}
