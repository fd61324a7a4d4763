package server_test

// Durable-store end-to-end tests: clean restart with zero WAL replay,
// crash recovery equivalence against an uninterrupted run, optimistic
// concurrency surviving a restart, and paging beyond the resident bound
// with byte-identical answers.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"testing"

	"repro/internal/hom"
	"repro/internal/parser"
	"repro/internal/server"
	"repro/internal/server/api"
	"repro/internal/server/client"
	"repro/internal/store"
)

func openTestStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir, store.Options{Fsync: store.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func sourceN(i int) string {
	return fmt.Sprintf("M(a%d,b%d). N(a%d,b%d). N(a%d,c%d).", i, i, i, i, i, i)
}

func TestDurableCleanRestartZeroReplay(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	st1 := openTestStore(t, dir)
	srv1, ts1, c1 := newTestServer(t, server.Config{Store: st1})
	var chased [3]api.ChaseResponse
	for i := range chased {
		info, err := c1.Register(ctx, api.RegisterRequest{
			Name: fmt.Sprintf("sc%d", i), Setting: quickstartSetting, Source: sourceN(i),
		})
		if err != nil {
			t.Fatal(err)
		}
		if !info.Chased {
			t.Fatalf("sc%d not eagerly chased: %+v", i, info)
		}
		if chased[i], err = c1.Chase(ctx, api.EvalRequest{Scenario: fmt.Sprintf("sc%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	mres, err := c1.Insert(ctx, "sc1", api.MutateRequest{Tuples: "M(zz,ww)."})
	if err != nil {
		t.Fatal(err)
	}
	if chased[1], err = c1.Chase(ctx, api.EvalRequest{Scenario: "sc1"}); err != nil {
		t.Fatal(err)
	}
	srv1.BeginDrain()
	if err := srv1.CloseStore(); err != nil {
		t.Fatal(err)
	}
	ts1.Close()

	st2 := openTestStore(t, dir)
	if r := st2.Stats().Replayed; r != 0 {
		t.Fatalf("restart after clean shutdown replayed %d WAL records, want 0", r)
	}
	if st2.Stats().Scenarios != 3 {
		t.Fatalf("recovered %d scenarios, want 3", st2.Stats().Scenarios)
	}
	_, ts2, c2 := newTestServer(t, server.Config{Store: st2})
	h, err := c2.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !h.Durable || h.StoreScenarios != 3 || h.Replayed != 0 {
		t.Fatalf("healthz after clean restart = %+v, want durable with 3 stored scenarios and 0 replayed", h)
	}

	// Every scenario, the mutated one included, answers byte-identically:
	// the persisted fixpoint is resumed, not re-derived.
	for i := range chased {
		res, err := c2.Chase(ctx, api.EvalRequest{Scenario: fmt.Sprintf("sc%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		if res.Universal != chased[i].Universal || res.Steps != chased[i].Steps {
			t.Fatalf("sc%d chase diverged across clean restart:\n was %+v\n now %+v", i, chased[i], res)
		}
	}
	// The mutated scenario kept its version and identity, so a stale
	// base_version still conflicts.
	info, err := c2.Scenario(ctx, "sc1")
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != mres.Version {
		t.Fatalf("sc1 recovered at version %d, want %d", info.Version, mres.Version)
	}
	_, err = c2.Insert(ctx, "sc1", api.MutateRequest{Tuples: "M(q,r).", BaseVersion: mres.Version - 1})
	wantAPIError(t, err, "conflict", http.StatusConflict)
	// Re-registering identical content dedupes against the recovered catalog.
	again, err := c2.Register(ctx, api.RegisterRequest{Setting: quickstartSetting, Source: sourceN(0)})
	if err != nil {
		t.Fatal(err)
	}
	if !again.Existing || again.ID != "sc0" {
		t.Fatalf("content dedup lost across restart: %+v", again)
	}

	// Mutate at the current base_version, then crash: recovery replays the
	// post-snapshot WAL tail on top of the snapshot the clean shutdown wrote.
	mres2, err := c2.Insert(ctx, "sc1", api.MutateRequest{Tuples: "M(q,r).", BaseVersion: mres.Version})
	if err != nil {
		t.Fatal(err)
	}
	if mres2.Version != mres.Version+1 {
		t.Fatalf("insert at current base_version gave version %d, want %d", mres2.Version, mres.Version+1)
	}
	ts2.Close()

	st3 := openTestStore(t, dir)
	if st3.Stats().Replayed == 0 {
		t.Fatal("crash after a snapshot should have replayed the WAL tail")
	}
	_, _, c3 := newTestServer(t, server.Config{Store: st3})
	h, err = c3.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !h.Durable || h.StoreScenarios != 3 || h.Replayed == 0 {
		t.Fatalf("healthz after crash restart = %+v, want durable with 3 stored scenarios and a replayed WAL tail", h)
	}
	if info, err = c3.Scenario(ctx, "sc1"); err != nil {
		t.Fatal(err)
	}
	if info.Version != mres.Version+1 {
		t.Fatalf("sc1 recovered at version %d after crash, want %d", info.Version, mres.Version+1)
	}
}

// TestDurableConflictAcrossRestart is the optimistic-concurrency
// regression: mutate, restart, and a base_version pinned to the stale
// version must still be rejected with 409/conflict.
func TestDurableConflictAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	st1 := openTestStore(t, dir)
	_, ts1, c1 := newTestServer(t, server.Config{Store: st1})
	info, err := c1.Register(ctx, api.RegisterRequest{Name: "s", Setting: quickstartSetting, Source: sourceN(0)})
	if err != nil {
		t.Fatal(err)
	}
	mres, err := c1.Insert(ctx, "s", api.MutateRequest{Tuples: "M(p,q).", BaseVersion: info.Version})
	if err != nil {
		t.Fatal(err)
	}
	// Crash: no CloseStore, no snapshot — recovery comes from the WAL.
	ts1.Close()

	st2 := openTestStore(t, dir)
	if st2.Stats().Replayed == 0 {
		t.Fatal("crash restart should have replayed WAL records")
	}
	_, _, c2 := newTestServer(t, server.Config{Store: st2})

	var apiErr *client.APIError
	if _, err := c2.Insert(ctx, "s", api.MutateRequest{Tuples: "M(r,t).", BaseVersion: info.Version}); !errors.As(err, &apiErr) || apiErr.Code != "conflict" {
		t.Fatalf("stale base_version after restart: want conflict, got %v", err)
	}
	if _, err := c2.Insert(ctx, "s", api.MutateRequest{Tuples: "M(r,t).", BaseVersion: mres.Version}); err != nil {
		t.Fatalf("current base_version after restart rejected: %v", err)
	}
}

// TestDurableCrashMatchesUninterrupted drives the same workload against a
// crashed-and-recovered server and an uninterrupted in-memory one:
// certain-answer and existence responses must be byte-identical, chase
// results homomorphically equivalent.
func TestDurableCrashMatchesUninterrupted(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	const n = 4
	q := `q(x,y) :- E(x,y).`

	register := func(c *client.Client) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := c.Register(ctx, api.RegisterRequest{
				Name: fmt.Sprintf("w%d", i), Setting: quickstartSetting, Source: sourceN(i),
			}); err != nil {
				t.Fatal(err)
			}
		}
		// Mutate half of them so recovery exercises both the resume path
		// (clean fixpoint) and the fold-and-re-chase path.
		for i := 0; i < n; i += 2 {
			if _, err := c.Insert(ctx, fmt.Sprintf("w%d", i), api.MutateRequest{
				Tuples: fmt.Sprintf("M(extra%d,b%d). N(extra%d,b%d).", i, i, i, i),
			}); err != nil {
				t.Fatal(err)
			}
		}
	}

	st1 := openTestStore(t, dir)
	_, ts1, c1 := newTestServer(t, server.Config{Store: st1})
	register(c1)
	ts1.Close() // crash: nothing flushed beyond the appends themselves

	st2 := openTestStore(t, dir)
	_, _, crashed := newTestServer(t, server.Config{Store: st2})
	_, _, mem := newTestServer(t, server.Config{})
	register(mem)

	for i := 0; i < n; i++ {
		id := fmt.Sprintf("w%d", i)
		gotC, err := crashed.Certain(ctx, api.EvalRequest{Scenario: id, Query: q, Semantics: "certain-cup"})
		if err != nil {
			t.Fatal(err)
		}
		wantC, err := mem.Certain(ctx, api.EvalRequest{Scenario: id, Query: q, Semantics: "certain-cup"})
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(gotC.Answers) != fmt.Sprint(wantC.Answers) {
			t.Fatalf("%s certain answers diverged: %v vs %v", id, gotC.Answers, wantC.Answers)
		}
		gotE, err := crashed.Exists(ctx, api.EvalRequest{Scenario: id})
		if err != nil {
			t.Fatal(err)
		}
		wantE, err := mem.Exists(ctx, api.EvalRequest{Scenario: id})
		if err != nil {
			t.Fatal(err)
		}
		if gotE.Exists != wantE.Exists {
			t.Fatalf("%s exists diverged", id)
		}
		gotU, err := crashed.Chase(ctx, api.EvalRequest{Scenario: id})
		if err != nil {
			t.Fatal(err)
		}
		wantU, err := mem.Chase(ctx, api.EvalRequest{Scenario: id})
		if err != nil {
			t.Fatal(err)
		}
		a, err := parser.ParseInstance(gotU.Universal)
		if err != nil {
			t.Fatal(err)
		}
		b, err := parser.ParseInstance(wantU.Universal)
		if err != nil {
			t.Fatal(err)
		}
		// Universal solutions are unique up to homomorphic equivalence, and
		// their cores up to isomorphism.
		if !hom.Exists(a, b) || !hom.Exists(b, a) {
			t.Fatalf("%s chase results not hom-equivalent:\n%s\nvs\n%s", id, gotU.Universal, wantU.Universal)
		}
		gotCore, err := crashed.Core(ctx, api.EvalRequest{Scenario: id})
		if err != nil {
			t.Fatal(err)
		}
		wantCore, err := mem.Core(ctx, api.EvalRequest{Scenario: id})
		if err != nil {
			t.Fatal(err)
		}
		ac, err := parser.ParseInstance(gotCore.Instance)
		if err != nil {
			t.Fatal(err)
		}
		bc, err := parser.ParseInstance(wantCore.Instance)
		if err != nil {
			t.Fatal(err)
		}
		if !hom.Isomorphic(ac, bc) {
			t.Fatalf("%s cores not isomorphic:\n%s\nvs\n%s", id, gotCore.Instance, wantCore.Instance)
		}
	}
}

// TestDurablePagingBeyondResidency registers more scenarios than the
// resident bound; evicted ones must page out and answer identically when
// paged back in.
func TestDurablePagingBeyondResidency(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	const n = 6

	st := openTestStore(t, dir)
	srv, _, c := newTestServer(t, server.Config{Store: st, MaxScenarios: 2})
	first := make([]api.ChaseResponse, n)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("p%d", i)
		if _, err := c.Register(ctx, api.RegisterRequest{Name: id, Setting: quickstartSetting, Source: sourceN(i)}); err != nil {
			t.Fatal(err)
		}
		var err error
		if first[i], err = c.Chase(ctx, api.EvalRequest{Scenario: id}); err != nil {
			t.Fatal(err)
		}
	}
	if srv.Scenarios() > 2 {
		t.Fatalf("resident bound not enforced: %d", srv.Scenarios())
	}
	if st.Stats().Scenarios != n {
		t.Fatalf("catalog lost scenarios: %d, want %d", st.Stats().Scenarios, n)
	}
	for i := 0; i < n; i++ {
		res, err := c.Chase(ctx, api.EvalRequest{Scenario: fmt.Sprintf("p%d", i)})
		if err != nil {
			t.Fatalf("p%d after paging: %v", i, err)
		}
		if res.Universal != first[i].Universal {
			t.Fatalf("p%d answer changed after page-out/page-in:\n%s\nvs\n%s", i, res.Universal, first[i].Universal)
		}
	}
	// DELETE must remove a paged-out scenario from the catalog too.
	if err := c.Delete(ctx, "p0"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Chase(ctx, api.EvalRequest{Scenario: "p0"}); err == nil {
		t.Fatal("deleted scenario still answers")
	}
	if st.Has("p0") {
		t.Fatal("deleted scenario still cataloged")
	}
}

// TestMemoryOnlyUnchanged: without a store the health endpoint does not
// advertise durability and unknown scenarios still 404.
func TestMemoryOnlyUnchanged(t *testing.T) {
	ctx := context.Background()
	_, _, c := newTestServer(t, server.Config{})
	registerQuickstart(t, c, "mem")
	h, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Durable || h.StoreScenarios != 0 || h.Recovering {
		t.Fatalf("memory-only server advertises durability: %+v", h)
	}
	var apiErr *client.APIError
	if _, err := c.Chase(ctx, api.EvalRequest{Scenario: "nope"}); !errors.As(err, &apiErr) || apiErr.Code != "unknown_scenario" {
		t.Fatalf("want unknown_scenario, got %v", err)
	}
}

// cyclicSetting is not weakly acyclic, yet its chase of R(a,a) terminates:
// T(a,a) satisfies t1.
const cyclicSetting = `
source R/2.
target T/2.
st:
  s1: R(x,y) -> T(x,y).
target-deps:
  t1: T(x,y) -> exists z : T(y,z).
`

// TestDurableNonWeaklyAcyclicKeepsItsChase: a scenario whose setting is not
// weakly acyclic persists its chase like any other — the σ ∪ τ fixpoint the
// engine resumes — and after a clean restart answers /v1/chase with the
// same universal solution and steps without chasing again.
func TestDurableNonWeaklyAcyclicKeepsItsChase(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	st1 := openTestStore(t, dir)
	srv1, ts1, c1 := newTestServer(t, server.Config{Store: st1})
	info, err := c1.Register(ctx, api.RegisterRequest{Name: "cyc", Setting: cyclicSetting, Source: `R(a,a).`})
	if err != nil {
		t.Fatal(err)
	}
	if info.WeaklyAcyclic || info.Chased {
		t.Fatalf("cyclic scenario must register unchased: %+v", info)
	}
	first, err := c1.Chase(ctx, api.EvalRequest{Scenario: "cyc"})
	if err != nil {
		t.Fatal(err)
	}
	srv1.BeginDrain()
	if err := srv1.CloseStore(); err != nil {
		t.Fatal(err)
	}
	ts1.Close()

	st2 := openTestStore(t, dir)
	saved, err := st2.Load("cyc")
	if err != nil {
		t.Fatal(err)
	}
	if saved.Fixpoint == nil || !saved.Fixpoint.Has(saved.Source.Atoms()[0]) {
		t.Fatalf("persisted fixpoint is not over σ ∪ τ: %v", saved.Fixpoint)
	}
	_, _, c2 := newTestServer(t, server.Config{Store: st2})
	got, err := c2.Scenario(ctx, "cyc")
	if err != nil {
		t.Fatal(err)
	}
	if !got.Chased || got.ChaseSteps != first.Steps {
		t.Fatalf("scenario after restart = %+v, want chased with %d steps", got, first.Steps)
	}
	before := chaseStepsMetric(t, c2)
	again, err := c2.Chase(ctx, api.EvalRequest{Scenario: "cyc"})
	if err != nil {
		t.Fatal(err)
	}
	if again.Universal != first.Universal || again.Steps != first.Steps {
		t.Fatalf("chase diverged across restart:\n was %+v\n now %+v", first, again)
	}
	if after := chaseStepsMetric(t, c2); after != before {
		t.Fatalf("chase after restart ran %d chase steps, want none", after-before)
	}
}

// TestDurableTargetOnlyFixpointIsRechased: earlier builds persisted only
// the τ-reduct as the fixpoint of a scenario whose setting is not weakly
// acyclic. Such a state is not resumed: the scenario comes back unchased
// and its first request chases the source.
func TestDurableTargetOnlyFixpointIsRechased(t *testing.T) {
	ctx := context.Background()
	s, err := parser.ParseSetting(cyclicSetting)
	if err != nil {
		t.Fatal(err)
	}
	src, err := parser.ParseInstance(`R(a,a).`)
	if err != nil {
		t.Fatal(err)
	}
	tau, err := parser.ParseInstance(`T(a,a).`)
	if err != nil {
		t.Fatal(err)
	}
	st := openTestStore(t, t.TempDir())
	if err := st.Register(&store.State{
		ID: "old", ContentID: "old", SettingText: parser.FormatSetting(s),
		InitVersion: src.Version(), Steps: 1, Source: src, Fixpoint: tau,
	}); err != nil {
		t.Fatal(err)
	}
	_, _, c := newTestServer(t, server.Config{Store: st})
	info, err := c.Scenario(ctx, "old")
	if err != nil {
		t.Fatal(err)
	}
	if info.Chased {
		t.Fatalf("τ-only fixpoint was resumed: %+v", info)
	}
	res, err := c.Chase(ctx, api.EvalRequest{Scenario: "old"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Atoms != 1 || res.Steps != 1 {
		t.Fatalf("chase of R(a,a) = %+v, want T(a,a) in one step", res)
	}
}
