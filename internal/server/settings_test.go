package server

// Tests for the setting table (settings.go): every path that builds a
// scenario — registration, cluster routing, page-in, boot recovery and
// handoff install — resolves its setting text through the table, so a
// setting some resident scenario uses is parsed once per server and shared
// by pointer; the entry goes with its last resident scenario.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/chase"
	"repro/internal/dependency"
	"repro/internal/metrics"
	"repro/internal/server/api"
	"repro/internal/status"
	"repro/internal/store"
)

// spacedSetting is abortSetting with different spacing: another submitted
// text with the same canonical form.
var spacedSetting = strings.ReplaceAll(abortSetting, " -> ", "  ->  ")

// exampleSource is the i-th source of abortSetting (Example 2.1's schema).
func exampleSource(i int) string {
	return fmt.Sprintf("M(a%d,b%d). N(a%d,b%d). N(a%d,c%d).", i, i, i, i, i, i)
}

func parses() int64 { return metrics.ServerSettingParses.Load() }

// residentSetting returns the parsed setting of a resident scenario.
func residentSetting(t *testing.T, r *registry, id string) *dependency.Setting {
	t.Helper()
	v, ok := r.scenarios.get(id)
	if !ok {
		t.Fatalf("scenario %q is not resident", id)
	}
	return v.(*scenario).setting()
}

// held returns the table's entry under key, or nil.
func held(r *registry, key string) *sharedSetting {
	r.settings.mu.Lock()
	defer r.settings.mu.Unlock()
	return r.settings.m[key]
}

func tableKeys(r *registry) int {
	r.settings.mu.Lock()
	defer r.settings.mu.Unlock()
	return len(r.settings.m)
}

func mustRegister(t *testing.T, r *registry, name, setting, source string) *scenario {
	t.Helper()
	sc, _, err := r.register(name, setting, source, chase.Options{})
	if err != nil {
		t.Fatalf("register %s: %v", name, err)
	}
	return sc
}

func TestSettingTableSharesEqualAndCanonicalTexts(t *testing.T) {
	r := newRegistry(8, 16, nil)
	p0 := parses()
	a := mustRegister(t, r, "a", abortSetting, exampleSource(1))
	if got := parses() - p0; got != 1 {
		t.Fatalf("first registration parsed %d times, want 1", got)
	}
	b := mustRegister(t, r, "b", abortSetting, exampleSource(2))
	if got := parses() - p0; got != 1 {
		t.Fatalf("a registration under a held text parsed again (%d parses)", got)
	}
	if a.setting() != b.setting() {
		t.Fatal("equal setting texts got two parsed settings")
	}

	canonical := a.shared.text
	if spacedSetting == abortSetting || spacedSetting == canonical {
		t.Fatal("spacedSetting must be a third text")
	}
	c := mustRegister(t, r, "c", spacedSetting, exampleSource(3))
	if c.setting() != a.setting() {
		t.Fatal("a differently formatted text of the same setting got its own parse")
	}
	mustRegister(t, r, "d", spacedSetting, exampleSource(4))
	if got := parses() - p0; got != 2 {
		t.Fatalf("%d parses for two distinct texts, want 2", got)
	}
	e := held(r, canonical)
	if e == nil || held(r, abortSetting) != e || held(r, spacedSetting) != e {
		t.Fatal("the entry is not held under the canonical and both submitted texts")
	}
	if e.refs != 4 || tableKeys(r) != 3 {
		t.Fatalf("refs %d and %d keys, want 4 refs under 3 keys", e.refs, tableKeys(r))
	}
	// A registration under the canonical text itself parses nothing.
	if mustRegister(t, r, "e", canonical, exampleSource(5)).setting() != a.setting() || parses()-p0 != 2 {
		t.Fatal("a registration under the canonical text did not use the held entry")
	}
}

func TestSettingTableEntryGoesWithLastScenario(t *testing.T) {
	r := newRegistry(8, 16, nil)
	mustRegister(t, r, "a", abortSetting, exampleSource(1))
	mustRegister(t, r, "b", abortSetting, exampleSource(2))
	c := mustRegister(t, r, "c", spacedSetting, exampleSource(3))
	canonical := c.shared.text
	drop := func(id string) {
		t.Helper()
		if ok, err := r.drop(id, false); err != nil || !ok {
			t.Fatalf("drop %s: ok=%v err=%v", id, ok, err)
		}
	}
	drop("c")
	if held(r, spacedSetting) != nil {
		t.Fatal("a submitted text outlived the last scenario registered with it")
	}
	drop("a")
	if e := held(r, canonical); e == nil || e.refs != 1 {
		t.Fatal("the entry left while a scenario still uses it")
	}
	drop("b")
	if n := tableKeys(r); n != 0 {
		t.Fatalf("%d keys left after the last scenario was deleted", n)
	}

	// Capacity eviction releases too.
	small := newRegistry(1, 16, nil)
	mustRegister(t, small, "a", abortSetting, exampleSource(1))
	mustRegister(t, small, "t", tinySetting, `S(a).`)
	if held(small, abortSetting) != nil || held(small, tinySetting) == nil {
		t.Fatal("capacity eviction did not release the evicted scenario's setting")
	}
}

// TestSettingTablePageInSharesResidentSibling: with one resident slot, "a"
// is paged out by "b" and paged back in while "b" holds the setting; the
// page-in reuses b's parse, and the entry survives b's eviction.
func TestSettingTablePageInSharesResidentSibling(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{Fsync: store.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	r := newRegistry(1, 16, st)
	p0 := parses()
	mustRegister(t, r, "a", abortSetting, exampleSource(1))
	mustRegister(t, r, "b", abortSetting, exampleSource(2))
	if _, ok := r.scenarios.get("a"); ok {
		t.Fatal("a is still resident")
	}
	sibling := residentSetting(t, r, "b")
	a, err := r.lookup("a")
	if err != nil {
		t.Fatal(err)
	}
	if a.setting() != sibling {
		t.Fatal("the page-in did not share its resident sibling's setting")
	}
	if got := parses() - p0; got != 1 {
		t.Fatalf("%d parses, want 1: the page-in parsed again", got)
	}
	if e := held(r, a.shared.text); e == nil || e.refs != 1 {
		t.Fatal("the entry did not stay with the paged-in scenario")
	}
}

func TestSettingTableBootRecoveryParsesOnce(t *testing.T) {
	dir := t.TempDir()
	st1, err := store.Open(dir, store.Options{Fsync: store.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	s1 := New(Config{Store: st1})
	for i := 0; i < 3; i++ {
		mustRegister(t, s1.reg, fmt.Sprintf("r%d", i), abortSetting, exampleSource(i))
	}
	if err := s1.CloseStore(); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(dir, store.Options{Fsync: store.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	p0 := parses()
	s2 := New(Config{Store: st2})
	defer s2.CloseStore()
	for deadline := time.Now().Add(10 * time.Second); st2.Recovering(); {
		if time.Now().After(deadline) {
			t.Fatal("boot recovery did not finish")
		}
		time.Sleep(time.Millisecond)
	}
	first := residentSetting(t, s2.reg, "r0")
	for _, id := range []string{"r1", "r2"} {
		if residentSetting(t, s2.reg, id) != first {
			t.Fatalf("recovered %s has its own parse of the shared setting", id)
		}
	}
	if got := parses() - p0; got != 1 {
		t.Fatalf("boot recovery parsed the setting %d times, want 1", got)
	}
}

func TestSettingTableHandoffInstallUsesHeldSetting(t *testing.T) {
	src := newClusterServer(t)
	block := store.EncodeState(mustRegister(t, src.reg, "g", abortSetting, exampleSource(1)).persistState())

	dst := newClusterServer(t)
	sibling := mustRegister(t, dst.reg, "h", abortSetting, exampleSource(2)).setting()
	p0 := parses()
	w := httptest.NewRecorder()
	dst.handleClusterTransfer(w, httptest.NewRequest("POST", "/v1/cluster/transfer?epoch=3", bytes.NewReader(block)))
	if w.Code != 200 {
		t.Fatalf("transfer: status %d: %s", w.Code, w.Body)
	}
	if residentSetting(t, dst.reg, "g") != sibling {
		t.Fatal("the installed scenario did not share the held setting")
	}
	if got := parses() - p0; got != 0 {
		t.Fatalf("the install parsed the setting %d times, want 0", got)
	}
}

// TestSettingTableClusterRouting: the routing layer derives an unnamed
// registration's content name through the table, so a held text is not
// parsed; a text no resident scenario uses is parsed but not kept.
func TestSettingTableClusterRouting(t *testing.T) {
	s := newClusterServer(t)
	want := mustRegister(t, s.reg, "x", abortSetting, exampleSource(1))
	route := func(setting string) string {
		t.Helper()
		body, err := json.Marshal(api.RegisterRequest{Setting: setting, Source: exampleSource(1)})
		if err != nil {
			t.Fatal(err)
		}
		w := httptest.NewRecorder()
		key, _, _, ok := s.routingKey(w, httptest.NewRequest("POST", "/v1/scenarios", bytes.NewReader(body)))
		if !ok {
			t.Fatalf("routing: %d %s", w.Code, w.Body)
		}
		return key
	}
	p0 := parses()
	if key := route(abortSetting); key != "c"+want.contentID {
		t.Fatalf("routed to %q, want c%s", key, want.contentID)
	}
	if got := parses() - p0; got != 0 {
		t.Fatalf("routing a held setting parsed it %d times", got)
	}
	keys := tableKeys(s.reg)
	if key := route(tinySetting); !strings.HasPrefix(key, "c") {
		t.Fatalf("routed to %q", key)
	}
	if got := parses() - p0; got != 1 || tableKeys(s.reg) != keys {
		t.Fatalf("routing a new setting: %d parses, %d keys (was %d); want 1 parse and no new key", got, tableKeys(s.reg), keys)
	}
}

// TestSettingTableConcurrentNewText: registrations racing on a text no
// scenario uses yet all end up on one parsed setting. The first half pins
// the interleaving (both parse before either acquires); the second races
// real registrations, for -race.
func TestSettingTableConcurrentNewText(t *testing.T) {
	tab := newSettingTable()
	x, err := tab.lookup(abortSetting)
	if err != nil {
		t.Fatal(err)
	}
	y, err := tab.lookup(spacedSetting)
	if err != nil {
		t.Fatal(err)
	}
	if x == y {
		t.Fatal("two misses returned one entry")
	}
	if tab.acquire(x, abortSetting) != x || tab.acquire(y, spacedSetting) != x {
		t.Fatal("the second parse to be acquired did not yield to the first")
	}

	const n = 16
	r := newRegistry(n, 16, nil)
	var wg sync.WaitGroup
	start := make(chan struct{})
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			if _, _, err := r.register(fmt.Sprintf("r%d", i), abortSetting, exampleSource(i), chase.Options{}); err != nil {
				errs <- err
			}
		}(i)
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	first := residentSetting(t, r, "r0")
	for i := 1; i < n; i++ {
		if residentSetting(t, r, fmt.Sprintf("r%d", i)) != first {
			t.Fatalf("r%d got its own parse of the shared text", i)
		}
	}
	if e := held(r, abortSetting); e == nil || e.setting != first || e.refs != n {
		t.Fatal("the table does not hold the shared setting with one reference per scenario")
	}
}

func TestSettingTableParseErrorNotCached(t *testing.T) {
	r := newRegistry(8, 16, nil)
	const bad = "source S/1.\ntarget T/1.\nst:\n  d1: S(x) -> U(x).\n"
	var msgs []string
	for i := 0; i < 2; i++ {
		_, _, err := r.register(fmt.Sprintf("bad%d", i), bad, `S(a).`, chase.Options{})
		if err == nil || status.Classify(err) != status.Usage {
			t.Fatalf("attempt %d: %v, want a usage error", i, err)
		}
		msgs = append(msgs, err.Error())
	}
	if msgs[0] != msgs[1] {
		t.Fatalf("the second attempt reported %q, the first %q", msgs[1], msgs[0])
	}
	if n := tableKeys(r); n != 0 {
		t.Fatalf("a failed parse left %d keys", n)
	}
}
