package server

// Regression tests for the registry's result-cache hygiene: every path a
// scenario leaves by must clean up after it. Deleting a scenario used to
// bypass the eviction hook (lru.remove/removeIf skipped onEvict), which
// could leave mutated-namespace result entries behind; a later scenario
// re-registered under the same name restarts the version counter, so a
// stale entry could answer for different content.

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/chase"
	"repro/internal/status"
	"repro/internal/store"
)

const tinySetting = `
source S/1.
target T/1.
st:
  d1: S(x) -> T(x).
`

func TestDropPurgesResultCache(t *testing.T) {
	r := newRegistry(4, 16, nil)
	sc, reused, err := r.register("s", tinySetting, `S(a).`, chase.Options{})
	if err != nil || reused {
		t.Fatalf("register: reused=%v err=%v", reused, err)
	}

	contentKey := resultKey(sc, "core")
	mutKey := mutatedNamespace(sc.id) + sc.contentID + "\x00v9\x00core"
	otherKey := "othercontent\x00v1\x00core"
	r.results.put(contentKey, []byte("cached"))
	r.results.put(mutKey, []byte("stale"))
	r.results.put(otherKey, []byte("keep"))

	if ok, err := r.drop("s", false); err != nil || !ok {
		t.Fatalf("drop: ok=%v err=%v", ok, err)
	}
	if _, err := r.lookup("s"); err == nil {
		t.Fatal("scenario still resident after drop")
	}
	if _, ok := r.results.get(contentKey); ok {
		t.Fatal("content-keyed result survived an explicit DELETE")
	}
	if _, ok := r.results.get(mutKey); ok {
		t.Fatal("mutated-namespace result survived an explicit DELETE")
	}
	if _, ok := r.results.get(otherKey); !ok {
		t.Fatal("unrelated result was purged by drop")
	}
}

func TestCapacityEvictionPurgesMutatedNamespace(t *testing.T) {
	r := newRegistry(1, 16, nil) // one resident scenario: the next register evicts
	sc, _, err := r.register("a", tinySetting, `S(a).`, chase.Options{})
	if err != nil {
		t.Fatalf("register a: %v", err)
	}
	contentKey := resultKey(sc, "core")
	mutKey := mutatedNamespace("a") + sc.contentID + "\x00v9\x00core"
	r.results.put(contentKey, []byte("cached"))
	r.results.put(mutKey, []byte("stale"))

	// Same content under a different name: a fresh scenario that evicts "a".
	if _, _, err := r.register("b", tinySetting, `S(a).`, chase.Options{}); err != nil {
		t.Fatalf("register b: %v", err)
	}
	if _, err := r.lookup("a"); err == nil {
		t.Fatal("a still resident after capacity eviction")
	}
	if _, ok := r.results.get(mutKey); ok {
		t.Fatal("mutated-namespace result survived the eviction")
	}
	// Content-keyed results are pure functions of (content, version) and
	// deliberately outlive the scenario, so re-registered content re-hits.
	if _, ok := r.results.get(contentKey); !ok {
		t.Fatal("content-keyed result should survive a capacity eviction")
	}
}

// TestRegisterNameRace races 16 registrations of one name. With different
// contents exactly one is acknowledged and the rest get the usual
// different-content usage error, so no acknowledged registration is
// silently replaced. With identical contents one builds the scenario and
// the rest return it as existing. Either way the store journals exactly
// one registration record.
func TestRegisterNameRace(t *testing.T) {
	const racers = 16
	for _, same := range []bool{false, true} {
		dir := t.TempDir()
		st, err := store.Open(dir, store.Options{Fsync: store.SyncOff})
		if err != nil {
			t.Fatal(err)
		}
		r := newRegistry(racers, 16, st)
		type outcome struct {
			sc      *scenario
			reused  bool
			err     error
			content string
		}
		out := make([]outcome, racers)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < racers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				src := fmt.Sprintf("S(a%d).", g)
				if same {
					src = "S(a)."
				}
				<-start
				sc, reused, err := r.register("x", tinySetting, src, chase.Options{})
				out[g] = outcome{sc, reused, err, src}
			}(g)
		}
		close(start)
		wg.Wait()

		built := 0
		var winner outcome
		for g, o := range out {
			switch {
			case o.err == nil && !o.reused:
				built++
				winner = o
			case o.err == nil:
				if !same {
					t.Errorf("same=%v racer %d: reused a scenario of other content", same, g)
				}
			case status.Classify(o.err) != status.Usage || !strings.Contains(o.err.Error(), "different content"):
				t.Errorf("same=%v racer %d: %v, want the different-content usage error", same, g, o.err)
			case same:
				t.Errorf("same=%v racer %d: refused identical content: %v", same, g, o.err)
			}
		}
		if built != 1 {
			t.Fatalf("same=%v: %d registrations built a scenario, want 1", same, built)
		}
		for g, o := range out {
			if o.err == nil && o.sc != winner.sc {
				t.Errorf("same=%v racer %d: got a different scenario than the one built", same, g)
			}
		}
		resident, err := r.lookup("x")
		if err != nil || resident != winner.sc {
			t.Fatalf("same=%v: resident x is %p (%v), want the acknowledged %p", same, resident, err, winner.sc)
		}
		if got := resident.engine.SourceSnapshot().String(); !strings.Contains(got, strings.TrimSuffix(winner.content, ".")) {
			t.Fatalf("same=%v: resident source %s, want the acknowledged %s", same, got, winner.content)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		reopened, err := store.Open(dir, store.Options{Fsync: store.SyncOff})
		if err != nil {
			t.Fatal(err)
		}
		if n := reopened.Stats().Replayed; n != 1 {
			t.Fatalf("same=%v: the store journaled %d records, want 1 registration", same, n)
		}
		reopened.Close()
	}
}
