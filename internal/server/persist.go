package server

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/chase"
	"repro/internal/incr"
	"repro/internal/status"
	"repro/internal/store"
)

// This file is the registry's durable-store glue: capturing a resident
// scenario's persistable state, rehydrating a cataloged scenario on a
// lookup miss (single-flight), and seeding identity state (content dedup,
// the generated-name counter) from the catalog at boot. With no store
// configured none of it runs — the registry behaves exactly as before.

// persistState captures the scenario's durable form. Source and fixpoint
// come from one engine critical section (a torn pair would resume into a
// silently non-universal state); the fixpoint is the σ ∪ τ chase fixpoint,
// nil when the engine holds none (unchased or no-solution).
func (sc *scenario) persistState() *store.State {
	st := &store.State{
		ID:          sc.id,
		ContentID:   sc.contentID,
		SettingText: sc.shared.text,
		InitVersion: sc.initVersion,
	}
	st.Source, st.Fixpoint, st.Steps = sc.engine.PersistSnapshot()
	return st
}

// scenarioFromState rebuilds a resident scenario from its durable form.
// A persisted fixpoint is resumed by the incremental engine — no re-chase;
// without one (the state had unfolded mutations, or the engine held no
// fixpoint at capture) the engine is built like a fresh registration's,
// chasing under opt when the setting is weakly acyclic. The setting comes
// from the setting table, so a state whose setting some resident scenario
// uses is not parsed again. The engine takes ownership of st's instances.
// The scenario holds a setting reference: the caller makes it resident or
// discards it.
func (r *registry) scenarioFromState(st *store.State, opt chase.Options) (*scenario, error) {
	shared, err := r.settings.lookup(st.SettingText)
	if err != nil {
		return nil, fmt.Errorf("server: rehydrating %q: %w", st.ID, err)
	}
	shared = r.settings.acquire(shared, st.SettingText)
	var eng *incr.Engine
	if st.Fixpoint != nil {
		eng, err = incr.Resume(shared.setting, st.Source, st.Fixpoint, st.Steps)
	} else {
		// A chase cut short leaves the engine unchased, not broken.
		eng, err = incr.New(shared.setting, st.Source, opt)
	}
	if eng == nil {
		r.settings.release(shared, st.SettingText)
		return nil, fmt.Errorf("server: rehydrating %q: %w", st.ID, err)
	}
	return newScenario(st.ID, st.ContentID, shared, st.SettingText, eng, st.InitVersion), nil
}

// load tracks one in-flight rehydration so concurrent lookups of the same
// paged-out scenario share a single disk read and resume.
type load struct {
	done chan struct{}
	sc   *scenario
	err  error
}

// rehydrate brings a cataloged-but-not-resident scenario back into the
// registry, single-flighting concurrent callers.
func (r *registry) rehydrate(id string) (*scenario, error) {
	r.mu.Lock()
	if l, ok := r.loads[id]; ok {
		r.mu.Unlock()
		<-l.done
		return l.sc, l.err
	}
	if v, ok := r.scenarios.get(id); ok {
		r.mu.Unlock()
		return v.(*scenario), nil
	}
	l := &load{done: make(chan struct{})}
	r.loads[id] = l
	r.mu.Unlock()

	l.sc, l.err = r.loadScenario(id)
	if l.err == nil {
		r.putScenario(l.sc)
	}
	r.mu.Lock()
	delete(r.loads, id)
	r.mu.Unlock()
	close(l.done)
	return l.sc, l.err
}

func (r *registry) loadScenario(id string) (*scenario, error) {
	st, err := r.store.Load(id)
	if err != nil {
		if !r.store.Has(id) { // dropped while we were waiting
			return nil, fmt.Errorf("%w: %q", errUnknownScenario, id)
		}
		return nil, status.WithKind(fmt.Errorf("server: rehydrating %q: %w", id, err), status.Internal)
	}
	sc, err := r.scenarioFromState(st, chase.Options{})
	if err != nil {
		return nil, status.WithKind(err, status.Internal)
	}
	return sc, nil
}

// seedFromStore restores the identity state the catalog implies: pristine
// scenarios re-enter the content-dedup map (mutated ones diverged from
// their registered content, exactly as live mutation removes them), and
// the generated-name counter advances past every recovered "sN" so new
// registrations never collide with recovered ones.
func (r *registry) seedFromStore() {
	if r.store == nil {
		return
	}
	for _, id := range r.store.IDs() {
		meta, ok := r.store.GetMeta(id)
		if !ok {
			continue
		}
		if meta.Version == meta.InitVersion {
			r.byContent[meta.ContentID] = id
		}
		if n, ok := generatedID(id); ok && n > r.nextID {
			r.nextID = n
		}
	}
}

func generatedID(id string) (int, bool) {
	if !strings.HasPrefix(id, "s") {
		return 0, false
	}
	n, err := strconv.Atoi(id[1:])
	if err != nil || n <= 0 {
		return 0, false
	}
	return n, true
}

// captureResident is the snapshot capture hook: resident scenarios
// contribute their live state (current fixpoint folded in, pending
// mutation batches gone from their snapshot block); the rest are carried
// over by byte copy inside the store.
func (r *registry) captureResident(id string) *store.State {
	v, ok := r.scenarios.get(id)
	if !ok {
		return nil
	}
	return v.(*scenario).persistState()
}

// snapshotNow writes a store snapshot of the full catalog and compacts the
// WAL behind it.
func (r *registry) snapshotNow() error {
	if r.store == nil {
		return nil
	}
	return r.store.Snapshot(r.captureResident)
}
