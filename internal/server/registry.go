package server

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"repro/internal/chase"
	"repro/internal/cwa"
	"repro/internal/dependency"
	"repro/internal/incr"
	"repro/internal/instance"
	"repro/internal/metrics"
	"repro/internal/parser"
	"repro/internal/score"
	"repro/internal/status"
	"repro/internal/store"
)

// errUnknownScenario is returned when a request names a scenario that is
// not registered (or was evicted); the handler maps it to HTTP 404 with
// code "unknown_scenario".
var errUnknownScenario = errors.New("server: unknown scenario")

// scenario is one registered (setting, source) pair. Its setting is the
// server's shared parse of the setting text (settings.go): one
// *dependency.Setting per distinct setting, shared with every other
// resident scenario built on it, so its memoised plans and acyclicity
// answers are compiled once per server rather than once per scenario or
// page-in. The scenario's incremental engine holds its source
// and its one chase state; the core and the canonical solution, which the
// engine does not hold, are memoized here under a per-scenario mutex: the
// first request computes under its own deadline, later requests reuse the
// result, and concurrent duplicates block on the mutex instead of
// recomputing (single-flight). Locks are taken in the order sc.mu, then
// the engine's.
type scenario struct {
	id string
	// contentID identifies the scenario by content: a hash of the
	// canonical setting text and the source's ContentKey. Result-cache
	// entries key on it, so re-registering identical content (even under a
	// new name, even after an eviction) keeps hitting the same cache
	// lines.
	contentID string
	// rawHash fingerprints the setting/source texts exactly as submitted
	// at registration. A named re-registration with byte-identical texts
	// is a dedup hit without re-parsing — the hot path for cluster members
	// that see the same registration storm through every entry node.
	rawHash [32]byte
	// shared is the setting table's entry, on which the scenario holds one
	// reference taken under sharedKey, the setting text it was built from.
	// The registry's eviction hook releases it.
	shared    *sharedSetting
	sharedKey string
	// engine owns the source and the chase result and keeps them current
	// under source mutations. Weakly acyclic settings are chased eagerly;
	// any other setting is chased by the first request that needs it,
	// under that request's deadline and budget.
	engine *incr.Engine
	// initVersion is the source version at registration. A scenario whose
	// current version differs has been mutated: its content no longer
	// matches contentID, so it leaves the content-dedup map and its result
	// keys move to a per-scenario namespace.
	initVersion uint64

	// mutMu serializes mutation batches (version check through cache
	// purge), single-flighting concurrent mutators. During a membership
	// transfer window it additionally serializes the handoff capture+push
	// against mutations, and guards movedTo.
	mutMu sync.Mutex
	// movedTo, when non-empty, names the member this scenario was handed
	// off to during the open transfer window. Guarded by mutMu; set only
	// after the new owner acknowledged the install, so a mutation that
	// observes it can safely forward there.
	movedTo string

	mu     sync.Mutex // guards the memos below
	core   *instance.Instance
	cansol *instance.Instance
}

// newScenario builds a scenario around its engine, on a setting reference
// taken with settingTable.acquire(shared, sharedKey).
func newScenario(id, contentID string, shared *sharedSetting, sharedKey string, eng *incr.Engine, initVersion uint64) *scenario {
	return &scenario{
		id:          id,
		contentID:   contentID,
		shared:      shared,
		sharedKey:   sharedKey,
		engine:      eng,
		initVersion: initVersion,
	}
}

// setting returns the scenario's parsed setting.
func (sc *scenario) setting() *dependency.Setting { return sc.shared.setting }

// version returns the scenario's current source version (monotone: +1 per
// source atom actually inserted or removed).
func (sc *scenario) version() uint64 { return sc.engine.Version() }

// mutated reports whether any mutation batch has changed the source since
// registration (versions only move forward, so equality means pristine).
func (sc *scenario) mutated() bool {
	return sc.version() != sc.initVersion
}

// chaseFor returns the scenario's universal solution and the chase steps
// behind it. The engine's maintained fixpoint is the chase result, so a
// request after a mutation pays only the delta the mutation left behind,
// not a re-chase. The options carry the request's context and budget,
// under which an unchased engine chases.
func (sc *scenario) chaseFor(opt chase.Options) (universal *instance.Instance, steps int, err error) {
	u, err := sc.engine.Solution(opt)
	if err != nil {
		return nil, 0, err
	}
	return u, sc.engine.Status().Steps, nil
}

// coreFor returns the minimal CWA-solution Core_D(S), memoized on success.
// score.Core copies its input, so it runs on the engine's view in place.
func (sc *scenario) coreFor(opt chase.Options) (*instance.Instance, error) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if sc.core == nil {
		err := sc.engine.View(opt, func(u *instance.Instance) { sc.core = score.Core(u) })
		if err != nil {
			return nil, cwa.NoSolution(err)
		}
	}
	return sc.core, nil
}

// cansolFor returns the canonical solution CanSol_D(S), memoized on
// success.
func (sc *scenario) cansolFor(opt chase.Options) (*instance.Instance, error) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if sc.cansol == nil {
		can, err := cwa.CanSol(sc.setting(), sc.engine.SourceSnapshot(), opt)
		if err != nil {
			return nil, err
		}
		sc.cansol = can
	}
	return sc.cansol, nil
}

// exists decides whether the scenario's source has a CWA-solution. By
// Corollary 5.2 that holds exactly when a universal solution exists, so it
// reads the engine's chase state: an egd failure means no.
func (sc *scenario) exists(opt chase.Options) (bool, error) {
	err := sc.engine.View(opt, func(*instance.Instance) {})
	if chase.IsEgdFailure(err) {
		return false, nil
	}
	return err == nil, err
}

// scenarioSolutions supplies the certain-answer planner (certain.AnswersOn)
// with the scenario's maintained solutions under one request's options: the
// core and CanSol from their memos, and the universal solution in place
// from the incremental engine, which copies and memoises nothing for it.
type scenarioSolutions struct {
	sc  *scenario
	opt chase.Options
}

func (p scenarioSolutions) Source() *instance.Instance { return p.sc.engine.SourceSnapshot() }

func (p scenarioSolutions) Universal(f func(*instance.Instance)) error {
	return cwa.NoSolution(p.sc.engine.View(p.opt, f))
}

func (p scenarioSolutions) Core() (*instance.Instance, error) { return p.sc.coreFor(p.opt) }

func (p scenarioSolutions) CanSol() (*instance.Instance, error) { return p.sc.cansolFor(p.opt) }

// registry holds the resident scenarios (LRU-bounded) and the result cache
// (serialized successful response bodies, LRU-bounded, keyed by content).
type registry struct {
	scenarios *lru // scenario ID -> *scenario
	results   *lru // contentID + endpoint + params -> []byte response body
	settings  *settingTable

	// store, when non-nil, makes the registry durable: registrations and
	// mutations are journaled before acknowledgement, capacity evictions
	// page state to disk instead of forgetting it, and lookup misses
	// rehydrate from the catalog (persist.go).
	store *store.Store

	// moved, when non-nil, reports the member a scenario was handed off to
	// during an open transfer window ("" = not handed off). drop consults
	// it on the non-resident path, where no scenario carries a movedTo
	// mark: a handed-off copy that was LRU-evicted mid-window must still
	// refuse a local DELETE. Cluster mode wires it to the server's handed
	// map.
	moved func(id string) string

	mu        sync.Mutex
	byContent map[string]string       // contentID -> scenario ID
	loads     map[string]*load        // in-flight rehydrations, single-flighted
	reserved  map[string]*reservation // names of in-flight registrations
	nextID    int
}

func newRegistry(maxScenarios, maxResults int, st *store.Store) *registry {
	r := &registry{
		scenarios: newLRU(maxScenarios),
		results:   newLRU(maxResults),
		settings:  newSettingTable(),
		store:     st,
		byContent: make(map[string]string),
		loads:     make(map[string]*load),
		reserved:  make(map[string]*reservation),
	}
	// Every path a scenario leaves by — capacity eviction, DELETE, removeIf —
	// runs this hook. A store-backed scenario that is still cataloged is only
	// losing residency, not identity: its full state (fixpoint included) is
	// paged out so the next lookup rehydrates without re-chasing, and the
	// content-dedup entry and cached results stay — the version they key on
	// persists with it. Otherwise the scenario is gone for good: the
	// content-dedup entry goes, and so do the scenario's mutated-namespace
	// results. Those key on scenario identity plus a version counter that a
	// later same-name scenario restarts from scratch, so a stale entry could
	// answer for different content; they can never be served safely once the
	// scenario is gone. Content-keyed results stay: they are pure functions
	// of (content, version) and deliberately survive evictions so
	// re-registered content keeps hitting them. Either way the scenario
	// leaves residency, so its setting reference is released.
	r.scenarios.onEvict = func(id string, v any) {
		sc := v.(*scenario)
		r.discard(sc)
		if r.store != nil && r.store.Has(id) {
			r.store.PageOut(sc.persistState())
			return
		}
		r.mu.Lock()
		if r.byContent[sc.contentID] == id {
			delete(r.byContent, sc.contentID)
		}
		r.mu.Unlock()
		mutatedPrefix := mutatedNamespace(id)
		r.results.removeIf(func(key string) bool {
			return strings.HasPrefix(key, mutatedPrefix)
		})
	}
	return r
}

// canonicalContent resolves a registration's setting through the setting
// table (parsing and validating it only when no resident scenario uses
// that text), parses and validates its source, and derives the scenario's
// content identity: a hash of the canonical setting text plus the source's
// content key. Registration and the cluster routing layer (which pins
// content-derived names so placement is content-addressed) must agree on
// it, so both call this. It takes no setting reference.
func (r *registry) canonicalContent(settingText, sourceText string) (shared *sharedSetting, src *instance.Instance, contentID string, err error) {
	shared, err = r.settings.lookup(settingText)
	if err != nil {
		return nil, nil, "", status.WithKind(fmt.Errorf("parsing setting: %w", err), status.Usage)
	}
	src, err = parser.ParseInstance(sourceText)
	if err != nil {
		return nil, nil, "", status.WithKind(fmt.Errorf("parsing source: %w", err), status.Usage)
	}
	if src.HasNulls() {
		return nil, nil, "", status.WithKind(fmt.Errorf("source instance must be null-free"), status.Usage)
	}
	sum := sha256.Sum256([]byte(shared.text + "\x00" + src.ContentKey()))
	return shared, src, hex.EncodeToString(sum[:16]), nil
}

// putScenario makes sc resident. A scenario it replaces under the same ID
// (two registrations racing on one name, an install over an older copy)
// leaves without the eviction hook, so its setting reference is released
// here.
func (r *registry) putScenario(sc *scenario) {
	if old := r.scenarios.put(sc.id, sc); old != nil && old != sc {
		r.discard(old.(*scenario))
	}
}

// discard releases the setting reference of a scenario that leaves
// residency or never became resident.
func (r *registry) discard(sc *scenario) {
	r.settings.release(sc.shared, sc.sharedKey)
}

// register resolves a setting through the setting table, parses and
// validates a source, dedupes by content, builds the scenario's engine
// (which chases weakly acyclic settings), and stores the scenario. The
// returned bool reports whether an existing content-identical scenario was
// reused.
func (r *registry) register(name, settingText, sourceText string, opt chase.Options) (*scenario, bool, error) {
	rawHash := sha256.Sum256([]byte(settingText + "\x00" + sourceText))
	if name != "" {
		// Byte-identical texts under the same name are a dedup hit without
		// re-parsing. A raw mismatch proves nothing (formatting may differ)
		// and falls through to the canonical comparison below.
		r.mu.Lock()
		if v, ok := r.scenarios.get(name); ok {
			if existing := v.(*scenario); existing.rawHash == rawHash && !existing.mutated() {
				r.mu.Unlock()
				return existing, true, nil
			}
		}
		r.mu.Unlock()
	}

	shared, src, contentID, err := r.canonicalContent(settingText, sourceText)
	if err != nil {
		return nil, false, err
	}
	conflict := func() error {
		return status.WithKind(
			fmt.Errorf("scenario %q already registered with different content; DELETE it first", name),
			status.Usage)
	}

	r.mu.Lock()
	if id, ok := r.byContent[contentID]; ok && (name == "" || name == id) {
		if v, live := r.scenarios.get(id); live {
			r.mu.Unlock()
			return v.(*scenario), true, nil
		}
		if r.store != nil && r.store.Has(id) {
			// Identical content, paged out: rehydrate it instead of
			// registering a duplicate.
			r.mu.Unlock()
			if sc, err := r.rehydrate(id); err == nil {
				return sc, true, nil
			}
			r.mu.Lock()
		}
		delete(r.byContent, contentID)
	}
	if name == "" {
		r.nextID++
		name = fmt.Sprintf("s%d", r.nextID)
	} else if v, ok := r.scenarios.get(name); ok {
		existing := v.(*scenario)
		r.mu.Unlock()
		if existing.contentID == contentID && !existing.mutated() {
			return existing, true, nil
		}
		return nil, false, conflict()
	} else if res, ok := r.reserved[name]; ok {
		// Another registration holds the name until its scenario is
		// resident. Same content shares its outcome; anything else is a
		// conflict, exactly as if it were resident.
		r.mu.Unlock()
		if res.contentID != contentID {
			return nil, false, conflict()
		}
		<-res.done
		if res.err != nil {
			return nil, false, res.err
		}
		return res.sc, true, nil
	} else if r.store != nil && r.store.Has(name) {
		// The name is cataloged but not resident. Same pristine content
		// reuses it (rehydrated); anything else is a conflict, exactly as if
		// it were resident.
		r.mu.Unlock()
		existing, err := r.rehydrate(name)
		if err != nil {
			return nil, false, err
		}
		if existing.contentID == contentID && !existing.mutated() {
			return existing, true, nil
		}
		return nil, false, conflict()
	}
	// Reserve the name until the scenario is resident, so a racing
	// registration of it cannot build, journal and put a second scenario.
	res := &reservation{contentID: contentID, load: load{done: make(chan struct{})}}
	r.reserved[name] = res
	r.mu.Unlock()
	res.sc, res.err = r.build(name, contentID, rawHash, shared, settingText, src, opt)
	r.mu.Lock()
	delete(r.reserved, name)
	r.mu.Unlock()
	close(res.done)
	return res.sc, false, res.err
}

// reservation holds a name from register's check that it is free until the
// scenario is resident or the registration failed. A registration of that
// name with other content meanwhile is refused; one with the same content
// waits for done and shares the outcome (sc, err).
type reservation struct {
	contentID string
	load
}

// build makes a registered scenario resident: it builds the engine, journals
// the registration (with a store) and puts the scenario.
func (r *registry) build(name, contentID string, rawHash [32]byte, shared *sharedSetting, settingText string, src *instance.Instance, opt chase.Options) (*scenario, error) {
	// The engine chases weakly acyclic settings here, whose chase is
	// guaranteed to terminate (Proposition 6.6); anything else — including
	// Turing-complete settings like D_halt — is chased by requests, which
	// carry their own deadlines and budgets. An egd failure is not a
	// registration error: the scenario is kept and evaluation endpoints
	// report no_solution per request. Nor is a budget or deadline expiry:
	// the engine is left unchased and the first request chases again.
	shared = r.settings.acquire(shared, settingText)
	eng, _ := incr.New(shared.setting, src, opt)
	sc := newScenario(name, contentID, shared, settingText, eng, src.Version())
	sc.rawHash = rawHash

	// Durability before acknowledgement: the registration record must be in
	// the WAL before the scenario becomes visible (and before the handler
	// sends the 2xx). A journaling failure refuses the registration.
	if r.store != nil {
		if err := r.store.Register(sc.persistState()); err != nil {
			r.discard(sc)
			return nil, status.WithKind(fmt.Errorf("journaling registration: %w", err), status.Internal)
		}
	}

	r.mu.Lock()
	r.byContent[contentID] = name
	r.mu.Unlock()
	r.putScenario(sc)
	return sc, nil
}

// lookup returns the named scenario, refreshing its LRU position. With a
// store, a residency miss falls through to the catalog: a paged-out or
// recovered-but-cold scenario is rehydrated from disk (single-flight).
func (r *registry) lookup(id string) (*scenario, error) {
	v, ok := r.scenarios.get(id)
	if !ok {
		if r.store != nil && r.store.Has(id) {
			return r.rehydrate(id)
		}
		return nil, fmt.Errorf("%w: %q", errUnknownScenario, id)
	}
	return v.(*scenario), nil
}

// drop removes the named scenario and its cached results. The eviction hook
// handles the content-dedup entry and the mutated-namespace results; an
// explicit DELETE additionally clears the content-keyed results, which
// capacity evictions keep. Unless force is set, a scenario handed off
// during an open transfer window refuses the drop with errMoved (the
// caller forwards the DELETE to the new owner); the check and the removal
// run under the scenario's mutation lock so a concurrent handoff cannot
// slip between them and resurrect the copy at the new owner. force is the
// post-commit cleanup path (CommitWindow) and the post-push-back drop,
// where the handoff already happened by design.
func (r *registry) drop(id string, force bool) (bool, error) {
	v, resident := r.scenarios.get(id)
	var contentID string
	if resident {
		sc := v.(*scenario)
		contentID = sc.contentID
		if !force {
			sc.mutMu.Lock()
			defer sc.mutMu.Unlock()
			if sc.movedTo != "" {
				return false, &errMoved{id: id, newOwner: sc.movedTo}
			}
		}
	} else if r.store != nil {
		meta, stored := r.store.GetMeta(id)
		if !stored {
			return false, nil
		}
		// A handed-off scenario that was paged out mid-window has no
		// resident movedTo mark; the handed map still knows its new owner.
		if !force && r.moved != nil {
			if owner := r.moved(id); owner != "" {
				return false, &errMoved{id: id, newOwner: owner}
			}
		}
		contentID = meta.ContentID
	} else {
		return false, nil
	}
	// Journal the drop first: onEvict then sees the scenario is no longer
	// cataloged and runs the full-cleanup path rather than paging it out.
	if r.store != nil {
		r.store.Drop(id)
	}
	if resident {
		r.scenarios.remove(id)
	} else {
		// Not resident, so no eviction hook fires: clean up identity state
		// and mutated-namespace results directly.
		r.mu.Lock()
		if r.byContent[contentID] == id {
			delete(r.byContent, contentID)
		}
		r.mu.Unlock()
		mutatedPrefix := mutatedNamespace(id)
		r.results.removeIf(func(key string) bool {
			return strings.HasPrefix(key, mutatedPrefix)
		})
	}
	contentPrefix := contentID + "\x00"
	r.results.removeIf(func(key string) bool {
		return strings.HasPrefix(key, contentPrefix)
	})
	return true, nil
}

// present reports whether the scenario exists on this member, resident or
// cataloged in the durable store. Cluster routing uses it to decide
// between serving locally and forwarding during a transfer window.
func (r *registry) present(id string) bool {
	if _, ok := r.scenarios.get(id); ok {
		return true
	}
	return r.store != nil && r.store.Has(id)
}

// install registers an already-built scenario received from another member
// (a membership transfer). The content-dedup entry is only claimed for
// pristine scenarios — a mutated one no longer matches its contentID —
// and nextID advances past generated names so later anonymous
// registrations cannot collide with a transferred "sN".
func (r *registry) install(sc *scenario) {
	r.mu.Lock()
	if !sc.mutated() {
		r.byContent[sc.contentID] = sc.id
	}
	if n, ok := generatedID(sc.id); ok && n > r.nextID {
		r.nextID = n
	}
	r.mu.Unlock()
	r.putScenario(sc)
}

// mutate applies a mutation batch to the scenario: version precondition,
// source update (incrementally maintained when the engine can), memo reset
// and stale-result purge, all under the scenario's mutation lock so
// concurrent mutators are single-flighted. baseVersion 0 means
// unconditional; any other value must match the current version or the
// batch is rejected with status.Conflict (the caller maps it to HTTP 409).
func (r *registry) mutate(sc *scenario, muts []instance.Mutation, baseVersion uint64, opt chase.Options) (incr.ApplyResult, error) {
	sc.mutMu.Lock()
	defer sc.mutMu.Unlock()

	// The lock may have been held by an in-progress handoff; re-check after
	// acquiring it. The new owner installed this scenario before movedTo was
	// set, so forwarding there (the caller's job) preserves the write.
	if sc.movedTo != "" {
		return incr.ApplyResult{}, &errMoved{id: sc.id, newOwner: sc.movedTo}
	}

	cur := sc.version()
	if baseVersion != 0 && baseVersion != cur {
		return incr.ApplyResult{}, status.WithKind(
			fmt.Errorf("base_version %d does not match current version %d", baseVersion, cur),
			status.Conflict)
	}
	wasPristine := cur == sc.initVersion

	res, applyErr := sc.engine.Apply(muts, opt)
	if applyErr != nil && res.Version == 0 {
		// Validation failure: nothing was applied.
		return res, status.WithKind(applyErr, status.Usage)
	}

	changed := res.Inserted+res.Deleted > 0
	if changed && r.store != nil {
		// Append-before-acknowledge: the batch is journaled (as submitted,
		// with the version it produced) before the handler can send the 2xx.
		// The in-memory apply already happened; a journaling failure reports
		// the mutation as not acknowledged — replaying the WAL without it
		// reconstructs the pre-batch state, which is exactly what an
		// unacknowledged request is allowed to mean.
		if serr := r.store.Mutate(sc.id, res.Version, muts); serr != nil {
			return res, status.WithKind(fmt.Errorf("journaling mutation: %w", serr), status.Internal)
		}
	}
	if changed {
		metrics.ServerMutations.Inc()
		// Invalidate the derived memos; the result cache keys on the
		// version, so entries for the old version can never be served
		// again — the purge below only reclaims their space.
		sc.mu.Lock()
		sc.core = nil
		sc.cansol = nil
		sc.mu.Unlock()

		if wasPristine {
			// First mutation: the content no longer matches contentID, so
			// content-dedup must stop resolving to this scenario.
			r.mu.Lock()
			if r.byContent[sc.contentID] == sc.id {
				delete(r.byContent, sc.contentID)
			}
			r.mu.Unlock()
		}
		contentPrefix, mutatedPrefix := sc.contentID+"\x00", mutatedNamespace(sc.id)
		r.results.removeIf(func(key string) bool {
			return strings.HasPrefix(key, mutatedPrefix) ||
				(wasPristine && strings.HasPrefix(key, contentPrefix))
		})
	}
	// applyErr here is a chase-level failure (budget, deadline) with the
	// mutation already applied — the engine is unchased and the next
	// request chases again; the caller reports the error with the new
	// version.
	return res, applyErr
}

// mutatedNamespace is the result-key namespace of a scenario that has
// diverged from its registered content. Keying by scenario identity (not
// content) keeps two same-content scenarios that mutate differently from
// ever sharing cache lines.
func mutatedNamespace(id string) string {
	return "m!" + id + "\x00"
}

// resultKey builds a result-cache key. Operational knobs (deadline, budget,
// workers) are deliberately excluded: they change whether a computation
// finishes, never what a finished computation returns, so a result computed
// under one budget serves requests carrying any other. The source version
// is always part of the key, so a mutation precisely invalidates: requests
// against the new version can never be served a result computed before it.
func resultKey(sc *scenario, endpoint string, params ...string) string {
	ns := sc.contentID
	if sc.mutated() {
		ns = mutatedNamespace(sc.id) + sc.contentID
	}
	key := ns + "\x00v" + strconv.FormatUint(sc.version(), 10) + "\x00" + endpoint
	for _, p := range params {
		key += "\x00" + p
	}
	return key
}
