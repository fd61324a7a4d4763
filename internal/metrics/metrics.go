// Package metrics provides lightweight, concurrency-safe counters for the
// evaluation engine: chase steps, homomorphism-search backtracks,
// representatives visited during Rep enumeration, enumeration states, and
// goroutines spawned by the parallel paths. Counters are process-global
// atomics so the hot paths pay a single atomic add; cmd/dxcli and the
// experiment harness surface a Snapshot after a run.
package metrics

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync/atomic"
)

// Counter is a monotonically increasing concurrency-safe counter.
type Counter struct {
	name string
	v    atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Name returns the counter's registered name.
func (c *Counter) Name() string { return c.name }

// The engine's counters. They are registered at init and shared by every
// chase, homomorphism search and enumeration in the process.
var (
	// ChaseSteps counts dependency applications across all chase variants.
	ChaseSteps = register("chase_steps")
	// HomBacktracks counts undone candidate assignments in homomorphism
	// search — the backtracking effort of hom.Find/FindAll/FindOnto.
	HomBacktracks = register("hom_backtracks")
	// HomPrunes counts homomorphism searches refuted by the arc-consistency
	// pass before any backtracking: some null's candidate domain (values
	// occurring at every position the null occupies in the source) is empty.
	// Only these deterministic empty-domain events are counted.
	HomPrunes = register("hom_prunes")
	// HomCompiles counts from-scratch source compilations
	// (hom.CompileSource/CompileAtoms). Together with HomExists it makes the
	// compile-vs-search split of homomorphism questions visible without a
	// profiler.
	HomCompiles = register("hom_compiles")
	// HomExists counts homomorphism-existence queries (hom.Exists and
	// Search.Exists).
	HomExists = register("hom_exists")
	// HomACRefutes counts existence checks refuted by posting-list arc
	// consistency without backtracking (hom.PrecheckRefute, or the decision
	// pass of Search.FindAvoidingAC): some atom or null of the source
	// provably cannot embed into the target.
	HomACRefutes = register("hom_ac_refutes")
	// HomACConfirms counts existence checks confirmed by the prefilter
	// without search: unit propagation left every null a single candidate
	// and the forced mapping embeds every atom.
	HomACConfirms = register("hom_ac_confirms")
	// RepCandidates counts null valuations materialised by
	// certain.ForEachRep (before the Σt membership filter).
	RepCandidates = register("rep_candidates")
	// RepVisited counts representatives that passed the Σt filter and were
	// delivered to the ForEachRep callback.
	RepVisited = register("rep_visited")
	// EnumStates counts search states explored by cwa.Enumerate.
	EnumStates = register("enum_states")
	// EnumUnivFallbacks counts the universality checks of cwa.Enumerate
	// decided from scratch (a compiled hom search over the state's atoms
	// that mention a null) because the parent state's homomorphism into the
	// universal solution did not extend over the state's new atoms.
	EnumUnivFallbacks = register("enum_univ_fallbacks")
	// GoroutinesSpawned counts workers launched by the parallel evaluation
	// paths (ForEachRep fan-out, Enumerate spawn-or-inline, Incomparable).
	GoroutinesSpawned = register("goroutines_spawned")

	// ServerRequests counts requests admitted to dxserver's evaluation
	// endpoints (after the admission gate, before evaluation).
	ServerRequests = register("server_requests")
	// ServerCacheHits counts dxserver responses served from the result
	// cache without re-evaluating.
	ServerCacheHits = register("server_cache_hits")
	// ServerCacheMisses counts dxserver responses that had to be computed
	// (and were then cached when successful).
	ServerCacheMisses = register("server_cache_misses")
	// ServerRejected counts requests refused by the admission gate because
	// every worker slot was busy and the wait queue was full.
	ServerRejected = register("server_rejected")
	// ServerMutations counts mutation batches that changed a scenario's
	// source via the mutation endpoints.
	ServerMutations = register("server_mutations")
	// ServerEvictions counts scenarios and cached results dropped by the
	// registry's LRU bounds.
	ServerEvictions = register("server_evictions")
	// ServerStreamAborts counts NDJSON streams cut short because the client
	// went away (request context canceled) or a line failed to encode.
	ServerStreamAborts = register("server_stream_aborts")
	// ServerSettingParses counts setting texts dxserver parsed because its
	// setting table did not hold them. A registration, page-in or handoff
	// install under a setting some resident scenario already uses does not
	// move it.
	ServerSettingParses = register("server_setting_parses")

	// IncrMutations counts source mutation batches applied by the
	// incremental-maintenance engine (internal/incr).
	IncrMutations = register("incr_mutations")
	// IncrDeltaFirings counts chase steps performed by incremental delta
	// chases (the Extend/ReSaturate work after a mutation, as opposed to
	// initial full chases).
	IncrDeltaFirings = register("incr_delta_firings")
	// IncrRetractions counts derived target atoms removed by walking the
	// justification graph after a source deletion.
	IncrRetractions = register("incr_retractions")
	// IncrFallbackRechase counts mutations the engine could not maintain
	// incrementally (egd merges implicated, non-monotone s-t bodies, an
	// unchased or failed state) and resolved by a full re-chase — for a
	// setting that is not weakly acyclic, one deferred to the next read.
	IncrFallbackRechase = register("incr_fallback_rechase")

	// StoreWALAppends counts records appended to the durable store's
	// write-ahead log (registrations, mutation batches, drops).
	StoreWALAppends = register("store_wal_appends")
	// StoreWALBytes counts bytes written to the write-ahead log, frames
	// included.
	StoreWALBytes = register("store_wal_bytes")
	// StoreWALFsyncs counts explicit WAL fsyncs. Under -fsync always,
	// comparing it with store_wal_appends shows the group-commit batching:
	// concurrent appends share one sync, so fsyncs ≤ appends.
	StoreWALFsyncs = register("store_wal_fsyncs")
	// ClusterForwards counts requests this member forwarded to a peer
	// because the consistent-hash ring placed the scenario elsewhere.
	ClusterForwards = register("cluster_forwards")
	// ClusterForwardErrors counts forwards that failed after retries —
	// owner unreachable, forwarding loop cut by the hop bound, or a relay
	// error while copying the peer's response.
	ClusterForwardErrors = register("cluster_forward_errors")
	// ClusterCacheHits counts forwarded reads served from the local
	// replicated result cache after the owner revalidated the ETag (304).
	ClusterCacheHits = register("cluster_cache_hits")

	// MembershipJoins counts membership transitions this member coordinated
	// to completion (a node admitted or drained out of the ring).
	MembershipJoins = register("membership_joins")
	// MembershipTransfers counts scenarios this member handed off to their
	// new owner during transfer windows. Across a cluster the sum is the
	// total number of moved scenarios — the ~1/(n+1) rebalance cost.
	MembershipTransfers = register("membership_transfers")
	// MembershipTransferBytes counts encoded scenario-block bytes pushed
	// owner-to-owner during transfer windows.
	MembershipTransferBytes = register("membership_transfer_bytes")
	// MembershipHandoffMillis accumulates wall-clock milliseconds spent in
	// per-scenario handoffs (capture + push, mutation lock held).
	MembershipHandoffMillis = register("membership_handoff_ms")

	// StoreSnapshots counts snapshot files successfully written (periodic
	// and drain-time).
	StoreSnapshots = register("store_snapshots")
	// StoreRecoveryReplayed counts WAL records replayed at boot — records
	// acknowledged after the snapshot the recovery started from. A clean
	// shutdown leaves this at zero.
	StoreRecoveryReplayed = register("store_recovery_replayed")
	// StorePageIns counts scenario states loaded back from disk (boot-time
	// rehydration and LRU page-ins alike).
	StorePageIns = register("store_page_ins")
	// StorePageOuts counts scenario states appended to the page log when
	// the LRU evicted them from RAM; a page-out the catalog's block already
	// holds writes nothing and is not counted.
	StorePageOuts = register("store_page_outs")
)

// Gauge is a concurrency-safe instantaneous value (it can go down, unlike
// a Counter). Gauges share the counters' registry surface: Snapshot,
// WriteText and Reset include them.
type Gauge struct {
	name string
	v    atomic.Int64
}

// Set stores the gauge's current value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the gauge by n (n may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Name returns the gauge's registered name.
func (g *Gauge) Name() string { return g.name }

var (
	// ClusterEpoch is the committed membership epoch of this member's ring
	// view (0 = not clustered or not yet joined).
	ClusterEpoch = registerGauge("cluster_epoch")
)

var (
	registry []*Counter
	gauges   []*Gauge
)

func register(name string) *Counter {
	c := &Counter{name: name}
	registry = append(registry, c)
	return c
}

// NewCounter registers a counter owned by another package, so that
// Snapshot, WriteText and Reset include it. Call it only while packages
// initialise: the registry is not locked.
func NewCounter(name string) *Counter { return register(name) }

func registerGauge(name string) *Gauge {
	g := &Gauge{name: name}
	gauges = append(gauges, g)
	return g
}

// Snapshot is a point-in-time copy of every registered counter.
type Snapshot map[string]int64

// Read captures the current value of every counter and gauge.
func Read() Snapshot {
	s := make(Snapshot, len(registry)+len(gauges))
	for _, c := range registry {
		s[c.name] = c.Load()
	}
	for _, g := range gauges {
		s[g.name] = g.Load()
	}
	return s
}

// Diff returns the per-counter difference s - earlier, for reporting the
// cost of a single run out of the process-global totals.
func (s Snapshot) Diff(earlier Snapshot) Snapshot {
	out := make(Snapshot, len(s))
	for k, v := range s {
		out[k] = v - earlier[k]
	}
	return out
}

// String renders the snapshot as "name=value" pairs in sorted name order.
func (s Snapshot) String() string {
	names := make([]string, 0, len(s))
	for k := range s {
		names = append(names, k)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, k := range names {
		parts[i] = fmt.Sprintf("%s=%d", k, s[k])
	}
	return strings.Join(parts, " ")
}

// WriteText writes every counter as one "name value" line in sorted name
// order — the /metricsz scrape format. Each counter is read with a single
// atomic load, so scraping while the engine is running is safe (the dump is
// a per-counter-consistent snapshot, not a globally atomic one).
func WriteText(w io.Writer) error {
	s := Read()
	names := make([]string, 0, len(s))
	for k := range s {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		if _, err := fmt.Fprintf(w, "%s %d\n", k, s[k]); err != nil {
			return err
		}
	}
	return nil
}

// Reset zeroes every registered counter. Intended for tests and for
// per-command reporting in CLIs; concurrent engine activity during a Reset
// yields approximate results, which is acceptable for diagnostics.
func Reset() {
	for _, c := range registry {
		c.v.Store(0)
	}
	for _, g := range gauges {
		g.v.Store(0)
	}
}
