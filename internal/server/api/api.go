// Package api defines the JSON wire types of dxserver's HTTP interface.
// Both internal/server (the handlers) and internal/server/client (the Go
// client) marshal exactly these structs, so the two sides cannot drift.
//
// Instances travel as text in the syntax parser.ParseInstance accepts and
// parser.FormatInstance emits; settings in the syntax parser.ParseSetting
// accepts and parser.FormatSetting emits. Queries are UCQ rules
// ("q(x) :- E(x,y).") or, prefixed by their free-variable tuple, FO
// formulas ("(x) . Pp(x) | ...").
package api

// RegisterRequest registers a scenario: a setting plus a source instance,
// parsed, validated and (for weakly acyclic settings) chased once so later
// requests reuse the compiled plans and the cached chase result.
type RegisterRequest struct {
	// Name is the scenario identifier used by later requests. Optional: an
	// empty name gets a generated one ("s1", "s2", ...).
	Name string `json:"name,omitempty"`
	// Setting is the data exchange setting text.
	Setting string `json:"setting"`
	// Source is the source instance text.
	Source string `json:"source"`
	// MaxSteps bounds the registration chase (0 = server default). It does
	// not constrain later requests, which carry their own budgets.
	MaxSteps int `json:"max_steps,omitempty"`
}

// ScenarioInfo describes a registered scenario.
type ScenarioInfo struct {
	ID            string `json:"id"`
	WeaklyAcyclic bool   `json:"weakly_acyclic"`
	RichlyAcyclic bool   `json:"richly_acyclic"`
	// SourceAtoms is the size of the source instance.
	SourceAtoms int `json:"source_atoms"`
	// Chased reports whether the scenario holds a chase result: weakly
	// acyclic settings are chased at registration and after every
	// mutation, others by the first request that needs the chase.
	Chased bool `json:"chased"`
	// ChaseSteps and UniversalAtoms describe the held chase result when
	// Chased is true.
	ChaseSteps     int `json:"chase_steps,omitempty"`
	UniversalAtoms int `json:"universal_atoms,omitempty"`
	// Existing reports that registration found a scenario with identical
	// content (same setting text, same source atom set) and returned it
	// instead of creating a duplicate.
	Existing bool `json:"existing,omitempty"`
	// Version is the scenario's source version. It advances by one for
	// every source atom a mutation actually inserts or removes; mutation
	// requests may pin it via base_version for optimistic concurrency.
	Version uint64 `json:"version"`
	// Incremental reports that source mutations are maintained by the
	// incremental delta-chase engine rather than by full re-chase.
	Incremental bool `json:"incremental,omitempty"`
}

// ScenarioList is the GET /v1/scenarios response.
type ScenarioList struct {
	Scenarios []ScenarioInfo `json:"scenarios"`
}

// EvalRequest is the common request body of the evaluation endpoints
// (/v1/chase, /v1/core, /v1/cansol, /v1/exists, /v1/certain, /v1/enum).
type EvalRequest struct {
	// Scenario is the registered scenario ID.
	Scenario string `json:"scenario"`
	// DeadlineMillis is the per-request wall-clock deadline in
	// milliseconds. 0 means the server default; the server caps it at its
	// configured maximum. Expiry returns HTTP 504.
	DeadlineMillis int `json:"deadline_ms,omitempty"`
	// MaxSteps is the chase step budget (0 = server default). Exhaustion
	// returns HTTP 422.
	MaxSteps int `json:"max_steps,omitempty"`
	// Workers is the evaluation parallelism for certain/enum
	// (0 = server default).
	Workers int `json:"workers,omitempty"`

	// Query is the query text (certain only).
	Query string `json:"query,omitempty"`
	// Semantics is certain-cap, certain-cup, maybe-cap or maybe-cup
	// (certain only; default certain-cap).
	Semantics string `json:"semantics,omitempty"`

	// Max bounds the number of solutions streamed by /v1/enum
	// (0 = server default; the server caps it).
	Max int `json:"max,omitempty"`
}

// ChaseResponse is the /v1/chase response.
type ChaseResponse struct {
	Scenario string `json:"scenario"`
	Steps    int    `json:"steps"`
	// Universal is the universal solution (the chase's target reduct) as
	// instance text.
	Universal string `json:"universal"`
	Atoms     int    `json:"atoms"`
}

// InstanceResponse is the /v1/core and /v1/cansol response.
type InstanceResponse struct {
	Scenario string `json:"scenario"`
	// Instance is the computed instance (core or canonical solution) as
	// instance text.
	Instance string `json:"instance"`
	Atoms    int    `json:"atoms"`
}

// ExistsResponse is the /v1/exists response.
type ExistsResponse struct {
	Scenario string `json:"scenario"`
	Exists   bool   `json:"exists"`
}

// CertainResponse is the /v1/certain response. Answers are sorted
// lexicographically, so equal answer sets serialize byte-identically.
type CertainResponse struct {
	Scenario  string     `json:"scenario"`
	Semantics string     `json:"semantics"`
	Query     string     `json:"query"`
	Answers   [][]string `json:"answers"`
}

// EnumSolution is one NDJSON line of the /v1/enum stream.
type EnumSolution struct {
	// Solution is a CWA-solution as instance text.
	Solution string `json:"solution"`
	Atoms    int    `json:"atoms"`
}

// EnumSummary is the final NDJSON line of the /v1/enum stream.
type EnumSummary struct {
	Done      bool `json:"done"`
	Count     int  `json:"count"`
	Truncated bool `json:"truncated"`
}

// MutateRequest is the body of the mutation endpoints
// (POST /v1/scenarios/{id}/source/tuples inserts the tuples,
// DELETE /v1/scenarios/{id}/source/tuples removes them).
type MutateRequest struct {
	// Tuples is the instance text of the source atoms to insert or remove
	// (e.g. "M(a,b). N(a,c)."). Atoms must be null-free and over source
	// relations.
	Tuples string `json:"tuples"`
	// BaseVersion, when non-zero, is the scenario version this mutation
	// was prepared against. A mismatch with the current version rejects
	// the batch with HTTP 409 (code "conflict") and applies nothing; zero
	// applies unconditionally.
	BaseVersion uint64 `json:"base_version,omitempty"`
	// DeadlineMillis and MaxSteps bound the maintenance chase the mutation
	// triggers, like their EvalRequest counterparts.
	DeadlineMillis int `json:"deadline_ms,omitempty"`
	MaxSteps       int `json:"max_steps,omitempty"`
}

// MutateResponse reports what a mutation batch did.
type MutateResponse struct {
	Scenario string `json:"scenario"`
	// Version is the scenario version after the batch.
	Version uint64 `json:"version"`
	// Inserted and Deleted count the source atoms actually changed (net of
	// duplicates and absent deletions).
	Inserted int `json:"inserted"`
	Deleted  int `json:"deleted"`
	// Fallback reports that the batch was not maintained incrementally:
	// it was resolved by a full re-chase (egd merges, non-conjunctive s-t
	// bodies), or, for a setting that is not weakly acyclic, the chase
	// result was dropped for the next request to recompute.
	Fallback bool `json:"fallback,omitempty"`
	// NoSolution reports that the mutated source has no solution (an egd
	// failed). The mutation is applied regardless; evaluation endpoints
	// return no_solution until a later mutation repairs the source.
	NoSolution bool `json:"no_solution,omitempty"`
	// Steps counts the chase steps the maintenance cost (delta steps when
	// incremental, the full re-chase when Fallback).
	Steps int `json:"steps,omitempty"`
	// Atoms is the maintained universal solution's size after the batch.
	Atoms int `json:"atoms,omitempty"`
}

// Health is the GET /healthz response.
type Health struct {
	Status    string `json:"status"`
	Scenarios int    `json:"scenarios"`
	// InFlight is the number of admitted evaluation requests currently
	// executing.
	InFlight int `json:"in_flight"`
	// Draining reports that the server is shutting down and rejecting new
	// work.
	Draining bool `json:"draining"`
	// Durable reports that a durable store backs the server; the fields
	// below are only meaningful when it is true.
	Durable bool `json:"durable,omitempty"`
	// StoreScenarios is the durable catalog size — every registered
	// scenario, resident in RAM or paged to disk.
	StoreScenarios int `json:"store_scenarios,omitempty"`
	// Replayed is the number of WAL records replayed at the last boot; 0
	// after a clean shutdown.
	Replayed int `json:"replayed,omitempty"`
	// Recovering reports that boot-time rehydration is still warming the
	// resident set. Requests are served throughout.
	Recovering bool `json:"recovering,omitempty"`
	// Cluster describes this member's cluster view; absent on single-node
	// servers.
	Cluster *ClusterHealth `json:"cluster,omitempty"`
}

// ClusterHealth is the cluster section of /healthz.
type ClusterHealth struct {
	// Role is "node" (owns a ring segment) or "router" (forwards
	// everything).
	Role string `json:"role"`
	// Self is this member's advertised base URL.
	Self string `json:"self"`
	// RingVersion fingerprints the peer-list configuration; members with
	// identical peer lists report identical versions, so a diff across
	// nodes exposes configuration drift.
	RingVersion string `json:"ring_version"`
	// Epoch is the committed membership epoch of this member's ring view.
	// Members converge on equal epochs; a lagging one catches up from the
	// first forward it sees.
	Epoch uint64 `json:"epoch"`
	// Transition is "stable" outside a membership transfer window and
	// "proposed" while one is open on this member.
	Transition string `json:"transition,omitempty"`
	// TransfersInFlight counts scenario handoffs this member is currently
	// pushing to new owners.
	TransfersInFlight int `json:"transfers_in_flight,omitempty"`
	// Peers reports each ring member's reachability, probed at request
	// time. Probe sub-requests skip this section, so health checks do not
	// cascade.
	Peers []PeerStatus `json:"peers,omitempty"`
}

// PeerStatus is one peer's probed state.
type PeerStatus struct {
	URL       string `json:"url"`
	Reachable bool   `json:"reachable"`
	// RingVersion is the peer's own reported fingerprint; a mismatch with
	// ours means disagreeing peer lists.
	RingVersion string `json:"ring_version,omitempty"`
}

// Error is the JSON error envelope every non-2xx response carries.
type Error struct {
	Err ErrorBody `json:"error"`
}

// ErrorBody is the inner error object.
type ErrorBody struct {
	// Code is the machine-readable classification from internal/status:
	// no_solution, usage, timeout, budget_exceeded, too_large, internal —
	// plus the server-side codes unknown_scenario and overloaded.
	Code    string `json:"code"`
	Message string `json:"message"`
}
