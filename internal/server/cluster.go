package server

// Cluster routing: every member (node or router) serves the full HTTP API
// at any entry point. Requests scoped to a scenario the consistent-hash
// ring places elsewhere are forwarded verbatim to the owning node over the
// ordinary client API, so the owner's single-flight memos and base_version
// optimistic concurrency apply no matter where a request enters — a stale
// mutation 409s identically through any member.
//
// The routing key is the scenario ID. Auto-named registrations get a
// content-derived pinned name ("c" + contentID) assigned by the entry
// member before routing, so unnamed scenarios are placed content-addressed
// and re-registering the same content through any entry lands on the same
// owner and dedupes there. Mutated scenarios keep their ID, hence their
// owner.
//
// Forwarded read results are replicated: the owner tags every cacheable
// response with an ETag derived from its result key (content identity +
// version + endpoint + params), members cache {etag, body} in their local
// result LRU, and later forwards revalidate with If-None-Match. A 304
// serves the local copy (cluster_cache_hits); a mutation bumps the version
// on the owner, changes the ETag, and the next revalidation replaces the
// stale replica — no invalidation traffic exists or is needed.
//
// Loops cannot happen while members agree on the peer list; the hop-count
// header bounds the damage when they do not (a rolling reconfiguration,
// say): a request bouncing between disagreeing rings dies with 508
// forward_loop instead of circulating.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/server/api"
	"repro/internal/server/client"
	"repro/internal/status"
)

// hopHeader carries the forward count. Absent or zero on client requests;
// each forward increments it, and a member that receives a request at the
// ring's hop bound refuses it as a loop.
const hopHeader = "X-Dx-Hops"

// epochHeader carries the sender's committed membership epoch on every
// forwarded request and every cluster-mode response; fromHeader carries
// the forwarding member's base URL. A member that sees a higher epoch
// than its own fetches the newer view from the sender (membership
// catch-up) — the epoch-comparison replacement for RingVersion drift
// detection.
const (
	epochHeader = "X-Dx-Epoch"
	fromHeader  = "X-Dx-From"
)

// partialHeader lists the unreachable members a GET /v1/scenarios
// aggregation could not include, comma-separated.
const partialHeader = "X-Dx-Partial"

// peerProbeTimeout bounds the /healthz reachability probes.
const peerProbeTimeout = 2 * time.Second

// maxReplicatedBody bounds the forwarded response bodies a member is
// willing to buffer for its replicated cache; larger ones are streamed
// through uncached.
const maxReplicatedBody = 16 << 20

// errForwardLoop is mapped to 508 (code "forward_loop") by internal/status.
var errForwardLoop = status.WithKind(
	fmt.Errorf("forwarding hop bound exceeded: cluster members disagree on the peer list"),
	status.ForwardLoop)

// clusterRoute decides whether this member serves r locally. It returns
// true when it fully handled the request (forwarded it, aggregated it, or
// rejected it); false hands the request to the local mux.
func (s *Server) clusterRoute(w http.ResponseWriter, r *http.Request) bool {
	if strings.HasPrefix(r.URL.Path, "/v1/cluster/") {
		// Membership control plane: always local, and deliberately outside
		// the epoch machinery — a propose must not trigger a catch-up that
		// recursively fetches the view being proposed.
		return false
	}
	s.syncEpoch(r)
	w.Header().Set(epochHeader, strconv.FormatUint(s.cluster.Epoch(), 10))
	hops, err := strconv.Atoi(r.Header.Get(hopHeader))
	if err != nil {
		hops = 0
	}
	if hops >= s.cluster.MaxHops() {
		metrics.ClusterForwardErrors.Inc()
		writeError(w, errForwardLoop)
		return true
	}
	if r.URL.Path == "/v1/scenarios" && r.Method == http.MethodGet {
		if hops > 0 {
			return false // a peer's aggregation sub-request: answer locally
		}
		s.aggregateScenarios(w, r)
		return true
	}
	key, body, cacheKey, ok := s.routingKey(w, r)
	if !ok {
		return true // routingKey already wrote the error
	}
	if key == "" {
		return false // not scenario-scoped (healthz, metricsz, ...)
	}
	if body != nil {
		r.Body = io.NopCloser(bytes.NewReader(body))
	}
	target, local := s.routeTarget(key, hops)
	if local {
		return false
	}
	if s.Draining() {
		writeError(w, fmt.Errorf("%w: draining", errOverloaded))
		return true
	}
	s.forward(w, r, target, body, cacheKey, hops)
	return true
}

// routeTarget decides where key is served. Outside a transfer window this
// is the committed ring. During a window a moving key stays with its old
// owner until its individual handoff lands:
//
//   - the old owner serves it while present, forwards to the new owner
//     once handed off (or never present — a registration that happened
//     after the window opened landed at the new owner);
//   - the new owner serves it once installed; before that, an entry
//     request there chases the old owner, while a forwarded request that
//     still finds nothing answers its local miss (404) instead of
//     bouncing until the hop bound;
//   - everyone else forwards to the old owner.
//
// Reads therefore always observe the single authoritative copy — the old
// owner's until the handoff's acknowledgment, the new owner's after — so
// read-your-writes and the base_version contract hold through the window.
//
// After an abort the same marks keep the live copy routable while the
// reconciliation runs: the committed owner still carries its handed-off
// mark and forwards to the receiver, and the receiver — no longer the
// ring target — serves its received copies until the push-back returns
// them. A present-but-unmarked copy at a window's new owner (an orphan a
// past abort parked, or a mid-window registration) is never served on
// entry: the request chases the committed owner first.
func (s *Server) routeTarget(key string, hops int) (target string, local bool) {
	rt := s.cluster.RouteKey(key)
	self := s.cluster.Self()
	isNode := s.cluster.Role() == cluster.RoleNode
	if rt.Owner == "" {
		// A joiner's pre-join ring is empty. Mid-window its committed ring
		// still is: the proposed ring is all there is.
		if !rt.Moving {
			return "", true // unclustered-in-practice: serve locally
		}
		if isNode && rt.New == self {
			return "", true
		}
		return rt.New, false
	}
	if !rt.Moving {
		if isNode && rt.Owner == self {
			// Post-abort: handed off during the aborted window, push-back
			// still pending — the receiver has the live copy.
			if to := s.handed.get(key); to != "" {
				return to, false
			}
			return "", true
		}
		if isNode && s.received.has(key) && s.reg.present(key) {
			// Post-abort receiver: the copy installed during the aborted
			// window is the live one until the push-back lands.
			return "", true
		}
		return rt.Owner, false
	}
	switch {
	case isNode && rt.Owner == self:
		if s.handed.get(key) != "" {
			return rt.New, false
		}
		if s.reg.present(key) {
			return "", true
		}
		return rt.New, false
	case isNode && rt.New == self:
		if s.received.has(key) && s.reg.present(key) {
			return "", true
		}
		if hops == 0 {
			return rt.Owner, false
		}
		return "", true
	default:
		return rt.Owner, false
	}
}

// syncEpoch adopts a newer view advertised by a forwarding peer before
// routing the request it sent. The catch-up is inline but bounded: one
// flight at a time with a ~1s cap, so a slow or hung peer cannot stall
// the data path for the full RPC timeout. The winning request routes with
// the sender's ring after it; concurrent and timed-out requests proceed
// on the old view, where the hop bound keeps them from circulating.
func (s *Server) syncEpoch(r *http.Request) {
	if s.member == nil {
		return
	}
	e, err := strconv.ParseUint(r.Header.Get(epochHeader), 10, 64)
	if err != nil || e <= s.cluster.Epoch() {
		return
	}
	if from := r.Header.Get(fromHeader); from != "" {
		s.member.CatchUpInline(r.Context(), from)
	}
}

// pinnedBody is a memoized routingKey rewrite for POST /v1/scenarios: the
// routing name plus the body with that name pinned into it.
type pinnedBody struct {
	name string
	body []byte
}

// routingKey extracts the scenario ID a request is scoped to, reading (and
// returning) the body when the scenario is named there. A non-empty
// cacheKey marks the request replicable: a deterministic read whose
// forwarded body may be cached behind ETag revalidation. ok=false means an
// error response was already written.
func (s *Server) routingKey(w http.ResponseWriter, r *http.Request) (key string, body []byte, cacheKey string, ok bool) {
	path := r.URL.Path
	switch {
	case path == "/v1/scenarios" && r.Method == http.MethodPost:
		body, rerr := io.ReadAll(r.Body)
		if rerr != nil {
			writeError(w, status.WithKind(fmt.Errorf("reading request body: %w", rerr), status.Usage))
			return "", nil, "", false
		}
		// The rewrite below is a pure function of the body, so a repeat
		// registration (the cluster steady state: every entry sees the
		// same storm) skips the parse entirely.
		sum := sha256.Sum256(body)
		memoKey := "pin!" + string(sum[:])
		if v, ok := s.pinned.get(memoKey); ok {
			p := v.(pinnedBody)
			return p.name, p.body, "", true
		}
		var req api.RegisterRequest
		if err := json.Unmarshal(body, &req); err != nil {
			writeError(w, status.WithKind(fmt.Errorf("decoding request body: %w", err), status.Usage))
			return "", nil, "", false
		}
		if req.Name == "" {
			// Pin a content-derived name so the unnamed scenario routes
			// content-addressed; the owner (and every later entry member)
			// re-derives the same name from the same content.
			_, _, contentID, err := s.reg.canonicalContent(req.Setting, req.Source)
			if err != nil {
				writeError(w, err)
				return "", nil, "", false
			}
			req.Name = "c" + contentID
			body, err = json.Marshal(req)
			if err != nil {
				writeError(w, err)
				return "", nil, "", false
			}
		}
		s.pinned.put(memoKey, pinnedBody{name: req.Name, body: body})
		return req.Name, body, "", true

	case strings.HasPrefix(path, "/v1/scenarios/"):
		id := strings.TrimPrefix(path, "/v1/scenarios/")
		id = strings.TrimSuffix(id, "/source/tuples")
		if id == "" || strings.Contains(id, "/") {
			return "", nil, "", true // unknown route: let the mux 404 it
		}
		if r.Method == http.MethodGet && !strings.HasSuffix(path, "/source/tuples") {
			return id, nil, "", true
		}
		b, rerr := io.ReadAll(r.Body)
		if rerr != nil {
			writeError(w, status.WithKind(fmt.Errorf("reading request body: %w", rerr), status.Usage))
			return "", nil, "", false
		}
		return id, b, "", true

	case path == "/v1/chase" || path == "/v1/core" || path == "/v1/cansol" ||
		path == "/v1/exists" || path == "/v1/certain" || path == "/v1/enum":
		b, rerr := io.ReadAll(r.Body)
		if rerr != nil {
			writeError(w, status.WithKind(fmt.Errorf("reading request body: %w", rerr), status.Usage))
			return "", nil, "", false
		}
		var req api.EvalRequest
		if err := json.Unmarshal(b, &req); err != nil || req.Scenario == "" {
			// Let the local handler produce its usual usage error.
			return "", b, "", true
		}
		if path != "/v1/enum" {
			// Result-relevant parameters only: deadlines and budgets change
			// whether a computation finishes, never its value, so they stay
			// out of the replica key exactly as they stay out of the owner's
			// result key.
			cacheKey = "fwd!" + req.Scenario + "\x00" + path + "\x00" + req.Semantics + "\x00" + req.Query
		}
		return req.Scenario, b, cacheKey, true
	}
	return "", nil, "", true
}

// fwdEntry is a replicated result: the owner's response body plus the ETag
// that revalidates it.
type fwdEntry struct {
	etag string
	body []byte
}

// forward relays the request to owner and its response to the caller. For
// replicable reads it first offers the cached replica's ETag; the owner's
// 304 then serves the local copy without moving the body again.
func (s *Server) forward(w http.ResponseWriter, r *http.Request, owner string, body []byte, cacheKey string, hops int) {
	metrics.ClusterForwards.Inc()
	hdr := make(http.Header)
	if ct := r.Header.Get("Content-Type"); ct != "" {
		hdr.Set("Content-Type", ct)
	}
	hdr.Set(hopHeader, strconv.Itoa(hops+1))
	hdr.Set(epochHeader, strconv.FormatUint(s.cluster.Epoch(), 10))
	hdr.Set(fromHeader, s.cluster.Self())
	var replica *fwdEntry
	if cacheKey != "" {
		if v, ok := s.reg.results.get(cacheKey); ok {
			replica = v.(*fwdEntry)
			hdr.Set("If-None-Match", replica.etag)
		}
	}
	resp, err := s.peerClient(owner).Forward(r.Context(), r.Method, r.URL.Path, hdr, body)
	if err != nil {
		metrics.ClusterForwardErrors.Inc()
		if r.Context().Err() != nil {
			writeError(w, err) // classifies as timeout
			return
		}
		writeError(w, status.WithKind(
			fmt.Errorf("owner %s unreachable: %w", owner, err), status.PeerUnavailable))
		return
	}
	defer resp.Body.Close()

	if s.member != nil {
		// The owner's response advertises its committed epoch; adopt a
		// newer view in the background (this request was already answered
		// by a member that routes correctly under it).
		if e, perr := strconv.ParseUint(resp.Header.Get(epochHeader), 10, 64); perr == nil && e > s.cluster.Epoch() {
			go s.member.CatchUp(context.Background(), owner)
		}
	}

	if resp.StatusCode == http.StatusNotModified && replica != nil {
		metrics.ClusterCacheHits.Inc()
		if v := resp.Header.Get(planHeader); v != "" {
			w.Header().Set(planHeader, v)
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("ETag", replica.etag)
		w.Header().Set("X-Cache", "cluster-hit")
		w.WriteHeader(http.StatusOK)
		w.Write(replica.body)
		return
	}

	etag := resp.Header.Get("ETag")
	if cacheKey != "" && etag != "" && resp.StatusCode == http.StatusOK &&
		resp.ContentLength >= 0 && resp.ContentLength <= maxReplicatedBody {
		b, rerr := io.ReadAll(io.LimitReader(resp.Body, maxReplicatedBody+1))
		if rerr != nil {
			metrics.ClusterForwardErrors.Inc()
			writeError(w, status.WithKind(
				fmt.Errorf("relaying response from %s: %w", owner, rerr), status.PeerUnavailable))
			return
		}
		if len(b) <= maxReplicatedBody {
			s.reg.results.put(cacheKey, &fwdEntry{etag: etag, body: b})
		}
		relayHeaders(w, resp)
		w.WriteHeader(resp.StatusCode)
		w.Write(b)
		return
	}

	// Everything else — errors, mutations, NDJSON streams — relays through
	// uncached, flushing as it goes so /v1/enum stays a stream.
	relayHeaders(w, resp)
	w.WriteHeader(resp.StatusCode)
	flusher, _ := w.(http.Flusher)
	buf := make([]byte, 32*1024)
	for {
		n, rerr := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				metrics.ServerStreamAborts.Inc()
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if rerr == io.EOF {
			return
		}
		if rerr != nil {
			metrics.ClusterForwardErrors.Inc()
			return
		}
	}
}

// forwardMoved relays a request that raced a handoff — routing said local,
// but by the time the handler held the mutation lock the scenario had been
// pushed to owner. The new owner installed it before the mark was set, so
// the forward lands on live state.
func (s *Server) forwardMoved(w http.ResponseWriter, r *http.Request, owner string, body []byte) {
	hops, err := strconv.Atoi(r.Header.Get(hopHeader))
	if err != nil {
		hops = 0
	}
	if hops >= s.cluster.MaxHops() {
		metrics.ClusterForwardErrors.Inc()
		writeError(w, errForwardLoop)
		return
	}
	s.forward(w, r, owner, body, "", hops)
}

func relayHeaders(w http.ResponseWriter, resp *http.Response) {
	for _, h := range []string{"Content-Type", "ETag", "X-Cache", planHeader} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
}

// peerClient returns (lazily building) the client for a peer's base URL.
// Clients share the configured transport; the default per-request timeout
// caps forwards that would otherwise inherit an unbounded entry context.
func (s *Server) peerClient(base string) *client.Client {
	s.peerMu.Lock()
	defer s.peerMu.Unlock()
	if c, ok := s.peers[base]; ok {
		return c
	}
	c := client.New(base)
	c.HTTPClient = s.cfg.PeerHTTPClient
	c.Timeout = s.cfg.MaxDeadline + 10*time.Second
	s.peers[base] = c
	return c
}

// resultETag derives the ETag the owner attaches to a cacheable response.
// The result key already embeds everything that determines the body —
// content identity (or mutated-namespace identity), source version,
// endpoint, parameters — and bodies are deterministic functions of it, so
// equal tags imply byte-equal bodies even across owner restarts.
func resultETag(key string) string {
	sum := sha256.Sum256([]byte(key))
	return `"` + hex.EncodeToString(sum[:16]) + `"`
}

// aggregateScenarios serves GET /v1/scenarios cluster-wide: the union of
// every member's local list (the hop header marks the sub-requests so
// peers answer locally instead of re-aggregating). During a transfer
// window the fan-out covers committed and proposed members alike, so
// already-transferred scenarios are not missed. Unreachable members
// degrade the listing instead of failing it: the merged rest is served
// with the X-Dx-Partial header naming the members that did not answer.
func (s *Server) aggregateScenarios(w http.ResponseWriter, r *http.Request) {
	hdr := make(http.Header)
	hdr.Set(hopHeader, "1")
	var (
		mu   sync.Mutex
		all  []api.ScenarioInfo
		down []string
		seen = make(map[string]bool)
		wg   sync.WaitGroup
	)
	add := func(infos []api.ScenarioInfo) {
		mu.Lock()
		defer mu.Unlock()
		for _, info := range infos {
			if !seen[info.ID] {
				seen[info.ID] = true
				all = append(all, info)
			}
		}
	}
	for _, peer := range s.cluster.AllMembers() {
		if peer == s.cluster.Self() {
			continue
		}
		wg.Add(1)
		go func(peer string) {
			defer wg.Done()
			resp, err := s.peerClient(peer).Forward(r.Context(), http.MethodGet, "/v1/scenarios", hdr, nil)
			if err == nil {
				defer resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					var list api.ScenarioList
					if json.NewDecoder(resp.Body).Decode(&list) == nil {
						add(list.Scenarios)
						return
					}
				}
			}
			mu.Lock()
			down = append(down, peer)
			mu.Unlock()
		}(peer)
	}
	if s.cluster.Role() == cluster.RoleNode {
		ids := s.reg.scenarios.keysMRU()
		local := make([]api.ScenarioInfo, 0, len(ids))
		for _, id := range ids {
			if v, ok := s.reg.scenarios.get(id); ok {
				local = append(local, s.scenarioInfo(v.(*scenario)))
			}
		}
		add(local)
	}
	wg.Wait()
	sort.Slice(all, func(i, j int) bool { return all[i].ID < all[j].ID })
	if len(down) > 0 {
		sort.Strings(down)
		w.Header().Set(partialHeader, strings.Join(down, ","))
	}
	writeJSON(w, http.StatusOK, api.ScenarioList{Scenarios: all})
}

// clusterHealth fills the /healthz cluster section. Entry requests probe
// every peer concurrently (bounded by peerProbeTimeout); probe requests —
// marked by the hop header — skip probing so health checks do not cascade.
func (s *Server) clusterHealth(r *http.Request) *api.ClusterHealth {
	ch := &api.ClusterHealth{
		Role:        s.cluster.Role().String(),
		Self:        s.cluster.Self(),
		RingVersion: s.cluster.RingVersion(),
		Epoch:       s.cluster.Epoch(),
	}
	if s.member != nil {
		vi := s.member.ViewInfo()
		ch.Transition = vi.Transition
		ch.TransfersInFlight = s.member.InFlight()
	}
	if h := r.Header.Get(hopHeader); h != "" && h != "0" {
		return ch
	}
	hdr := make(http.Header)
	hdr.Set(hopHeader, "1")
	peers := s.cluster.AllMembers()
	ch.Peers = make([]api.PeerStatus, len(peers))
	var wg sync.WaitGroup
	for i, peer := range peers {
		ch.Peers[i].URL = peer
		if peer == s.cluster.Self() {
			ch.Peers[i].Reachable = true
			ch.Peers[i].RingVersion = s.cluster.RingVersion()
			continue
		}
		wg.Add(1)
		go func(st *api.PeerStatus, peer string) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(r.Context(), peerProbeTimeout)
			defer cancel()
			resp, err := s.peerClient(peer).Forward(ctx, http.MethodGet, "/healthz", hdr, nil)
			if err != nil {
				return
			}
			defer resp.Body.Close()
			var h api.Health
			if json.NewDecoder(resp.Body).Decode(&h) != nil {
				return
			}
			st.Reachable = true
			if h.Cluster != nil {
				st.RingVersion = h.Cluster.RingVersion
			}
		}(&ch.Peers[i], peer)
	}
	wg.Wait()
	return ch
}
