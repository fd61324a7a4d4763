package server

// Membership glue: the server side of the dynamic join/leave protocol
// (internal/membership). This file adapts the registry to the protocol's
// Host interface — enumerating local scenarios, the per-scenario handoff
// critical section, commit/abort cleanup — carries protocol messages over
// the ordinary peer client, and mounts the /v1/cluster/* endpoints.
//
// The handoff critical section is the heart of the zero-lost-writes
// guarantee: the old owner captures the scenario's state and POSTs it to
// the new owner while holding the scenario's mutation lock (mutMu), and
// marks the scenario handed off — under that same lock — only after the
// new owner acknowledged the install. A mutation serialized behind the
// lock therefore resumes to find the moved mark and is forwarded to the
// new owner, which by then is guaranteed to have installed the scenario;
// no acknowledged write can land on a copy that is about to be dropped.
//
// Abort runs the same discipline in reverse. Scenarios installed during
// the window are tracked per proposal epoch (receivedSet); when the
// proposal aborts, the receiver pushes each one's *current* state back to
// its committed owner under the scenario's mutation lock — writes it
// acknowledged mid-window ride back in the block — and drops its copy
// only after the push-back was acknowledged. The old owner keeps its
// handed-off mark (and keeps forwarding) until that push-back replaces
// its stale copy, so no acknowledged write is lost to an abort while both
// sides are reachable. Only when the counterpart stays unreachable past
// the reconciliation deadline does a side give up: the old owner resumes
// serving its pre-handoff copy (lossy by necessity — the only copy with
// the window's writes is on a dead peer), and the receiver parks its copy
// unserved, where a later transition's version-guarded transfer will
// surface it again rather than overwrite it.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/chase"
	"repro/internal/membership"
	"repro/internal/server/api"
	"repro/internal/status"
	"repro/internal/store"
)

// maxTransferBlock bounds an accepted scenario-transfer block.
const maxTransferBlock = 1 << 30

// errMoved reports that a scenario was handed off to a new owner during a
// membership transition; the handler forwards the request there.
type errMoved struct {
	id       string
	newOwner string
}

func (e *errMoved) Error() string {
	return fmt.Sprintf("scenario %q handed off to %s", e.id, e.newOwner)
}

// handedSet tracks the scenarios this member handed off during the open
// transfer window, mapping each to its new owner. Routing consults it so
// post-handoff requests forward; commit drains it into drops, abort
// drains it into un-marking.
type handedSet struct {
	mu sync.Mutex
	m  map[string]string
}

func (h *handedSet) add(id, owner string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.m == nil {
		h.m = make(map[string]string)
	}
	h.m[id] = owner
}

func (h *handedSet) get(id string) string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.m[id]
}

func (h *handedSet) remove(id string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	delete(h.m, id)
}

func (h *handedSet) empty() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.m) == 0
}

func (h *handedSet) drain() map[string]string {
	h.mu.Lock()
	defer h.mu.Unlock()
	m := h.m
	h.m = nil
	return m
}

// receivedSet tracks the scenarios this member installed from transfer
// blocks during a proposal's window, mapped to the proposal epoch. While
// a mark is held the member serves the copy (it is the live one — the old
// owner forwards here once handed off); commit drains the marks into
// plain ownership, abort drains them into push-backs to the committed
// owners.
type receivedSet struct {
	mu sync.Mutex
	m  map[string]uint64
}

func (r *receivedSet) add(id string, epoch uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.m == nil {
		r.m = make(map[string]uint64)
	}
	r.m[id] = epoch
}

func (r *receivedSet) has(id string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.m[id]
	return ok
}

func (r *receivedSet) remove(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.m, id)
}

func (r *receivedSet) empty() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.m) == 0
}

func (r *receivedSet) snapshot() map[string]uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]uint64, len(r.m))
	for id, e := range r.m {
		out[id] = e
	}
	return out
}

func (r *receivedSet) drain() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.m = nil
}

// serverHost adapts the server to membership.Host.
type serverHost struct{ s *Server }

// ScenarioIDs lists every scenario present on this member: resident ones
// plus everything cataloged in the durable store.
func (h serverHost) ScenarioIDs() []string {
	ids := h.s.reg.scenarios.keysMRU()
	if h.s.cfg.Store == nil {
		return ids
	}
	seen := make(map[string]bool, len(ids))
	for _, id := range ids {
		seen[id] = true
	}
	for _, id := range h.s.cfg.Store.IDs() {
		if !seen[id] {
			ids = append(ids, id)
		}
	}
	return ids
}

// Handoff pushes one scenario to its new owner under the scenario's
// mutation lock; see the file comment for why the lock spans the send.
func (h serverHost) Handoff(_ context.Context, id, newOwner string, send func(block []byte) error) (int, error) {
	sc, err := h.s.reg.lookup(id)
	if err != nil {
		return 0, nil // dropped (or never completed) concurrently: nothing to move
	}
	sc.mutMu.Lock()
	defer sc.mutMu.Unlock()
	if sc.movedTo != "" {
		return 0, nil
	}
	block := store.EncodeState(sc.persistState())
	if err := send(block); err != nil {
		return 0, err
	}
	sc.movedTo = newOwner
	h.s.handed.add(id, newOwner)
	return len(block), nil
}

// CommitWindow drops every handed-off scenario after the commit
// (journaled via store.Drop on durable members) and adopts the received
// ones as plainly owned. Routing already points at the new owner — the
// committed ring does not contain this member for these keys — so the
// drop only reclaims local state.
func (h serverHost) CommitWindow() {
	for id := range h.s.handed.drain() {
		h.s.reg.drop(id, true)
	}
	h.s.received.drain()
}

// AbortWindow starts the abort reconciliation in the background: push
// received scenarios back to their committed owners, then wait for this
// member's own handed-off copies to be replaced by their receivers'
// push-backs (resuming the stale copy only past the deadline, when the
// receiver is presumed dead).
func (h serverHost) AbortWindow(epoch uint64) {
	h.s.reconciling.Add(1)
	go func() {
		defer h.s.reconciling.Add(-1)
		h.s.reconcileAbort(epoch)
	}()
}

// Reconciling reports whether an aborted window's reconciliation is still
// running; the manager refuses new proposals until it settles. (The
// received/handed sets alone cannot answer this: a transfer can land
// before this member's own propose arrives, so non-empty sets are normal
// mid-window.)
func (h serverHost) Reconciling() bool {
	return h.s.reconciling.Load() > 0
}

// reconcileTimeout bounds how long an aborted window's reconciliation
// waits on an unreachable counterpart before falling back.
const reconcileTimeout = 30 * time.Second

// reconcileAbort undoes an aborted window's handoffs without losing
// acknowledged writes. Receiver side first: every scenario installed for
// the aborted epoch is pushed back to its committed owner. Then the
// sender side: handed-off marks stay (this member keeps forwarding to the
// receiver, which serves the live copy until its push-back lands and
// replaces ours); only past the deadline — the receiver is unreachable,
// so the writes it acknowledged are on a dead peer — do we clear the
// marks and resume serving the pre-handoff copy.
func (s *Server) reconcileAbort(epoch uint64) {
	// <= catches a straggler transfer that landed after an earlier abort
	// canceled its sender: its mark must not outlive this reconciliation,
	// or routing would keep serving the copy here forever.
	for id, e := range s.received.snapshot() {
		if e <= epoch {
			s.pushBack(id)
		}
	}
	deadline := time.Now().Add(reconcileTimeout)
	for !s.handed.empty() && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	for id := range s.handed.drain() {
		if v, ok := s.reg.scenarios.get(id); ok {
			sc := v.(*scenario)
			sc.mutMu.Lock()
			sc.movedTo = ""
			sc.mutMu.Unlock()
		}
	}
}

// pushBack returns one received scenario to its committed owner: capture
// the current state under the mutation lock, POST it as a reconcile
// transfer (the owner's install replaces its stale pre-handoff copy and
// clears its handed mark), and only on acknowledgment mark the local copy
// moved and drop it. If the owner stays unreachable the copy is parked:
// the received mark is cleared so routing stops serving it, but the state
// is kept — a later transition's version-guarded transfer surfaces it
// again instead of overwriting it.
func (s *Server) pushBack(id string) {
	sc, err := s.reg.lookup(id)
	if err != nil {
		s.received.remove(id)
		return
	}
	owner := s.cluster.Owner(id)
	if owner == "" || owner == s.cluster.Self() {
		// The committed ring keeps (or puts) the key here; the copy is
		// simply ours now.
		s.received.remove(id)
		return
	}
	sc.mutMu.Lock()
	if sc.movedTo != "" {
		sc.mutMu.Unlock()
		s.received.remove(id)
		return
	}
	block := store.EncodeState(sc.persistState())
	t := memberTransport{s}
	var cerr error
	for attempt := 0; attempt < 3; attempt++ {
		ctx, cancel := context.WithTimeout(context.Background(), reconcileTimeout/3)
		_, cerr = t.Call(ctx, owner, "POST", membership.PathTransfer+"?reconcile=1", "application/octet-stream", block)
		cancel()
		if cerr == nil {
			break
		}
	}
	if cerr != nil {
		sc.mutMu.Unlock()
		s.received.remove(id)
		return
	}
	sc.movedTo = owner
	sc.mutMu.Unlock()
	s.received.remove(id)
	s.reg.drop(id, true)
}

// memberTransport carries protocol messages over the peer client.
type memberTransport struct{ s *Server }

func (t memberTransport) Call(ctx context.Context, peer, method, path, contentType string, body []byte) ([]byte, error) {
	hdr := make(http.Header)
	if contentType != "" {
		hdr.Set("Content-Type", contentType)
	}
	resp, err := t.s.peerClient(peer).Forward(ctx, method, path, hdr, body)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, maxTransferBlock))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		var e api.Error
		if json.Unmarshal(b, &e) == nil && e.Err.Message != "" {
			return nil, fmt.Errorf("%s %s: %s (%s)", method, path, e.Err.Message, e.Err.Code)
		}
		return nil, fmt.Errorf("%s %s: status %d", method, path, resp.StatusCode)
	}
	return b, nil
}

// JoinCluster runs the joiner's side of the membership handshake against
// seed (any live member). Call after the HTTP listener is serving: the
// propose/commit broadcasts and scenario transfers arrive over HTTP while
// the join call is in flight.
func (s *Server) JoinCluster(ctx context.Context, seed string) error {
	if s.member == nil {
		return fmt.Errorf("server: not a cluster member")
	}
	return s.member.Join(ctx, seed)
}

// LeaveCluster hands off every scenario this member owns and removes it
// from the ring (drain-leave). Call before BeginDrain so the member still
// serves and forwards during its own transfer window. No-op on
// non-cluster servers and members that already left.
func (s *Server) LeaveCluster(ctx context.Context) error {
	if s.member == nil {
		return nil
	}
	return s.member.Leave(ctx)
}

// clusterRoutes mounts the membership endpoints (cluster mode only; the
// requireMember guard is belt and braces).
func (s *Server) clusterRoutes() {
	s.mux.HandleFunc("POST "+membership.PathJoin, s.handleClusterJoin)
	s.mux.HandleFunc("POST "+membership.PathPropose, s.handleClusterPropose)
	s.mux.HandleFunc("POST "+membership.PathTransfer, s.handleClusterTransfer)
	s.mux.HandleFunc("POST "+membership.PathDone, s.handleClusterDone)
	s.mux.HandleFunc("POST "+membership.PathCommit, s.handleClusterCommit)
	s.mux.HandleFunc("POST "+membership.PathAbort, s.handleClusterAbort)
	s.mux.HandleFunc("GET "+membership.PathView, s.handleClusterView)
}

// requireMember guards the membership endpoints on non-cluster servers.
func (s *Server) requireMember(w http.ResponseWriter) bool {
	if s.member == nil {
		writeError(w, status.WithKind(fmt.Errorf("not a cluster member"), status.Usage))
		return false
	}
	return true
}

// writeMembershipError maps protocol errors: a busy cluster (one
// transition at a time) is a 409 conflict, everything else classifies
// through the usual table.
func writeMembershipError(w http.ResponseWriter, err error) {
	if errors.Is(err, membership.ErrBusy) {
		err = status.WithKind(err, status.Conflict)
	}
	writeError(w, err)
}

func (s *Server) handleClusterJoin(w http.ResponseWriter, r *http.Request) {
	if !s.requireMember(w) {
		return
	}
	var req membership.JoinRequest
	if err := decode(r, &req); err != nil {
		writeError(w, err)
		return
	}
	view, err := s.member.HandleJoin(r.Context(), req)
	if err != nil {
		writeMembershipError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, view)
}

func (s *Server) handleClusterPropose(w http.ResponseWriter, r *http.Request) {
	if !s.requireMember(w) {
		return
	}
	var req membership.ProposeRequest
	if err := decode(r, &req); err != nil {
		writeError(w, err)
		return
	}
	if err := s.member.HandlePropose(r.Context(), req); err != nil {
		writeMembershipError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

// handleClusterTransfer installs one transferred scenario block: decode,
// rebuild the scenario (resuming the incremental engine around the
// persisted fixpoint — no re-chase), journal it into the durable store
// before it becomes visible, and register it.
//
// The install is version-guarded for idempotence: the sender's client
// retries on transport errors, so a transfer whose 2xx was lost is
// re-sent after this member may already have acknowledged mutations on
// the installed copy. A same-content block at an equal-or-older version
// is acknowledged without overwriting. The guard also covers orphans a
// past abort parked here: a retried transition's fresh transfer finds the
// orphan's newer version and keeps it.
//
// ?epoch=N marks a window transfer — the install is recorded in the
// received set so an abort can push it back — and ?reconcile=1 marks the
// reverse direction: an aborted window's receiver returning the live
// state, which replaces the stale pre-handoff copy and clears its
// handed-off mark so this member resumes serving.
func (s *Server) handleClusterTransfer(w http.ResponseWriter, r *http.Request) {
	if !s.requireMember(w) {
		return
	}
	q := r.URL.Query()
	reconcile := q.Get("reconcile") != ""
	epoch, _ := strconv.ParseUint(q.Get("epoch"), 10, 64)
	block, err := io.ReadAll(io.LimitReader(r.Body, maxTransferBlock))
	if err != nil {
		writeError(w, status.WithKind(fmt.Errorf("reading transfer block: %w", err), status.Usage))
		return
	}
	st, err := store.DecodeState(block)
	if err != nil {
		writeError(w, status.WithKind(fmt.Errorf("decoding transfer block: %w", err), status.Usage))
		return
	}
	ack := func() {
		if reconcile {
			s.handed.remove(st.ID)
		} else if epoch != 0 {
			s.received.add(st.ID, epoch)
		}
		writeJSON(w, http.StatusOK, map[string]string{"id": st.ID})
	}
	if v, ok := s.reg.scenarios.get(st.ID); ok {
		existing := v.(*scenario)
		existing.mutMu.Lock()
		if existing.contentID == st.ContentID && existing.version() >= st.Version() {
			if reconcile {
				// Equal version: no writes landed at the receiver during
				// the window; the local copy is already current.
				existing.movedTo = ""
			}
			existing.mutMu.Unlock()
			ack()
			return
		}
		existing.mutMu.Unlock()
	}
	sc, err := s.reg.scenarioFromState(st, chase.Options{})
	if err != nil {
		writeError(w, status.WithKind(err, status.Internal))
		return
	}
	if s.reg.store != nil {
		if err := s.reg.store.Register(st); err != nil {
			s.reg.discard(sc)
			writeError(w, status.WithKind(fmt.Errorf("journaling transfer: %w", err), status.Internal))
			return
		}
	}
	s.reg.install(sc)
	ack()
}

func (s *Server) handleClusterDone(w http.ResponseWriter, r *http.Request) {
	if !s.requireMember(w) {
		return
	}
	var req membership.DoneRequest
	if err := decode(r, &req); err != nil {
		writeError(w, err)
		return
	}
	if err := s.member.HandleDone(req); err != nil {
		writeMembershipError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

func (s *Server) handleClusterCommit(w http.ResponseWriter, r *http.Request) {
	if !s.requireMember(w) {
		return
	}
	var req membership.CommitRequest
	if err := decode(r, &req); err != nil {
		writeError(w, err)
		return
	}
	if err := s.member.HandleCommit(req); err != nil {
		writeMembershipError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

func (s *Server) handleClusterAbort(w http.ResponseWriter, r *http.Request) {
	if !s.requireMember(w) {
		return
	}
	var req membership.AbortRequest
	if err := decode(r, &req); err != nil {
		writeError(w, err)
		return
	}
	s.member.HandleAbort(req)
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

func (s *Server) handleClusterView(w http.ResponseWriter, r *http.Request) {
	if !s.requireMember(w) {
		return
	}
	writeJSON(w, http.StatusOK, s.member.ViewInfo())
}
