// Package server implements dxserver: a long-running HTTP/JSON service
// that keeps data exchange scenarios resident and answers chase, core,
// canonical-solution, existence, certain-answer and enumeration requests
// over them.
//
// The design centers on amortization: a scenario (setting + source) is
// POSTed once; the server parses it, validates acyclicity, compiles the
// dependency and query plans (cached on the parsed Setting), and keeps the
// chase result in the scenario's incremental engine — chased eagerly for
// weakly acyclic settings, on first use otherwise — beside memoized core
// and canonical solution. Successful response bodies are additionally cached
// byte-for-byte in a content-keyed LRU, so identical requests are served
// identically without re-evaluation (observable via the server_cache_hits
// counter on /metricsz).
//
// Every evaluation request runs under a per-request deadline and chase
// step budget, mapped to status codes by internal/status (timeout → 504,
// budget → 422, size bounds → 413, no solution → 404), behind a
// bounded-concurrency admission gate (worker slots + a bounded wait queue;
// overflow → 503). Graceful shutdown first drains in-flight work, then
// aborts whatever outlives the drain deadline through the contexts every
// chase already honours.
package server

import (
	"context"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/membership"
	"repro/internal/server/client"
	"repro/internal/store"
)

// Config tunes a Server. The zero value is usable: every field has a
// sensible default.
type Config struct {
	// MaxConcurrent is the number of evaluation requests allowed to run
	// simultaneously (default GOMAXPROCS).
	MaxConcurrent int
	// QueueDepth is how many additional requests may wait for a slot
	// before the gate starts rejecting with 503 (0 = default
	// 4×MaxConcurrent; negative = no queue, reject as soon as every slot
	// is busy).
	QueueDepth int
	// DefaultDeadline is applied to requests that carry no deadline_ms
	// (default 30s).
	DefaultDeadline time.Duration
	// MaxDeadline caps request deadlines (default 5m).
	MaxDeadline time.Duration
	// DefaultMaxSteps is the chase budget for requests that carry no
	// max_steps (0 = the chase package default).
	DefaultMaxSteps int
	// MaxEnumSolutions caps (and defaults) the /v1/enum bound
	// (default 256).
	MaxEnumSolutions int
	// MaxScenarios bounds the resident scenarios; least recently used
	// scenarios are evicted (default 128).
	MaxScenarios int
	// MaxResults bounds the cached response bodies (default 4096).
	MaxResults int
	// Workers is the default evaluation parallelism for certain/enum
	// requests that carry no workers field (0 = GOMAXPROCS).
	Workers int
	// Store, when non-nil, makes the server durable: registrations and
	// mutations are journaled to its WAL before acknowledgement, capacity
	// evictions page scenario state to disk, and lookups rehydrate from the
	// catalog. The caller owns opening it (store.Open) and the server closes
	// it in Shutdown. Nil keeps today's memory-only behavior on every path.
	Store *store.Store
	// Cluster, when non-nil, makes the server a cluster member: requests
	// for scenarios the consistent-hash ring places elsewhere are forwarded
	// to the owning node (internal/server/cluster.go), and forwarded read
	// results are replicated in the local result cache behind ETag
	// revalidation. Nil keeps single-node behavior on every path.
	Cluster *cluster.Cluster
	// PeerHTTPClient is the transport used for peer forwards (nil =
	// http.DefaultClient). Tests inject one to reach in-process peers.
	PeerHTTPClient *http.Client
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 4 * c.MaxConcurrent
	} else if c.QueueDepth < 0 {
		c.QueueDepth = 0
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 30 * time.Second
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 5 * time.Minute
	}
	if c.MaxEnumSolutions <= 0 {
		c.MaxEnumSolutions = 256
	}
	if c.MaxScenarios <= 0 {
		c.MaxScenarios = 128
	}
	if c.MaxResults <= 0 {
		c.MaxResults = 4096
	}
	return c
}

// Server is the dxserver HTTP handler. Create with New, serve with any
// http.Server, shut down with BeginDrain (stop admitting) followed by
// http.Server.Shutdown (drain), and Abort as the last resort for work that
// outlives the drain deadline.
type Server struct {
	cfg     Config
	reg     *registry
	gate    *gate
	mux     *http.ServeMux
	cluster *cluster.Cluster

	// member runs the dynamic-membership protocol (join/leave transitions
	// with live scenario handoff); nil outside cluster mode. handed tracks
	// the scenarios this member pushed to new owners during the open
	// transfer window; received tracks the ones installed from transfer
	// blocks, per proposal epoch, so an abort can push them back.
	member   *membership.Manager
	handed   handedSet
	received receivedSet
	// reconciling counts in-flight post-abort reconciliations (normally 0
	// or 1); new proposals are refused while it is non-zero.
	reconciling atomic.Int32

	peerMu sync.Mutex
	peers  map[string]*client.Client

	// pinned memoizes the content-derived name rewrite for unnamed
	// registrations (cluster mode only): raw body hash → rewritten body.
	// The rewrite is a pure function of the body, so entries never go
	// stale; the LRU only bounds memory.
	pinned *lru

	drainOnce sync.Once
	draining  chan struct{}
	abortOnce sync.Once
	aborted   chan struct{}
}

// New builds a Server with the given configuration.
func New(cfg Config) *Server {
	s := &Server{
		cfg:      cfg.withDefaults(),
		cluster:  cfg.Cluster,
		peers:    make(map[string]*client.Client),
		draining: make(chan struct{}),
		aborted:  make(chan struct{}),
	}
	if s.cluster != nil {
		s.pinned = newLRU(256)
	}
	s.reg = newRegistry(s.cfg.MaxScenarios, s.cfg.MaxResults, s.cfg.Store)
	s.reg.seedFromStore()
	s.gate = newGate(s.cfg.MaxConcurrent, s.cfg.QueueDepth)
	s.mux = http.NewServeMux()
	s.routes()
	if s.cluster != nil {
		// Every cluster member runs the membership protocol, statically
		// booted ones included: a fleet started with -cluster accepts
		// joiners and drain-leaves without reconfiguration. If no
		// transition ever happens, the committed view stays at epoch 1
		// with the configured peer list — identical routing to before.
		s.clusterRoutes()
		// Handed-off scenarios refuse local drops even when not resident
		// (LRU-evicted mid-window): the catalog branch of drop consults the
		// handed map and forwards instead.
		s.reg.moved = s.handed.get
		s.member = membership.New(membership.Config{
			Cluster:   s.cluster,
			Host:      serverHost{s},
			Transport: memberTransport{s},
		})
	}
	if s.cfg.Store != nil {
		// Background warm-up: rehydrate up to a residency's worth of
		// recovered scenarios so the first requests after a restart do not
		// all pay a page-in. /healthz reports recovering=true until it
		// finishes; requests are served (lazily rehydrating) throughout.
		s.cfg.Store.SetRecovering(true)
		go s.warmStore()
	}
	return s
}

// warmStore rehydrates recovered scenarios (in id order, up to the
// resident bound) and then clears the recovery flag.
func (s *Server) warmStore() {
	defer s.cfg.Store.SetRecovering(false)
	n := 0
	for _, id := range s.cfg.Store.IDs() {
		if n >= s.cfg.MaxScenarios || s.Draining() {
			return
		}
		if _, err := s.reg.lookup(id); err == nil {
			n++
		}
	}
}

// ServeHTTP implements http.Handler. In cluster mode the routing layer
// first forwards requests whose scenario lives on another node; everything
// it declines is served locally.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s.cluster != nil && s.clusterRoute(w, r) {
		return
	}
	s.mux.ServeHTTP(w, r)
}

// BeginDrain makes the server refuse new evaluation work (503) while
// letting in-flight requests finish. Idempotent.
func (s *Server) BeginDrain() {
	s.drainOnce.Do(func() { close(s.draining) })
}

// Draining reports whether BeginDrain was called.
func (s *Server) Draining() bool {
	select {
	case <-s.draining:
		return true
	default:
		return false
	}
}

// Abort cancels the context of every in-flight evaluation (they fail fast
// with the timeout mapping). Call after a drain deadline expires, before
// giving up on http.Server.Shutdown. Idempotent.
func (s *Server) Abort() {
	s.abortOnce.Do(func() { close(s.aborted) })
}

// SnapshotNow writes a durable-store snapshot of the full catalog —
// resident scenarios contribute their live state — and compacts the WAL
// behind it. No-op without a store.
func (s *Server) SnapshotNow() error {
	return s.reg.snapshotNow()
}

// CloseStore finalizes the durable store at shutdown: a last snapshot
// (capturing every resident scenario's fixpoint) followed by a flush and
// close. After it returns, a restart recovers from the snapshot alone and
// replays zero WAL records. Call after the HTTP server has drained; no-op
// without a store.
func (s *Server) CloseStore() error {
	if s.cfg.Store == nil {
		return nil
	}
	snapErr := s.reg.snapshotNow()
	if err := s.cfg.Store.Flush(); err != nil && snapErr == nil {
		snapErr = err
	}
	if err := s.cfg.Store.Close(); err != nil && snapErr == nil {
		snapErr = err
	}
	return snapErr
}

// StoreStats reports the durable store's health summary, and false when
// the server runs memory-only.
func (s *Server) StoreStats() (store.Stats, bool) {
	if s.cfg.Store == nil {
		return store.Stats{}, false
	}
	return s.cfg.Store.Stats(), true
}

// InFlight returns the number of admitted evaluation requests currently
// executing.
func (s *Server) InFlight() int {
	return int(s.gate.inFlight.Load())
}

// Scenarios returns the number of resident scenarios.
func (s *Server) Scenarios() int {
	return s.reg.scenarios.len()
}

// evalContext derives the context an evaluation runs under: the request's
// context (client disconnect), the request deadline capped by the server
// maximum, and the server's abort switch. The returned cancel must be
// called.
func (s *Server) evalContext(r *http.Request, deadlineMillis int) (context.Context, context.CancelFunc) {
	d := s.cfg.DefaultDeadline
	if deadlineMillis > 0 {
		d = time.Duration(deadlineMillis) * time.Millisecond
	}
	if d > s.cfg.MaxDeadline {
		d = s.cfg.MaxDeadline
	}
	ctx, cancel := context.WithTimeout(r.Context(), d)
	go func() {
		select {
		case <-s.aborted:
			cancel()
		case <-ctx.Done():
		}
	}()
	return ctx, cancel
}
