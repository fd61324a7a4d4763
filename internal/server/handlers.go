package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"

	"repro/internal/certain"
	"repro/internal/chase"
	"repro/internal/cwa"
	"repro/internal/instance"
	"repro/internal/metrics"
	"repro/internal/parser"
	"repro/internal/query"
	"repro/internal/server/api"
	"repro/internal/status"
)

func (s *Server) routes() {
	s.mux.HandleFunc("POST /v1/scenarios", s.handleRegister)
	s.mux.HandleFunc("GET /v1/scenarios", s.handleListScenarios)
	s.mux.HandleFunc("GET /v1/scenarios/{id}", s.handleGetScenario)
	s.mux.HandleFunc("DELETE /v1/scenarios/{id}", s.handleDeleteScenario)
	s.mux.HandleFunc("POST /v1/scenarios/{id}/source/tuples", s.handleMutate(true))
	s.mux.HandleFunc("DELETE /v1/scenarios/{id}/source/tuples", s.handleMutate(false))
	s.mux.HandleFunc("POST /v1/chase", s.handleChase)
	s.mux.HandleFunc("POST /v1/core", s.handleCore)
	s.mux.HandleFunc("POST /v1/cansol", s.handleCanSol)
	s.mux.HandleFunc("POST /v1/exists", s.handleExists)
	s.mux.HandleFunc("POST /v1/certain", s.handleCertain)
	s.mux.HandleFunc("POST /v1/enum", s.handleEnum)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /metricsz", s.handleMetrics)
}

// planHeader names the certain-answer method (certain.Method) that answers
// a /v1/certain request.
const planHeader = "X-Dx-Plan"

// semanticsByName maps the wire names to the four Section 7.1 semantics.
var semanticsByName = map[string]certain.Semantics{
	"certain-cap": certain.CertainCap,
	"certain-cup": certain.CertainCup,
	"maybe-cap":   certain.MaybeCap,
	"maybe-cup":   certain.MaybeCup,
}

// writeJSON writes v with the given status; bodies end in a newline so
// curl output is readable.
func writeJSON(w http.ResponseWriter, code int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		http.Error(w, `{"error":{"code":"internal","message":"marshal failure"}}`, 500)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(append(body, '\n'))
}

// writeError maps err through the internal/status table (plus the
// server-side overloaded/unknown-scenario cases) to an HTTP status and a
// JSON error envelope.
func writeError(w http.ResponseWriter, err error) {
	code, httpStatus := errorCode(err)
	writeJSON(w, httpStatus, api.Error{Err: api.ErrorBody{Code: code, Message: err.Error()}})
}

func errorCode(err error) (code string, httpStatus int) {
	switch {
	case errors.Is(err, errOverloaded):
		return "overloaded", http.StatusServiceUnavailable
	case errors.Is(err, errUnknownScenario):
		return "unknown_scenario", http.StatusNotFound
	}
	k := status.Classify(err)
	return k.String(), k.HTTPStatus()
}

// decode reads a JSON request body into v.
func decode(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return status.WithKind(fmt.Errorf("decoding request body: %w", err), status.Usage)
	}
	return nil
}

// admit passes the request through the admission gate and the drain check.
// On success the caller owes a call to the returned release func.
func (s *Server) admit(r *http.Request) (func(), error) {
	if s.Draining() {
		return nil, fmt.Errorf("%w: draining", errOverloaded)
	}
	if err := s.gate.acquire(r.Context()); err != nil {
		return nil, err
	}
	metrics.ServerRequests.Inc()
	return s.gate.release, nil
}

func (s *Server) opts(req api.EvalRequest) chase.Options {
	maxSteps := req.MaxSteps
	if maxSteps <= 0 {
		maxSteps = s.cfg.DefaultMaxSteps
	}
	return chase.Options{MaxSteps: maxSteps}
}

// cached serves the result-cache entry for key if present; otherwise it
// computes the response value, caches the marshaled body on success, and
// serves it. Identical requests therefore return byte-identical bodies,
// with the cache outcome visible in the X-Cache header and the
// server_cache_hits / server_cache_misses counters.
//
// Every response carries an ETag derived from the result key. Because the
// key embeds everything that determines the body (content identity, source
// version, endpoint, parameters) and bodies are deterministic functions of
// it, an If-None-Match hit can answer 304 without computing anything: the
// requester's cached body is the body this request would produce. Cluster
// members revalidate their replicated copies this way, and a mutation —
// which bumps the version inside the key — changes the tag, so stale
// replicas miss and refresh themselves.
func (s *Server) cached(w http.ResponseWriter, r *http.Request, key string, compute func() (any, error)) {
	etag := resultETag(key)
	w.Header().Set("ETag", etag)
	if r.Header.Get("If-None-Match") == etag {
		metrics.ServerCacheHits.Inc()
		w.Header().Set("X-Cache", "revalidated")
		w.WriteHeader(http.StatusNotModified)
		return
	}
	if body, ok := s.reg.results.get(key); ok {
		metrics.ServerCacheHits.Inc()
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Cache", "hit")
		w.WriteHeader(http.StatusOK)
		w.Write(body.([]byte))
		return
	}
	metrics.ServerCacheMisses.Inc()
	v, err := compute()
	if err != nil {
		writeError(w, err)
		return
	}
	body, err := json.Marshal(v)
	if err != nil {
		writeError(w, err)
		return
	}
	body = append(body, '\n')
	s.reg.results.put(key, body)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", "miss")
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req api.RegisterRequest
	if err := decode(r, &req); err != nil {
		writeError(w, err)
		return
	}
	release, err := s.admit(r)
	if err != nil {
		writeError(w, err)
		return
	}
	defer release()
	ctx, cancel := s.evalContext(r, 0)
	defer cancel()
	opt := chase.Options{MaxSteps: req.MaxSteps, Ctx: ctx}
	if opt.MaxSteps <= 0 {
		opt.MaxSteps = s.cfg.DefaultMaxSteps
	}
	sc, existing, err := s.reg.register(req.Name, req.Setting, req.Source, opt)
	if err != nil {
		writeError(w, err)
		return
	}
	info := s.scenarioInfo(sc)
	info.Existing = existing
	code := http.StatusCreated
	if existing {
		code = http.StatusOK
	}
	writeJSON(w, code, info)
}

func (s *Server) scenarioInfo(sc *scenario) api.ScenarioInfo {
	info := api.ScenarioInfo{
		ID:            sc.id,
		WeaklyAcyclic: sc.setting().WeaklyAcyclic(),
		RichlyAcyclic: sc.setting().RichlyAcyclic(),
		SourceAtoms:   sc.engine.SourceSnapshot().Len(),
		Version:       sc.version(),
		Incremental:   sc.engine.Maintainable(),
	}
	if st := sc.engine.Status(); st.Chased {
		info.Chased = true
		info.ChaseSteps = st.Steps
		info.UniversalAtoms = st.Atoms
	}
	return info
}

func (s *Server) handleListScenarios(w http.ResponseWriter, r *http.Request) {
	ids := s.reg.scenarios.keysMRU()
	sort.Strings(ids)
	list := api.ScenarioList{Scenarios: make([]api.ScenarioInfo, 0, len(ids))}
	for _, id := range ids {
		if v, ok := s.reg.scenarios.get(id); ok {
			list.Scenarios = append(list.Scenarios, s.scenarioInfo(v.(*scenario)))
		}
	}
	writeJSON(w, http.StatusOK, list)
}

func (s *Server) handleGetScenario(w http.ResponseWriter, r *http.Request) {
	sc, err := s.reg.lookup(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, s.scenarioInfo(sc))
}

func (s *Server) handleDeleteScenario(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	dropped, err := s.reg.drop(id, false)
	if err != nil {
		// The scenario was handed off to a new owner while this request
		// was in flight; the delete belongs there now.
		var mv *errMoved
		if errors.As(err, &mv) && s.cluster != nil {
			s.forwardMoved(w, r, mv.newOwner, nil)
			return
		}
		writeError(w, err)
		return
	}
	if !dropped {
		writeError(w, fmt.Errorf("%w: %q", errUnknownScenario, id))
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"deleted": id})
}

// handleMutate serves the source-mutation endpoints: POST inserts the
// request's tuples, DELETE removes them. The batch runs under the admission
// gate and a request deadline like any evaluation (an insert triggers a
// delta chase; a delete walks the justification graph or falls back to a
// re-chase), bumps the scenario version, and precisely invalidates cached
// results — entries for older versions can never serve the new state
// because the version is part of every result key.
func (s *Server) handleMutate(insert bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req api.MutateRequest
		if err := decode(r, &req); err != nil {
			writeError(w, err)
			return
		}
		sc, err := s.reg.lookup(r.PathValue("id"))
		if err != nil {
			writeError(w, err)
			return
		}
		ins, err := parser.ParseInstance(req.Tuples)
		if err != nil {
			writeError(w, status.WithKind(fmt.Errorf("parsing tuples: %w", err), status.Usage))
			return
		}
		atoms := ins.Atoms()
		if len(atoms) == 0 {
			writeError(w, status.WithKind(fmt.Errorf("no tuples in request"), status.Usage))
			return
		}
		muts := make([]instance.Mutation, len(atoms))
		for i, a := range atoms {
			muts[i] = instance.Mutation{Insert: insert, Atom: a}
		}
		release, err := s.admit(r)
		if err != nil {
			writeError(w, err)
			return
		}
		defer release()
		ctx, cancel := s.evalContext(r, req.DeadlineMillis)
		defer cancel()
		opt := chase.Options{MaxSteps: req.MaxSteps, Ctx: ctx}
		if opt.MaxSteps <= 0 {
			opt.MaxSteps = s.cfg.DefaultMaxSteps
		}
		res, err := s.reg.mutate(sc, muts, req.BaseVersion, opt)
		if err != nil {
			// A handoff won the mutation lock first: the scenario now lives
			// at its new owner, which installed it (with the version
			// counter) before the mark was set — forward the batch there
			// and the base_version contract carries over.
			var mv *errMoved
			if errors.As(err, &mv) && s.cluster != nil {
				if body, merr := json.Marshal(req); merr == nil {
					s.forwardMoved(w, r, mv.newOwner, body)
					return
				}
			}
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, api.MutateResponse{
			Scenario:   sc.id,
			Version:    res.Version,
			Inserted:   res.Inserted,
			Deleted:    res.Deleted,
			Fallback:   res.Fallback,
			NoSolution: res.NoSolution,
			Steps:      res.Steps,
			Atoms:      res.Atoms,
		})
	}
}

// eval is the shared preamble of the evaluation endpoints: decode, admit,
// look up the scenario, derive the context. The returned cleanup releases
// the slot and cancels the context.
func (s *Server) eval(w http.ResponseWriter, r *http.Request) (req api.EvalRequest, sc *scenario, opt chase.Options, cleanup func(), ok bool) {
	if err := decode(r, &req); err != nil {
		writeError(w, err)
		return req, nil, opt, nil, false
	}
	if req.Scenario == "" {
		writeError(w, status.WithKind(fmt.Errorf("missing scenario"), status.Usage))
		return req, nil, opt, nil, false
	}
	sc, err := s.reg.lookup(req.Scenario)
	if err != nil {
		writeError(w, err)
		return req, nil, opt, nil, false
	}
	release, err := s.admit(r)
	if err != nil {
		writeError(w, err)
		return req, nil, opt, nil, false
	}
	ctx, cancel := s.evalContext(r, req.DeadlineMillis)
	opt = s.opts(req)
	opt.Ctx = ctx
	return req, sc, opt, func() { cancel(); release() }, true
}

func (s *Server) handleChase(w http.ResponseWriter, r *http.Request) {
	req, sc, opt, cleanup, ok := s.eval(w, r)
	if !ok {
		return
	}
	defer cleanup()
	s.cached(w, r, resultKey(sc, "chase"), func() (any, error) {
		u, steps, err := sc.chaseFor(opt)
		if err != nil {
			return nil, err
		}
		return api.ChaseResponse{
			Scenario:  req.Scenario,
			Steps:     steps,
			Universal: parser.FormatInstance(u),
			Atoms:     u.Len(),
		}, nil
	})
}

func (s *Server) handleCore(w http.ResponseWriter, r *http.Request) {
	req, sc, opt, cleanup, ok := s.eval(w, r)
	if !ok {
		return
	}
	defer cleanup()
	s.cached(w, r, resultKey(sc, "core"), func() (any, error) {
		core, err := sc.coreFor(opt)
		if err != nil {
			return nil, err
		}
		return api.InstanceResponse{
			Scenario: req.Scenario,
			Instance: parser.FormatInstance(core),
			Atoms:    core.Len(),
		}, nil
	})
}

func (s *Server) handleCanSol(w http.ResponseWriter, r *http.Request) {
	req, sc, opt, cleanup, ok := s.eval(w, r)
	if !ok {
		return
	}
	defer cleanup()
	s.cached(w, r, resultKey(sc, "cansol"), func() (any, error) {
		can, err := sc.cansolFor(opt)
		if err != nil {
			return nil, err
		}
		return api.InstanceResponse{
			Scenario: req.Scenario,
			Instance: parser.FormatInstance(can),
			Atoms:    can.Len(),
		}, nil
	})
}

func (s *Server) handleExists(w http.ResponseWriter, r *http.Request) {
	req, sc, opt, cleanup, ok := s.eval(w, r)
	if !ok {
		return
	}
	defer cleanup()
	s.cached(w, r, resultKey(sc, "exists"), func() (any, error) {
		exists, err := sc.exists(opt)
		if err != nil {
			return nil, err
		}
		return api.ExistsResponse{Scenario: req.Scenario, Exists: exists}, nil
	})
}

// parseQuery accepts a UCQ ("q(x) :- E(x,y).") or, failing that, an FO
// query ("(x) . Pp(x) | ...").
func parseQuery(text string) (query.Evaluable, error) {
	u, uerr := parser.ParseUCQ(text)
	if uerr == nil {
		return u, nil
	}
	f, ferr := parser.ParseFOQuery(text)
	if ferr == nil {
		return f, nil
	}
	return nil, status.WithKind(
		fmt.Errorf("parsing query: not a UCQ (%v) nor an FO query (%v)", uerr, ferr),
		status.Usage)
}

func (s *Server) handleCertain(w http.ResponseWriter, r *http.Request) {
	req, sc, opt, cleanup, ok := s.eval(w, r)
	if !ok {
		return
	}
	defer cleanup()
	semName := req.Semantics
	if semName == "" {
		semName = "certain-cap"
	}
	sem, known := semanticsByName[semName]
	if !known {
		writeError(w, status.WithKind(fmt.Errorf("unknown semantics %q", semName), status.Usage))
		return
	}
	q, err := parseQuery(req.Query)
	if err != nil {
		writeError(w, err)
		return
	}
	workers := req.Workers
	if workers <= 0 {
		workers = s.cfg.Workers
	}
	// The method depends only on the query, the setting and the semantics,
	// so cached and revalidated answers report it too.
	w.Header().Set(planHeader, certain.Choose(sc.setting(), q, sem).String())
	s.cached(w, r, resultKey(sc, "certain", semName, req.Query), func() (any, error) {
		ans, err := certain.AnswersOn(sc.setting(), q, scenarioSolutions{sc, opt}, sem,
			certain.Options{Chase: opt, Workers: workers})
		if err != nil {
			return nil, err
		}
		return api.CertainResponse{
			Scenario:  req.Scenario,
			Semantics: semName,
			Query:     req.Query,
			Answers:   sortedAnswers(ans),
		}, nil
	})
}

// sortedAnswers renders a tuple set as sorted string tuples, so equal
// answer sets always serialize identically regardless of the worker count
// or visit order that produced them.
func sortedAnswers(ts *query.TupleSet) [][]string {
	out := make([][]string, 0, ts.Len())
	for _, t := range ts.Tuples() {
		row := make([]string, len(t))
		for i, v := range t {
			row[i] = v.String()
		}
		out = append(out, row)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		for k := 0; k < len(a) && k < len(b); k++ {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return len(a) < len(b)
	})
	return out
}

// handleEnum streams CWA-solutions as NDJSON: one api.EnumSolution line
// per solution (smallest first), then an api.EnumSummary line. The bound
// is req.Max capped by the server's MaxEnumSolutions.
//
// The enumeration runs on the engine's maintained universal solution in
// place, with the source snapshot read inside the view so that both are of
// the same version; a mutation of the scenario waits for it. A source
// whose chase failed on an egd has no CWA-solutions: an empty stream.
func (s *Server) handleEnum(w http.ResponseWriter, r *http.Request) {
	req, sc, opt, cleanup, ok := s.eval(w, r)
	if !ok {
		return
	}
	defer cleanup()
	maxSols := req.Max
	if maxSols <= 0 || maxSols > s.cfg.MaxEnumSolutions {
		maxSols = s.cfg.MaxEnumSolutions
	}
	workers := req.Workers
	if workers <= 0 {
		workers = s.cfg.Workers
	}
	var sols []*instance.Instance
	var enumErr error
	err := sc.engine.View(opt, func(u *instance.Instance) {
		sols, enumErr = cwa.EnumerateOn(sc.setting(), sc.engine.SourceSnapshot(), u, cwa.EnumOptions{
			MaxSolutions: maxSols,
			ChaseOptions: opt,
			Workers:      workers,
		})
	})
	switch {
	case chase.IsEgdFailure(err):
		err = nil // no solutions at all
	case err == nil:
		err = enumErr
	}
	truncated := errors.Is(err, cwa.ErrEnumerationTruncated)
	if err != nil && !truncated {
		writeError(w, err)
		return
	}
	cwa.SortEnumeratedBySize(sols)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	ctx := r.Context()
	for _, sol := range sols {
		// A disconnected client never sees further lines; stop streaming
		// instead of encoding into a dead connection. Encode errors mean the
		// same thing (the ResponseWriter surfaces the broken pipe).
		select {
		case <-ctx.Done():
			metrics.ServerStreamAborts.Inc()
			return
		default:
		}
		if err := enc.Encode(api.EnumSolution{Solution: parser.FormatInstance(sol), Atoms: sol.Len()}); err != nil {
			metrics.ServerStreamAborts.Inc()
			return
		}
	}
	if err := enc.Encode(api.EnumSummary{Done: true, Count: len(sols), Truncated: truncated}); err != nil {
		metrics.ServerStreamAborts.Inc()
		return
	}
	// Every solution was computed before the first line, so flushing per
	// line would only split the response into more writes.
	if flusher, ok := w.(http.Flusher); ok {
		flusher.Flush()
	}
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	st := "ok"
	if s.Draining() {
		st = "draining"
	}
	h := api.Health{
		Status:    st,
		Scenarios: s.Scenarios(),
		InFlight:  s.InFlight(),
		Draining:  s.Draining(),
	}
	if stats, ok := s.StoreStats(); ok {
		h.Durable = true
		h.StoreScenarios = stats.Scenarios
		h.Replayed = stats.Replayed
		h.Recovering = stats.Recovering
	}
	if s.cluster != nil {
		h.Cluster = s.clusterHealth(r)
	}
	writeJSON(w, http.StatusOK, h)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	metrics.WriteText(w)
}
