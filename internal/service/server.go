// Package service exposes a tlc.Database as a concurrent HTTP/JSON query
// service. The server composes context cancellation threaded through plan
// evaluation (request deadlines stop operator loops, not just handler
// returns), a prepared-plan cache (see plancache) shared by concurrent
// requests, admission control with a bounded wait queue (429/503 shedding
// under overload), a panic barrier per request (a panic is a 500 for that
// request alone), and /varz metrics with latency quantiles.
//
// Endpoints:
//
//	POST /query     {"query": "...", "engine": "TLC", ...} -> results
//	POST /explain   same body -> plan text
//	POST /profile   same body -> per-operator profile text
//	POST /load      ?name=doc.xml with an XML body, or ?name=&xmark=1
//	POST /update    {"doc": "...", "op": "insert", "target": "...", ...}
//	POST /snapshot  ?dir=/path — write a columnar snapshot of the store
//	                (with a WAL attached, also a durable checkpoint:
//	                rotate, snapshot, truncate)
//	GET  /documents loaded document names and versions
//	GET  /healthz   liveness (alias /livez): the process is up
//	GET  /readyz    readiness: 503 while replaying the WAL or draining
//	GET  /varz      metrics JSON; takes no lock a stalled commit can hold
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"tlc"
	"tlc/internal/failure"
	"tlc/internal/faultinject"
	"tlc/internal/governor"
	"tlc/internal/plancache"
	"tlc/internal/seq"
)

// Config configures a Server. The zero value of every field selects a
// sensible default.
type Config struct {
	// DB is the database to serve. Required.
	DB *tlc.Database
	// MaxConcurrent bounds concurrently evaluating requests
	// (default GOMAXPROCS).
	MaxConcurrent int
	// QueueDepth bounds requests waiting for an evaluation slot
	// (default 2*MaxConcurrent). Beyond it requests get 429.
	QueueDepth int
	// DefaultTimeout is the per-request evaluation deadline when the
	// request does not set one (default 30s).
	DefaultTimeout time.Duration
	// MaxTimeout caps request-supplied deadlines (default 5m).
	MaxTimeout time.Duration
	// CacheSize is the plan cache capacity in plans (default 128).
	CacheSize int
	// Parallelism is ignored: every query is evaluated serially. It
	// remains only because bench/layers.go:436 sets it; the next benchmark
	// change deletes it.
	Parallelism int
	// Limits is the default per-query resource budget (zero = ungoverned).
	// Requests may set their own limits, which override the corresponding
	// defaults; exceeding any budget aborts that query with a 422.
	Limits tlc.Limits
}

func (c *Config) fillDefaults() {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 2 * c.MaxConcurrent
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 5 * time.Minute
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 128
	}
}

// Server handles the HTTP endpoints. Create with New, mount with Handler.
type Server struct {
	cfg     Config
	db      *tlc.Database
	cache   *plancache.Cache
	limiter *Limiter
	metrics *Metrics
	start   time.Time

	// Snapshot gauges for /varz: snapshots written since start, and the
	// byte size and wall time of the most recent one.
	snapshotsWritten  atomic.Int64
	lastSnapshotBytes atomic.Int64
	lastSnapshotWall  atomic.Int64 // nanoseconds
	// shed counts requests refused by admission control (429 or queued
	// past deadline).
	shed atomic.Int64

	// recovering marks the WAL-replay window between process start and
	// EndRecovery: /readyz reports 503 and mutating endpoints shed, while
	// liveness and read-only endpoints stay up. draining marks the
	// graceful-shutdown window with the same readiness effect.
	recovering atomic.Bool
	draining   atomic.Bool
	// recApplied/recSkipped/recDurNs expose replay progress in /varz and
	// /readyz while recovering (and the final totals afterwards).
	recApplied atomic.Int64
	recSkipped atomic.Int64
	recDurNs   atomic.Int64

	// preEval, when set by tests, runs after admission and plan lookup,
	// immediately before evaluation — it lets overload tests hold all
	// evaluation slots deterministically.
	preEval func()
}

// New returns a Server for cfg.
func New(cfg Config) (*Server, error) {
	if cfg.DB == nil {
		return nil, errors.New("service: Config.DB is required")
	}
	cfg.fillDefaults()
	return &Server{
		cfg:     cfg,
		db:      cfg.DB,
		cache:   plancache.New(cfg.CacheSize),
		limiter: NewLimiter(cfg.MaxConcurrent, cfg.QueueDepth),
		metrics: NewMetrics(),
		start:   time.Now(),
	}, nil
}

// Handler returns the HTTP handler serving all endpoints.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.instrument(s.protect("query", s.handleQuery)))
	mux.HandleFunc("/explain", s.instrument(s.protect("explain", s.handleExplain)))
	mux.HandleFunc("/profile", s.instrument(s.protect("profile", s.handleProfile)))
	mux.HandleFunc("/load", s.instrument(s.protect("load", s.handleLoad)))
	mux.HandleFunc("/snapshot", s.instrument(s.protect("snapshot", s.handleSnapshot)))
	mux.HandleFunc("/update", s.instrument(s.protect("update", s.handleUpdate)))
	mux.HandleFunc("/documents", s.instrument(s.handleDocuments))
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/livez", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/varz", s.handleVarz)
	return mux
}

// BeginRecovery puts the server in the recovering state: /readyz reports
// 503 and mutating endpoints shed with code "recovering" while the WAL
// replays. Call before the listener starts accepting so a load balancer
// never routes a write to a half-replayed store.
func (s *Server) BeginRecovery() { s.recovering.Store(true) }

// RecoveryProgress records replay progress (the AttachWAL OnProgress
// hook); /varz and /readyz surface it live.
func (s *Server) RecoveryProgress(applied, skipped int) {
	s.recApplied.Store(int64(applied))
	s.recSkipped.Store(int64(skipped))
}

// EndRecovery leaves the recovering state, recording the final replay
// totals.
func (s *Server) EndRecovery(applied, skipped int, dur time.Duration) {
	s.recApplied.Store(int64(applied))
	s.recSkipped.Store(int64(skipped))
	s.recDurNs.Store(int64(dur))
	s.recovering.Store(false)
}

// SetDraining marks the server as shutting down: /readyz flips to 503 so
// load balancers stop routing new work, while in-flight requests drain.
func (s *Server) SetDraining() { s.draining.Store(true) }

// gateRecovery sheds a mutating request while the store is replaying its
// WAL or the process is draining; reads stay up. Returns true when the
// request was shed.
func (s *Server) gateRecovery(w http.ResponseWriter, endpoint string) bool {
	state := ""
	switch {
	case s.recovering.Load():
		state = "recovering"
	case s.draining.Load():
		state = "draining"
	default:
		return false
	}
	w.Header().Set("Retry-After", "1")
	writeErrorCode(w, http.StatusServiceUnavailable, codeRecovering, "%s: node is %s", endpoint, state)
	return true
}

// statusWriter remembers the status code for metrics and whether a
// response has started (the panic barrier must not write a second one).
type statusWriter struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.wrote = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(p)
}

func (s *Server) instrument(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		begin := time.Now()
		h(sw, r)
		s.metrics.Observe(sw.status, time.Since(begin))
	}
}

// protect wraps an evaluation endpoint in its panic barrier: a handler
// panic becomes a 500 for that request alone, not a dead process, and the
// next request is served as if it never happened.
func (s *Server) protect(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				err := failure.FromPanic("service."+endpoint, rec)
				if sw, ok := w.(*statusWriter); !ok || !sw.wrote {
					writeErrorCode(w, http.StatusInternalServerError, codeInternal, "%v", err)
				}
			}
		}()
		h(w, r)
	}
}

// queryRequest is the JSON body of /query, /explain and /profile.
type queryRequest struct {
	// Query is the XQuery text. Required.
	Query string `json:"query"`
	// Engine selects the evaluation engine by name (TLC, OPT, GTP, TAX,
	// NAV); empty means TLC.
	Engine string `json:"engine,omitempty"`
	// TimeoutMS overrides the server's default evaluation deadline,
	// capped at Config.MaxTimeout.
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// MaxNodes, MaxBytes and MaxResult override the server's default
	// resource budget for this query (0 keeps the server default; see
	// Config.Limits). Exceeding a budget aborts with 422 budget_exceeded.
	MaxNodes  int64 `json:"max_nodes,omitempty"`
	MaxBytes  int64 `json:"max_bytes,omitempty"`
	MaxResult int64 `json:"max_result,omitempty"`
	// MaxWallMS caps evaluation wall time as a budget (422) rather than a
	// deadline (504).
	MaxWallMS int `json:"max_wall_ms,omitempty"`
}

// limits resolves the request's effective resource budget: the server
// default with any request-set budget overriding its field.
func (s *Server) limits(req *queryRequest) tlc.Limits {
	l := s.cfg.Limits
	if req.MaxNodes > 0 {
		l.MaxArenaNodes = req.MaxNodes
	}
	if req.MaxBytes > 0 {
		l.MaxArenaBytes = req.MaxBytes
	}
	if req.MaxResult > 0 {
		l.MaxResultCard = req.MaxResult
	}
	if req.MaxWallMS > 0 {
		l.MaxWall = time.Duration(req.MaxWallMS) * time.Millisecond
	}
	return l
}

// queryResponse is the shape of the /query body, which writeAnswer writes
// by hand.
type queryResponse struct {
	Engine    string   `json:"engine"`
	Count     int      `json:"count"`
	Results   []string `json:"results"`
	CacheHit  bool     `json:"cache_hit"`
	ElapsedMS float64  `json:"elapsed_ms"`
}

type errorResponse struct {
	Error string `json:"error"`
	// Code is the machine-readable taxonomy class (see errors.go).
	Code string `json:"code,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(v)
}

func writeErrorCode(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...), Code: code})
}

// writeCompileError answers an error from compiling or loading what the
// request sent: the client's fault (400 user_error), unless the error is of
// the internal class — a contained panic or an injected fault — which keeps
// its 500.
func writeCompileError(w http.ResponseWriter, what string, err error) {
	status, code := classify(err)
	if status != http.StatusInternalServerError {
		status, code = http.StatusBadRequest, codeUserError
	}
	writeErrorCode(w, status, code, "%s: %v", what, err)
}

// decodeQueryRequest parses and validates the shared request body.
func decodeQueryRequest(w http.ResponseWriter, r *http.Request) (*queryRequest, bool) {
	if r.Method != http.MethodPost {
		writeErrorCode(w, http.StatusMethodNotAllowed, codeUserError, "POST required")
		return nil, false
	}
	var req queryRequest
	dec := json.NewDecoder(io.LimitReader(r.Body, 1<<20))
	if err := dec.Decode(&req); err != nil {
		writeErrorCode(w, http.StatusBadRequest, codeUserError, "bad request body: %v", err)
		return nil, false
	}
	if req.Query == "" {
		writeErrorCode(w, http.StatusBadRequest, codeUserError, "missing \"query\"")
		return nil, false
	}
	if _, ok := tlc.ParseEngine(req.Engine); !ok {
		writeErrorCode(w, http.StatusBadRequest, codeUserError, "unknown engine %q", req.Engine)
		return nil, false
	}
	return &req, true
}

// admit applies the deadline and admission control shared by the three
// evaluation endpoints. On success the returned release func must be
// called when evaluation finishes; it is nil when admission failed (the
// error response has been written already).
func (s *Server) admit(w http.ResponseWriter, r *http.Request, req *queryRequest) (context.Context, context.CancelFunc, func(), bool) {
	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	if err := s.limiter.Acquire(ctx); err != nil {
		cancel()
		s.shed.Add(1)
		// Shed responses tell the client when to come back: the queue is
		// sized for ~one evaluation's worth of waiting.
		w.Header().Set("Retry-After", "1")
		switch {
		case errors.Is(err, ErrQueueFull):
			writeErrorCode(w, http.StatusTooManyRequests, codeOverloaded, "overloaded: admission queue full")
		default:
			writeErrorCode(w, http.StatusServiceUnavailable, codeUnavailable, "overloaded: timed out waiting for an evaluation slot")
		}
		return nil, nil, nil, false
	}
	return ctx, cancel, s.limiter.Release, true
}

// plan looks the request's plan up in the cache (compiling on a miss).
func (s *Server) plan(ctx context.Context, req *queryRequest) (*tlc.Prepared, bool, error) {
	engine, _ := tlc.ParseEngine(req.Engine)
	return s.cache.Load(ctx, s.db, plancache.Key{Query: req.Query, Engine: engine, Limits: s.limits(req)})
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	req, ok := decodeQueryRequest(w, r)
	if !ok {
		return
	}
	if err := faultinject.Hit(faultinject.PointServiceQuery); err != nil {
		status, code := classify(err)
		writeErrorCode(w, status, code, "query: %v", err)
		return
	}
	ctx, cancel, release, ok := s.admit(w, r, req)
	if !ok {
		return
	}
	defer cancel()
	defer release()

	begin := time.Now()
	prep, hit, err := s.plan(ctx, req)
	if err != nil {
		writeCompileError(w, "compile", err)
		return
	}
	if s.preEval != nil {
		s.preEval()
	}
	res, err := s.db.RunContext(ctx, prep)
	if err != nil {
		status, code := classify(err)
		writeErrorCode(w, status, code, "evaluate: %v", err)
		return
	}
	elapsed := float64(time.Since(begin)) / float64(time.Millisecond)
	writeAnswer(w, prep.Engine().String(), res, hit, elapsed)
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	req, ok := decodeQueryRequest(w, r)
	if !ok {
		return
	}
	if err := faultinject.Hit(faultinject.PointServiceExplain); err != nil {
		status, code := classify(err)
		writeErrorCode(w, status, code, "explain: %v", err)
		return
	}
	ctx, cancel, release, ok := s.admit(w, r, req)
	if !ok {
		return
	}
	defer cancel()
	defer release()

	engine, _ := tlc.ParseEngine(req.Engine)
	plan, err := s.db.ExplainContext(ctx, req.Query, tlc.WithEngine(engine))
	if err != nil {
		writeCompileError(w, "explain", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"engine": engine.String(), "plan": plan})
}

func (s *Server) handleProfile(w http.ResponseWriter, r *http.Request) {
	req, ok := decodeQueryRequest(w, r)
	if !ok {
		return
	}
	if err := faultinject.Hit(faultinject.PointServiceProfile); err != nil {
		status, code := classify(err)
		writeErrorCode(w, status, code, "profile: %v", err)
		return
	}
	ctx, cancel, release, ok := s.admit(w, r, req)
	if !ok {
		return
	}
	defer cancel()
	defer release()

	engine, _ := tlc.ParseEngine(req.Engine)
	if s.preEval != nil {
		s.preEval()
	}
	prof, err := s.db.ProfileContext(ctx, req.Query, tlc.WithEngine(engine), tlc.WithLimits(s.limits(req)))
	if err != nil {
		status, code := classify(err)
		if code == codeQueryError {
			// Profile compiles and evaluates in one call; plain query errors
			// here are overwhelmingly compile errors, kept at 400 as before.
			status, code = http.StatusBadRequest, codeUserError
		}
		writeErrorCode(w, status, code, "profile: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"engine": engine.String(), "profile": prof})
}

// handleLoad loads a document: an XML body under ?name=doc.xml, or a
// generated XMark document with ?name=doc.xml&xmark=<factor> and an empty
// body. The handler takes no lock: the store publishes the document with
// one atomic directory swap, so a query overlapping the load runs on the
// document set it pinned and never waits for it.
func (s *Server) handleLoad(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErrorCode(w, http.StatusMethodNotAllowed, codeUserError, "POST required")
		return
	}
	if s.gateRecovery(w, "load") {
		return
	}
	if err := faultinject.Hit(faultinject.PointServiceLoad); err != nil {
		status, code := classify(err)
		writeErrorCode(w, status, code, "load: %v", err)
		return
	}
	name := r.URL.Query().Get("name")
	if name == "" {
		writeErrorCode(w, http.StatusBadRequest, codeUserError, "missing ?name=")
		return
	}
	var factor float64
	if f := r.URL.Query().Get("xmark"); f != "" {
		var err error
		factor, err = strconv.ParseFloat(f, 64)
		if err != nil || factor <= 0 {
			writeErrorCode(w, http.StatusBadRequest, codeUserError, "bad ?xmark= factor %q", f)
			return
		}
	}

	var err error
	if factor > 0 {
		err = s.db.LoadXMark(name, factor)
	} else {
		err = s.db.LoadXML(name, io.LimitReader(r.Body, 1<<28))
	}
	if err != nil {
		writeCompileError(w, "load", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"documents": s.db.Documents()})
}

// handleSnapshot writes a columnar snapshot of the current store to the
// directory named by ?dir=. The write captures a consistent document set
// without blocking queries or loads (the store's directory is swapped
// atomically).
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErrorCode(w, http.StatusMethodNotAllowed, codeUserError, "POST required")
		return
	}
	if s.gateRecovery(w, "snapshot") {
		return
	}
	dir := r.URL.Query().Get("dir")
	if dir == "" {
		writeErrorCode(w, http.StatusBadRequest, codeUserError, "missing ?dir=")
		return
	}
	start := time.Now()
	info, err := s.db.Snapshot(dir)
	if err != nil {
		status, code := classify(err)
		writeErrorCode(w, status, code, "snapshot: %v", err)
		return
	}
	wall := time.Since(start)
	s.snapshotsWritten.Add(1)
	s.lastSnapshotBytes.Store(info.Bytes)
	s.lastSnapshotWall.Store(int64(wall))
	writeJSON(w, http.StatusOK, map[string]any{
		"dir":       info.Dir,
		"bytes":     info.Bytes,
		"documents": info.Docs,
		"wall_ms":   wall.Milliseconds(),
	})
}

// updateRequest is the JSON body of /update.
type updateRequest struct {
	// Doc names the loaded document to mutate. Required.
	Doc string `json:"doc"`
	// Op is the update kind: insert, delete or replace. Required.
	Op string `json:"op"`
	// Target addresses the node the op applies to: an absolute path like
	// /site/people/person[2]/@id, or #N for a node ordinal. Required.
	Target string `json:"target"`
	// Position places an inserted fragment relative to the target (into,
	// first, before, after); empty means into. Ignored for delete/replace.
	Position string `json:"position,omitempty"`
	// Fragment is the XML fragment to insert or replace with; delete takes
	// none.
	Fragment string `json:"fragment,omitempty"`
	// TimeoutMS, MaxNodes and MaxBytes mirror the query body fields: the
	// write cost (new version's nodes and bytes) is charged against the
	// same governor budgets, and exceeding one aborts the update with a
	// 422 budget_exceeded before anything commits.
	TimeoutMS int   `json:"timeout_ms,omitempty"`
	MaxNodes  int64 `json:"max_nodes,omitempty"`
	MaxBytes  int64 `json:"max_bytes,omitempty"`
}

// handleUpdate applies one subtree update (insert, delete or replace)
// through the MVCC write path. Updates coexist with in-flight queries by
// design: readers pin the pre-commit version and the commit is a
// copy-on-write directory swap.
func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErrorCode(w, http.StatusMethodNotAllowed, codeUserError, "POST required")
		return
	}
	if s.gateRecovery(w, "update") {
		return
	}
	if err := faultinject.Hit(faultinject.PointServiceUpdate); err != nil {
		status, code := classify(err)
		writeErrorCode(w, status, code, "update: %v", err)
		return
	}
	var req updateRequest
	dec := json.NewDecoder(io.LimitReader(r.Body, 1<<20))
	if err := dec.Decode(&req); err != nil {
		writeErrorCode(w, http.StatusBadRequest, codeUserError, "bad request body: %v", err)
		return
	}
	if req.Doc == "" || req.Target == "" {
		writeErrorCode(w, http.StatusBadRequest, codeUserError, "missing \"doc\" or \"target\"")
		return
	}
	op, err := tlc.ParseUpdateKind(req.Op)
	if err != nil {
		writeErrorCode(w, http.StatusBadRequest, codeUserError, "update: %v", err)
		return
	}

	// Updates share the admission gate with queries: a write occupies an
	// evaluation slot for its (short) duration, so a flood of writes sheds
	// instead of starving readers of slots.
	qreq := &queryRequest{TimeoutMS: req.TimeoutMS, MaxNodes: req.MaxNodes, MaxBytes: req.MaxBytes}
	ctx, cancel, release, ok := s.admit(w, r, qreq)
	if !ok {
		return
	}
	defer cancel()
	defer release()

	// The database retries a lost commit race itself, with a jittered
	// backoff between attempts; a conflict reaching here exhausted them.
	begin := time.Now()
	res, err := s.db.UpdateContext(ctx, tlc.UpdateRequest{
		Doc:      req.Doc,
		Op:       op,
		Target:   req.Target,
		Position: req.Position,
		Fragment: req.Fragment,
	}, tlc.WithLimits(s.limits(qreq)))
	if err != nil {
		switch {
		case errors.Is(err, tlc.ErrBadUpdateRequest):
			writeErrorCode(w, http.StatusBadRequest, codeUserError, "update: %v", err)
		case errors.Is(err, tlc.ErrUnknownDocument), errors.Is(err, tlc.ErrBadUpdateTarget):
			writeErrorCode(w, http.StatusUnprocessableEntity, codeQueryError, "update: %v", err)
		default:
			// Conflict (409), budget (422), injected fault / contained panic
			// (500), WAL veto (500), timeout (504) all classify like query
			// errors. A conflict that exhausted its retries tells the
			// client when contention is worth re-probing.
			if errors.Is(err, tlc.ErrUpdateConflict) {
				w.Header().Set("Retry-After", "1")
			}
			status, code := classify(err)
			writeErrorCode(w, status, code, "update: %v", err)
		}
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"doc":           res.Doc,
		"version":       res.Version,
		"nodes":         res.Nodes,
		"nodes_added":   res.NodesAdded,
		"nodes_removed": res.NodesRemoved,
		"conflicts":     res.Conflicts,
		"elapsed_ms":    float64(time.Since(begin)) / float64(time.Millisecond),
	})
}

func (s *Server) handleDocuments(w http.ResponseWriter, r *http.Request) {
	// Loads publish the document directory with an atomic snapshot swap, so
	// listing needs no lock — it sees either the pre- or post-load list.
	docs := s.db.Documents()
	if docs == nil {
		docs = []string{}
	}
	versions := make(map[string]uint64, len(docs))
	for _, name := range docs {
		versions[name], _ = s.db.DocumentVersion(name)
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"documents": docs,
		"versions":  versions,
	})
}

// handleHealthz is liveness (also mounted at /livez): the process is up
// and serving HTTP. It stays 200 during WAL replay and drain — restarting
// a recovering node would only restart its recovery.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain")
	fmt.Fprintln(w, "ok")
}

// handleReadyz is readiness: 200 only when the node should receive
// traffic. During WAL replay it reports "recovering" with live progress;
// during graceful shutdown it reports "draining".
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	state := "ok"
	switch {
	case s.recovering.Load():
		state = "recovering"
	case s.draining.Load():
		state = "draining"
	}
	status := http.StatusOK
	if state != "ok" {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, map[string]any{
		"ready": state == "ok",
		"state": state,
		"replay": map[string]int64{
			"applied": s.recApplied.Load(),
			"skipped": s.recSkipped.Load(),
		},
	})
}

// varz is the /varz metrics document.
type varz struct {
	UptimeSeconds float64           `json:"uptime_seconds"`
	Requests      uint64            `json:"requests_total"`
	Errors        uint64            `json:"errors_total"`
	ByStatus      map[string]uint64 `json:"responses_by_status"`
	InFlight      int               `json:"in_flight"`
	Queued        int               `json:"queued"`
	Latency       LatencyStats      `json:"latency"`
	PlanCache     plancache.Stats   `json:"plan_cache"`
	Store         map[string]int64  `json:"store"`
	// Memory holds the heap gauges an operator watches when sizing the
	// service: bytes in in-use heap spans, bytes of live objects, and
	// completed GC cycles (runtime.ReadMemStats).
	Memory map[string]uint64 `json:"memory"`
	// Arena holds process-wide witness-node allocation totals: nodes drawn
	// from slab arenas, slabs that cost, and nodes allocated individually
	// because no arena was in scope.
	Arena map[string]int64 `json:"arena"`
	// Snapshot holds the snapshot gauges: bytes currently mmap'd from
	// opened snapshots, snapshots written since start, and the size and
	// wall time of the most recent write.
	Snapshot map[string]int64 `json:"snapshot"`
	// Mutate holds the MVCC update gauges: updates committed since process
	// start, commit races lost (each one retried), document versions still
	// reachable (live + pinned superseded), and the dictionary gauges:
	// strings interned against values documents hold now — the difference
	// is garbage that updates left behind and the next checkpoint drops.
	Mutate    map[string]int64 `json:"mutate"`
	Documents int              `json:"documents"`
	// Governor counts queries aborted by each resource budget since start.
	Governor map[string]int64 `json:"governor"`
	// PanicsRecovered counts panics converted to errors at containment
	// barriers; any nonzero value is a bug report waiting to be filed.
	PanicsRecovered int64 `json:"panics_recovered"`
	// Shed counts requests refused by admission control.
	Shed int64 `json:"shed_total"`
	// UpdateRetries counts the commit races updates lost inside the
	// database's retry loop: mutate.update_conflicts by another name. Each
	// is retried, except the last of an update that ran out of attempts.
	UpdateRetries int64 `json:"update_retries"`
	// Recovery reports the WAL-replay state: "recovering" while records
	// re-apply at startup, then "ok" with the final totals.
	Recovery map[string]any `json:"recovery,omitempty"`
	// WAL reports the write-ahead log gauges when one is attached: records
	// appended/synced, rotations, torn-tail repairs, live segments, and
	// the recovery totals from attach time.
	WAL map[string]any `json:"wal,omitempty"`
	// Faults reports the armed fault-injection points (absent in
	// production: injection is off unless TLC_FAULTS is set).
	Faults map[string]faultinject.Counts `json:"faults,omitempty"`
}

// mutateVarz builds the /varz MVCC update gauge map (also mirrored by the
// tlcshell .stats command).
func mutateVarz(db *tlc.Database) map[string]int64 {
	ut := tlc.UpdateCounters()
	d := db.DictionaryStats()
	return map[string]int64{
		"updates_total":      ut.Updates,
		"update_conflicts":   ut.Conflicts,
		"versions_live":      db.VersionsLive(),
		"dict_tag_strings":   int64(d.TagStrings),
		"dict_value_strings": int64(d.ValueStrings),
		"dict_value_live":    int64(d.ValueLive),
	}
}

// walVarz builds the /varz WAL section: nil when no log is attached.
func walVarz(db *tlc.Database) map[string]any {
	ws, replay, ok := db.WALStats()
	if !ok {
		return nil
	}
	return map[string]any{
		"policy":           ws.Policy,
		"appended":         ws.Appended,
		"synced":           ws.Synced,
		"rotations":        ws.Rotations,
		"torn_repairs":     ws.TornRepairs,
		"segments":         ws.Segments,
		"segments_removed": ws.SegmentsRemoved,
		"pending":          ws.Pending,
		"last_seq":         ws.LastSeq,
		"bytes":            ws.Bytes,
		"replay_applied":   replay.Applied,
		"replay_skipped":   replay.Skipped,
	}
}

// handleVarz takes no lock that a commit holds, so it answers while an
// injected stall holds a commit inside the store or the WAL; the
// kill-and-restart harness polls it to time a SIGKILL inside such a stall.
func (s *Server) handleVarz(w http.ResponseWriter, r *http.Request) {
	snap := s.metrics.Snapshot()
	cs := s.cache.Stats()
	st := s.db.Stats()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	arenaNodes, arenaSlabs, plainNodes := seq.ArenaTotals()
	v := varz{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Requests:      snap.Requests,
		Errors:        snap.Errors,
		ByStatus:      make(map[string]uint64, len(snap.ByStatus)),
		InFlight:      s.limiter.InFlight(),
		Queued:        s.limiter.Queued(),
		Latency:       snap.Latency,
		PlanCache:     cs,
		Store: map[string]int64{
			"tag_lookups":        st.TagLookups,
			"tag_refs":           st.TagRefs,
			"value_lookups":      st.ValueLookups,
			"nodes_read":         st.NodesRead,
			"nodes_materialized": st.NodesMaterialized,
		},
		Memory: map[string]uint64{
			"heap_inuse_bytes": ms.HeapInuse,
			"heap_alloc_bytes": ms.HeapAlloc,
			"gc_cycles":        uint64(ms.NumGC),
		},
		Arena: map[string]int64{
			"nodes":       arenaNodes,
			"slabs":       arenaSlabs,
			"plain_nodes": plainNodes,
		},
		Snapshot: map[string]int64{
			"mapped_bytes":     s.db.MappedBytes(),
			"written_total":    s.snapshotsWritten.Load(),
			"last_bytes":       s.lastSnapshotBytes.Load(),
			"last_duration_ms": time.Duration(s.lastSnapshotWall.Load()).Milliseconds(),
		},
		Mutate:          mutateVarz(s.db),
		Documents:       len(s.db.Documents()),
		Governor:        make(map[string]int64, 4),
		PanicsRecovered: failure.PanicsRecovered(),
		Shed:            s.shed.Load(),
		UpdateRetries:   tlc.UpdateCounters().Conflicts,
	}
	recState := "ok"
	if s.recovering.Load() {
		recState = "recovering"
	} else if s.draining.Load() {
		recState = "draining"
	}
	v.Recovery = map[string]any{
		"state":       recState,
		"applied":     s.recApplied.Load(),
		"skipped":     s.recSkipped.Load(),
		"duration_ms": time.Duration(s.recDurNs.Load()).Milliseconds(),
	}
	// AttachWAL installs the log as recovery ends; asking for it before
	// then would race with that write.
	if recState != "recovering" {
		v.WAL = walVarz(s.db)
	}
	for res, n := range governor.KillTotals() {
		v.Governor[string(res)] = n
	}
	if faultinject.Active() {
		v.Faults = faultinject.Stats()
	}
	for code, n := range snap.ByStatus {
		v.ByStatus[strconv.Itoa(code)] = n
	}
	writeJSON(w, http.StatusOK, v)
}
