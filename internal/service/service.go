// Package service is the resident front end of the reproduction: an
// HTTP/JSON server exposing the full solver surface — single evaluations,
// coalesced batches, mapping search under a wall-clock budget and the
// runtime sweep — on top of the batch-evaluation engine.
//
// The design carries the engine's guarantees across the wire:
//
//   - Determinism. Every response is computed by the same exact-arithmetic
//     paths the CLI commands use; /v1/batch answers are bit-identical to a
//     serial engine.EvaluateBatch over the same tasks, at any worker count.
//
//   - Bounded residency. Every cache behind the server — the engine memo
//     (engine.Options.CacheEntries), the instance store, the response memo
//     and the terminal-job registry — is an internal/clock cache with a
//     fixed bound, so a long-lived process cannot grow without bound no
//     matter how many distinct instances it is asked about; /metrics
//     exports the hit, miss and eviction counters that prove it.
//
//   - Back-pressure. A server-wide in-flight budget (MaxInFlight) caps
//     concurrent solves; request bodies are fully parsed before a slot is
//     taken (a slow-sending client cannot occupy solve capacity), and
//     excess requests queue on their own context, so a client deadline is
//     honored while waiting. Concurrent identical /v1/evaluate requests
//     coalesce into one computation (singleflight on the engine's
//     canonical task key).
//
//   - Cancellation. Every handler derives its context from the request and
//     the server's RequestTimeout; /v1/search additionally accepts a
//     per-request wall-clock budget and returns the best mapping found
//     when the budget expires (an anytime search, never a wasted
//     deadline). Deadlines take effect while queued and between the tasks
//     of a batch/search; an individual period computation is a tight exact
//     numeric kernel and always runs to completion — bound its size with
//     MaxRows, not the clock.
//
//   - Content addressing. POST /v1/instances registers an instance under
//     its content ID (internal/store; SHA-256 of the canonical
//     serialization), and evaluate/batch bodies may carry "instanceId"
//     instead of the inline instance: requests shrink ~20x and the server
//     resolves the ID to precomputed task keys, doing zero per-request
//     serialization. A bounded response memo one tier above the engine
//     cache serves repeat evaluate hits as pre-encoded bytes — no solver,
//     no encoder, and no in-flight slot. By-ID, inline, memo-hit and
//     memo-miss responses are byte-identical (gated on the Table 2 grid).
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"repro/internal/bnb"
	"repro/internal/checkpoint"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/cycles"
	"repro/internal/engine"
	"repro/internal/exper"
	"repro/internal/jobs"
	"repro/internal/jscan"
	"repro/internal/model"
	"repro/internal/pipeline"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/store"
)

// Options configures a Server. The zero value serves with a GOMAXPROCS
// worker pool, the default bounded memo cache, a 60 s request ceiling and
// an in-flight budget of twice the pool size.
type Options struct {
	// Workers is the engine worker-pool size (<= 0 means GOMAXPROCS).
	Workers int
	// CacheEntries bounds the engine's memo cache (0 = the engine default,
	// negative disables memoization). See engine.Options.CacheEntries.
	CacheEntries int
	// MaxRows caps the unfolded-TPN size of the pooled solvers (0 = package
	// default).
	MaxRows int
	// MaxInFlight is the worker budget: the number of solve requests
	// admitted concurrently across all endpoints. Further requests wait —
	// honoring their own context — for a slot. <= 0 means 2x the resolved
	// worker count.
	MaxInFlight int
	// RequestTimeout bounds every request's context (0 = 60 s). /v1/search
	// budgets shorter than this still apply.
	RequestTimeout time.Duration
	// MaxBodyBytes caps request bodies (0 = 8 MiB).
	MaxBodyBytes int64
	// StoreEntries bounds the content-addressed instance store behind
	// POST /v1/instances (0 = store.DefaultCapacity). The store cannot be
	// disabled: it is pure capacity, holding nothing until a client
	// registers.
	StoreEntries int
	// RespCacheEntries bounds the response-bytes memo that serves repeat
	// /v1/evaluate hits as pre-encoded bytes (0 = the package default,
	// negative disables the memo — every response is encoded fresh).
	RespCacheEntries int
	// JobEntries bounds retained terminal jobs in the async-job registry
	// (0 = jobs.DefaultTerminalEntries). Terminal jobs past the bound are
	// recycled CLOCK-style, never-polled jobs first.
	JobEntries int
	// JobActive caps concurrently resident detached jobs (POST /v1/jobs);
	// past it submissions are refused with 503. 0 = jobs.DefaultMaxActive.
	// Synchronous requests are exempt — their lifetime is the request's.
	JobActive int
	// JobTimeout bounds a detached job's run (0 = 15 min). Synchronous
	// requests keep RequestTimeout; this ceiling exists because an async job
	// outlives its submitting request and would otherwise run forever.
	JobTimeout time.Duration
	// CheckpointDir, when non-empty, persists every detached job to disk
	// (internal/checkpoint): submissions, per-root bnb progress and terminal
	// results survive a process restart, and ResumeJobs replays them — a
	// resumed deterministic search re-executes only its unfinished subtree
	// roots and returns bytes identical to an uninterrupted run. Empty
	// disables checkpointing (the pre-checkpoint in-memory behavior).
	CheckpointDir string
	// CheckpointInterval batches per-root checkpoint writes: a running job's
	// record is rewritten at most once per interval (plus once at each
	// lifecycle boundary). <= 0 writes through on every finished root — the
	// most durable and most write-heavy setting.
	CheckpointInterval time.Duration
}

func (o *Options) defaults() {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = 2 * o.Workers
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 60 * time.Second
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 8 << 20
	}
	if o.JobTimeout <= 0 {
		o.JobTimeout = 15 * time.Minute
	}
}

// defaultRespEntries bounds the response memo when Options leave it zero.
// Bodies are a few hundred bytes each, so the default costs a couple of MiB
// while covering far more distinct (instance, model, options)
// combinations than a steady-state workload rotates through.
const defaultRespEntries = 8192

// Server is the HTTP front end. Create it with NewServer and mount
// Handler() (tests use httptest around it; Serve runs it with graceful
// shutdown).
type Server struct {
	opts    Options
	mux     *http.ServeMux
	eng     *engine.Engine // serves every request; routes cycles.BackendAuto
	sem     chan struct{}  // in-flight solve budget
	met     *metrics
	flights flightGroup
	store   *store.Store                  // content-addressed documents (POST /v1/instances)
	resp    *clock.Cache[respKey, []byte] // pre-encoded /v1/evaluate bodies; nil when disabled
	jobs    *jobs.Manager                 // the job registry every solve runs under
	ckpt    *checkpoint.Manager           // durable job state; nil when CheckpointDir is empty
	ckptErr error                         // deferred CheckpointDir failure; Serve refuses to start on it
}

// NewServer builds a server and its routes.
func NewServer(opts Options) *Server {
	opts.defaults()
	s := &Server{
		opts:  opts,
		mux:   http.NewServeMux(),
		sem:   make(chan struct{}, opts.MaxInFlight),
		met:   newMetrics(),
		store: store.New(opts.StoreEntries),
		eng: engine.New(engine.Options{
			Workers:      opts.Workers,
			CacheEntries: opts.CacheEntries,
			MaxRows:      opts.MaxRows,
		}),
	}
	jo := jobs.Options{
		TerminalEntries: opts.JobEntries,
		MaxActive:       opts.JobActive,
	}
	if opts.CheckpointDir != "" {
		ckpt, err := checkpoint.NewManager(opts.CheckpointDir, opts.CheckpointInterval)
		if err != nil {
			// NewServer cannot return an error without breaking every caller;
			// the failure is deferred to Serve, which refuses to start. A
			// directly-embedded server (tests) can check CheckpointErr.
			s.ckptErr = err
		} else {
			s.ckpt = ckpt
			jo.Persister = ckpt
		}
	}
	s.jobs = jobs.New(jo)
	if opts.RespCacheEntries >= 0 {
		n := opts.RespCacheEntries
		if n == 0 {
			n = defaultRespEntries
		}
		s.resp = clock.New[respKey, []byte](n)
	}
	s.mux.HandleFunc("/v1/evaluate", s.solveEndpoint("evaluate", s.handleEvaluate))
	s.mux.HandleFunc("/v1/batch", s.solveEndpoint("batch", s.handleBatch))
	s.mux.HandleFunc("/v1/search", s.solveEndpoint("search", s.handleSearch))
	s.mux.HandleFunc("/v1/sweep", s.solveEndpoint("sweep", s.handleSweep))
	s.mux.HandleFunc("/v1/internal/subtree", s.solveEndpoint("subtree", s.handleSubtree))
	s.mux.HandleFunc("/v1/jobs", s.handleJobs)
	s.mux.HandleFunc("/v1/jobs/", s.handleJobByID)
	s.mux.HandleFunc("/v1/instances", s.handleInstancePost)
	s.mux.HandleFunc("/v1/instances/", s.handleInstanceGet)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	return s
}

// Handler returns the root handler (all routes).
func (s *Server) Handler() http.Handler { return s.mux }

// Workers returns the engine's pool size actually in use.
func (s *Server) Workers() int { return s.opts.Workers }

// Store exposes the content-addressed instance store (tests pin entries
// through it; cmd/serve reports its capacity).
func (s *Server) Store() *store.Store { return s.store }

// CheckpointErr reports a CheckpointDir that could not be opened. NewServer
// cannot fail, so the error is surfaced here (and by Serve, which refuses
// to start on it) instead of being silently swallowed — a server asked to
// be durable must not run undurable.
func (s *Server) CheckpointErr() error { return s.ckptErr }

// HTTPError is an error with a dedicated HTTP status and, optionally, a
// machine-readable error code more specific than the status default. Node
// and router both answer with it, in the ErrorBody envelope.
type HTTPError struct {
	Status  int
	Code    string // "" = DefaultErrorCode(Status)
	Message string
}

func (e *HTTPError) Error() string { return e.Message }

// Info returns the envelope fields of e: its code (the status default when
// unset) and its message.
func (e *HTTPError) Info() ErrorInfo {
	code := e.Code
	if code == "" {
		code = DefaultErrorCode(e.Status)
	}
	return ErrorInfo{Code: code, Message: e.Message}
}

func badRequest(format string, args ...any) error {
	return &HTTPError{Status: http.StatusBadRequest, Message: fmt.Sprintf(format, args...)}
}

func notFound(format string, args ...any) error {
	return &HTTPError{Status: http.StatusNotFound, Message: fmt.Sprintf(format, args...)}
}

func codedError(status int, code, format string, args ...any) error {
	return &HTTPError{Status: status, Code: code, Message: fmt.Sprintf(format, args...)}
}

// solveFunc is the compute half of a solve request, produced by a handler
// after it has fully parsed and validated the body.
type solveFunc func(ctx context.Context) (any, error)

// reply is a handler's parse-phase verdict: either pre-encoded bytes ready
// to serve (raw — the response-memo hit path, which never takes an in-flight
// slot because there is no work left to bound) or a solveFunc to run under
// the in-flight budget.
type reply struct {
	solve solveFunc
	// raw, when non-nil, is a complete pre-encoded response body.
	raw []byte
	// cache, when set, is offered the encoded body after a successful solve
	// so the handler can memoize it (the slice is pooled scratch — the
	// callee must copy).
	cache func(resp any, body []byte)
	// cleanup always runs when the request finishes, error paths included —
	// by-ID handlers release their store pins here.
	cleanup func()
}

// solveEndpoint wraps a solve handler with everything every solve route
// shares: POST-only, body limit, request timeout, the in-flight budget,
// request/error counters and the latency histogram. The handler runs in
// two phases — parse (h, before any budget is taken, so a slow-sending
// client cannot occupy solve capacity with body reads) and solve (the
// returned solveFunc, under the in-flight semaphore). A handler that
// resolves the whole answer at parse time (the response memo) returns it as
// raw bytes and skips the budget entirely.
func (s *Server) solveEndpoint(name string, h func(r *http.Request) (reply, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.met.requests.Add(name, 1)
		if r.Method != http.MethodPost {
			s.fail(w, name, http.StatusMethodNotAllowed, fmt.Sprintf("%s requires POST", r.URL.Path))
			return
		}
		r.Body = http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
		start := time.Now()
		rep, err := h(r)
		if rep.cleanup != nil {
			defer rep.cleanup()
		}
		if err != nil {
			s.failErr(w, name, err)
			return
		}
		if rep.raw != nil {
			s.met.observe(name, time.Since(start))
			WriteRaw(w, http.StatusOK, rep.raw)
			return
		}
		// Only a solve reads the deadline; a memo hit returns before it.
		ctx, cancel := context.WithDeadline(r.Context(), start.Add(s.opts.RequestTimeout))
		defer cancel()
		// The worker budget: wait for a slot on the request's own clock. The
		// wait is recorded in its own histogram — queueing time used to be
		// invisible, folded into neither the solve nor the handler numbers,
		// so a saturated server looked fast right up until it 503'd.
		queued := time.Now()
		select {
		case s.sem <- struct{}{}:
		case <-ctx.Done():
			s.met.observeWait(name, time.Since(queued))
			s.fail(w, name, http.StatusServiceUnavailable, "server at capacity and request deadline expired while queued")
			return
		}
		s.met.observeWait(name, time.Since(queued))
		s.met.inFlight.Add(1)
		// The slot MUST come back on every path. Releasing it inline after
		// the solve leaked the slot (and pinned the gauge) whenever the solve
		// panicked: net/http recovers handler panics per connection, so the
		// process lived on with one less unit of capacity — MaxInFlight
		// panics away from a wedged server. The deferred release is the
		// panic backstop; the explicit release below returns the slot before
		// the response write, so a slow-reading client cannot hold solve
		// capacity through its own network drain.
		released := false
		release := func() {
			if released {
				return
			}
			released = true
			s.met.inFlight.Add(-1)
			<-s.sem
		}
		defer release()
		resp, err := runSolve(rep.solve, ctx)
		release()
		if err != nil {
			s.failErr(w, name, err)
			return
		}
		// Record total handler time (parse + queue wait + solve), the same
		// measure the memo-hit path above records. The histogram used to mix
		// two different quantities — solve-only here, total time on memo hits
		// — so the router's load reports compared incomparable numbers; the
		// queue-wait histogram above isolates the scheduling component.
		s.met.observe(name, time.Since(start))
		sc := encPool.Get().(*encScratch)
		sc.buf.Reset()
		if err := sc.enc.Encode(resp); err != nil {
			encPool.Put(sc)
			s.fail(w, name, http.StatusInternalServerError, fmt.Sprintf("encoding response: %v", err))
			return
		}
		if rep.cache != nil {
			rep.cache(resp, sc.buf.Bytes())
		}
		WriteRaw(w, http.StatusOK, sc.buf.Bytes())
		encPool.Put(sc)
	}
}

// runSolve executes the solve phase, converting a panic into a plain error
// (mapped to HTTP 500 and counted in the error metrics by the caller). The
// numeric kernels are panic-free by contract, but a serving process must
// degrade one request at a time, not crash or leak capacity, when that
// contract breaks.
func runSolve(solve solveFunc, ctx context.Context) (resp any, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("internal error: solve panicked: %v", p)
		}
	}()
	return solve(ctx)
}

// failErr maps an error to its HTTP status: HTTPError carries its own,
// context errors become 503, everything else 500.
func (s *Server) failErr(w http.ResponseWriter, name string, err error) {
	var he *HTTPError
	switch {
	case errors.As(err, &he):
		info := he.Info()
		s.failCode(w, name, he.Status, info.Code, info.Message)
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		s.fail(w, name, http.StatusServiceUnavailable, "request deadline exceeded")
	default:
		s.fail(w, name, http.StatusInternalServerError, err.Error())
	}
}

func (s *Server) fail(w http.ResponseWriter, name string, status int, msg string) {
	s.failCode(w, name, status, DefaultErrorCode(status), msg)
}

// failCode writes the unified error envelope — the one JSON error shape
// every /v1/* failure uses — and counts the error against the endpoint.
func (s *Server) failCode(w http.ResponseWriter, name string, status int, code, msg string) {
	s.met.errors.Add(name, 1)
	WriteJSON(w, status, ErrorBody{Error: ErrorInfo{Code: code, Message: msg}})
}

// encScratch is a pooled JSON encoder bound to its scratch buffer: every
// response body in the process, the router's included, is produced by this
// one encode path (SetEscapeHTML(false), Encode's trailing newline), which is
// what makes memoized and router-merged bytes byte-identical to fresh ones.
type encScratch struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var encPool = sync.Pool{New: func() any {
	sc := &encScratch{}
	sc.enc = json.NewEncoder(&sc.buf)
	sc.enc.SetEscapeHTML(false)
	return sc
}}

// EncodeJSON returns v in the wire encoding of every response, in a slice
// the caller owns.
func EncodeJSON(v any) ([]byte, error) {
	sc := encPool.Get().(*encScratch)
	defer encPool.Put(sc)
	sc.buf.Reset()
	if err := sc.enc.Encode(v); err != nil {
		return nil, err
	}
	return bytes.Clone(sc.buf.Bytes()), nil
}

// WriteJSON writes v with status in the wire encoding of every response.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	sc := encPool.Get().(*encScratch)
	defer encPool.Put(sc)
	sc.buf.Reset()
	if err := sc.enc.Encode(v); err != nil {
		// Nothing useful left to send; surface a bare 500.
		w.WriteHeader(http.StatusInternalServerError)
		return
	}
	WriteRaw(w, status, sc.buf.Bytes())
}

// WriteRaw writes a body already in the wire encoding with status.
func WriteRaw(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body) // the status line is gone; nothing useful left on error
}

// DecodeStrict reads body and parses exactly one JSON value from it into v;
// anything but whitespace after the value is an error. Node and router
// parse every request body with it (the router through UnmarshalStrict), so
// their verdicts on a malformed body read alike.
func DecodeStrict(body io.Reader, v any) error {
	data, err := ReadBody(body)
	if err != nil {
		return err
	}
	return UnmarshalStrict(data, v)
}

// ReadBody reads a whole request body; a read past the MaxBytesReader cap
// is a 413.
func ReadBody(body io.Reader) ([]byte, error) {
	data, err := io.ReadAll(body)
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return nil, &HTTPError{Status: http.StatusRequestEntityTooLarge, Message: err.Error()}
		}
		return nil, badRequest("bad request body: %v", err)
	}
	return data, nil
}

// UnmarshalStrict is DecodeStrict on a body already in memory; v keeps no
// reference to it. Bodies decodeCanonical reads take one pass; the rest go
// through encoding/json, which defines the accepted language and messages.
func UnmarshalStrict(data []byte, v any) error {
	if decodeCanonical(data, v) {
		return nil
	}
	return decodeJSON(data, v)
}

// decodeJSON is UnmarshalStrict's encoding/json path.
func decodeJSON(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	if err := dec.Decode(v); err != nil {
		return badRequest("bad request body: %v", err)
	}
	if len(bytes.TrimLeft(data[dec.InputOffset():], " \t\r\n")) > 0 {
		return badRequest("bad request body: trailing data after JSON value")
	}
	return nil
}

// decodeCanonical reads an *EvaluateRequest or *InstanceRequest body in
// the subset json.Marshal writes — exact-case keys, jscan tokens and
// model.Instance.ReadCanonical's instances — into v, or reports false with
// v untouched. Each key may come once.
func decodeCanonical(data []byte, v any) bool {
	sc := jscan.New(data)
	var seen uint
	once := func(bit uint) bool { old := seen; seen |= bit; return old&bit == 0 }
	str := func(dst *string) bool {
		b, ok := sc.Str()
		*dst = string(b)
		return ok
	}
	inst := func(dst **model.Instance) bool {
		*dst = new(model.Instance)
		return (*dst).ReadCanonical(&sc)
	}
	switch req := v.(type) {
	case *EvaluateRequest:
		r := *req
		if sc.Object(func(key []byte) bool {
			switch string(key) {
			case "instance":
				return once(1) && inst(&r.Instance)
			case "instanceId":
				return once(2) && str(&r.InstanceID)
			case "model":
				return once(4) && str(&r.Model)
			case "backend":
				return once(8) && str(&r.Backend)
			case "latencyPeriods":
				n, ok := sc.Uint()
				r.LatencyPeriods = int(n)
				return once(16) && ok && int64(r.LatencyPeriods) == n
			}
			return false
		}) && sc.End() {
			*req = r
			return true
		}
	case *InstanceRequest:
		r := *req
		if sc.Object(func(key []byte) bool {
			return string(key) == "instance" && once(1) && inst(&r.Instance)
		}) && sc.End() {
			*req = r
			return true
		}
	}
	return false
}

// EngineLabel is the "backend" every response reports: one engine, routing
// as cycles.BackendAuto, serves every request.
const EngineLabel = "auto"

// parseSelectors parses the shared "model"/"backend" request fields. Every
// period is an exact rational, the same under every cycle-ratio backend, so
// the backend names ParseBackend accepts besides "auto" ("karp", "howard",
// "float-screen") are deprecated aliases the one engine answers; they stay
// accepted because job IDs and checkpoint records hash the original body.
// An unknown name is still a 400.
func parseSelectors(modelName, backendName string) (model.CommModel, error) {
	cm, err := model.Parse(modelName)
	if err != nil {
		return 0, badRequest("%v", err)
	}
	if _, err := cycles.ParseBackend(backendName); err != nil {
		return 0, badRequest("%v", err)
	}
	return cm, nil
}

// ---- /v1/evaluate ----

// EvaluateRequest asks for the period (and optionally the steady-state
// latency distribution) of one instance under one model. The
// instance arrives either inline (Instance) or by reference (InstanceID — a
// content ID from POST /v1/instances), never both; the by-ID form cuts the
// request body from multi-KB JSON to a 64-byte ID and skips all instance
// parsing and canonical serialization server-side.
type EvaluateRequest struct {
	Instance   *model.Instance `json:"instance,omitempty"`
	InstanceID string          `json:"instanceId,omitempty"`
	Model      string          `json:"model"`
	Backend    string          `json:"backend,omitempty"`
	// LatencyPeriods > 0 additionally simulates that many macro-periods and
	// reports per-data-set latency statistics (>= 2 required by the
	// simulator; LatencyPeriods × PathCount is capped at
	// maxLatencyDataSets — the simulation is not interruptible, so its
	// size must be bounded up front).
	LatencyPeriods int `json:"latencyPeriods,omitempty"`
}

// maxLatencyDataSets caps the latency simulation horizon per request,
// counted in data sets (periods × PathCount — the quantity the simulator
// actually materializes). The operational simulator cannot be canceled
// mid-run; without a cap one small request could pin an in-flight slot for
// hours, immune to RequestTimeout. Steady-state statistics converge within
// a handful of macro-periods.
const maxLatencyDataSets = 1 << 17

// respKey names a memoized /v1/evaluate body; a hit builds no string.
type respKey struct {
	latencyPeriods int
	task           string
}

// ResultJSON is the wire form of a core.Result: exact rationals as "n/d"
// strings plus a float convenience rendering.
type ResultJSON struct {
	Model       string  `json:"model"`
	Period      string  `json:"period"`
	PeriodFloat float64 `json:"periodFloat"`
	Mct         string  `json:"mct"`
	Throughput  string  `json:"throughput"`
	PathCount   int64   `json:"pathCount"`
	Method      string  `json:"method"`
	HasCritical bool    `json:"hasCriticalResource"`
}

func resultJSON(res core.Result) ResultJSON {
	return ResultJSON{
		Model:       res.Model.String(),
		Period:      res.Period.String(),
		PeriodFloat: res.Period.Float64(),
		Mct:         res.Mct.String(),
		Throughput:  res.Throughput().String(),
		PathCount:   res.PathCount,
		Method:      string(res.Method),
		HasCritical: res.HasCriticalResource(),
	}
}

// LatencyJSON summarizes a sim.LatencyStats.
type LatencyJSON struct {
	Min      string  `json:"min"`
	Max      string  `json:"max"`
	Mean     string  `json:"mean"`
	MeanF    float64 `json:"meanFloat"`
	DataSets int     `json:"dataSets"`
}

// EvaluateResponse is the /v1/evaluate answer.
type EvaluateResponse struct {
	ResultJSON
	Backend string `json:"backend"`
	// Coalesced reports that this answer was produced by another concurrent
	// request's computation (singleflight), not a fresh solve.
	Coalesced bool         `json:"coalesced,omitempty"`
	Latency   *LatencyJSON `json:"latency,omitempty"`
}

// Validate checks that the request names its instance exactly once: inline
// or by ID.
func (req *EvaluateRequest) Validate() error {
	switch {
	case req.Instance != nil && req.InstanceID != "":
		return badRequest("\"instance\" and \"instanceId\" are mutually exclusive")
	case req.Instance == nil && req.InstanceID == "":
		return badRequest("missing \"instance\" (inline) or \"instanceId\" (registered via POST /v1/instances)")
	}
	return nil
}

func (s *Server) handleEvaluate(r *http.Request) (rep reply, err error) {
	var req EvaluateRequest
	if err := DecodeStrict(r.Body, &req); err != nil {
		return rep, err
	}
	cm, err := parseSelectors(req.Model, req.Backend)
	if err != nil {
		return rep, err
	}
	if err := req.Validate(); err != nil {
		return rep, err
	}
	// Resolve the instance and its canonical task key. The by-ID path reads
	// the key precomputed at registration (zero serialization); the inline
	// path serializes here, at parse time, so the response-memo lookup below
	// can run before any solve capacity is taken.
	inst := req.Instance
	var h uint64
	var key string
	if req.InstanceID != "" {
		ent, err := s.resolveInstance(req.InstanceID)
		if err != nil {
			return rep, err
		}
		// The pin is dropped by solveEndpoint's deferred cleanup once the
		// response is written, so store eviction cannot recycle the entry
		// mid-solve — error paths below included.
		rep.cleanup = ent.Release
		inst = ent.Instance()
		h, key = ent.TaskKey(cm)
	} else {
		h, key = engine.CanonicalKey(engine.Task{Inst: inst, Model: cm})
	}
	if req.LatencyPeriods > 0 {
		if ds := int64(req.LatencyPeriods) * inst.PathCount(); ds > maxLatencyDataSets || ds < 0 {
			return rep, badRequest("latencyPeriods %d × %d paths = %d data sets exceeds the simulation limit of %d",
				req.LatencyPeriods, inst.PathCount(), ds, int64(maxLatencyDataSets))
		}
	}
	// Response memo: a repeat of (options, canonical task) serves the
	// previously encoded bytes — no solver, simulator or encoder work, and
	// no in-flight slot.
	if s.resp != nil {
		rk := respKey{req.LatencyPeriods, key}
		if body, ok := s.resp.Get(rk); ok {
			rep.raw = body
			return rep, nil
		}
		rep.cache = func(resp any, body []byte) {
			// Never memoize a coalesced answer: it carries the "coalesced"
			// marker, which describes this request's scheduling, not the
			// task's result.
			if er, ok := resp.(EvaluateResponse); ok && !er.Coalesced {
				s.resp.Put(rk, bytes.Clone(body))
			}
		}
	}
	latencyPeriods := req.LatencyPeriods
	rep.solve = func(ctx context.Context) (any, error) {
		task := engine.Task{Inst: inst, Model: cm}
		// Coalesce concurrent identical requests: one computation, every
		// caller gets its result. The hash+key pair is handed to the engine
		// so the multi-KB canonical serialization from the parse phase is
		// reused, not recomputed.
		res, shared, err := s.flights.do(ctx, key, func() (core.Result, error) {
			return s.eng.EvaluateKeyed(h, key, task)
		})
		if err != nil {
			return nil, err
		}
		if shared {
			s.met.coalesced.Add(1)
		}
		resp := EvaluateResponse{ResultJSON: resultJSON(res), Backend: EngineLabel, Coalesced: shared}
		if latencyPeriods > 0 {
			stats, err := sim.Latency(inst, cm, latencyPeriods)
			if err != nil {
				return nil, badRequest("latency simulation: %v", err)
			}
			resp.Latency = &LatencyJSON{
				Min:      stats.Min.String(),
				Max:      stats.Max.String(),
				Mean:     stats.Mean.String(),
				MeanF:    stats.Mean.Float64(),
				DataSets: len(stats.PerDataSet),
			}
		}
		return resp, nil
	}
	return rep, nil
}

// ---- /v1/batch ----

// BatchTask is one entry of a /v1/batch request: an instance — inline or by
// content ID — under one model.
type BatchTask struct {
	Instance   *model.Instance `json:"instance,omitempty"`
	InstanceID string          `json:"instanceId,omitempty"`
	Model      string          `json:"model"`
}

// BatchRequest evaluates many tasks as one engine batch.
type BatchRequest struct {
	Tasks   []BatchTask `json:"tasks"`
	Backend string      `json:"backend,omitempty"`
}

// BatchOutcome mirrors engine.Outcome: a result or a per-task error.
type BatchOutcome struct {
	*ResultJSON
	Error string `json:"error,omitempty"`
}

// BatchResponse is the /v1/batch answer; Outcomes[i] corresponds to
// Tasks[i] and is bit-identical to a serial engine.EvaluateBatch.
type BatchResponse struct {
	Backend  string         `json:"backend"`
	Outcomes []BatchOutcome `json:"outcomes"`
}

// Validate checks task i of a batch — its model, and that it names its
// instance exactly once — and returns the parsed model. Messages carry the
// "task i:" prefix.
func (t *BatchTask) Validate(i int) (model.CommModel, error) {
	cm, err := model.Parse(t.Model)
	if err != nil {
		return 0, badRequest("task %d: %v", i, err)
	}
	switch {
	case t.Instance != nil && t.InstanceID != "":
		return 0, badRequest("task %d: \"instance\" and \"instanceId\" are mutually exclusive", i)
	case t.Instance == nil && t.InstanceID == "":
		return 0, badRequest("task %d: missing \"instance\" or \"instanceId\"", i)
	}
	return cm, nil
}

func (s *Server) handleBatch(r *http.Request) (rep reply, err error) {
	var req BatchRequest
	if err := DecodeStrict(r.Body, &req); err != nil {
		return rep, err
	}
	if len(req.Tasks) == 0 {
		return rep, badRequest("empty \"tasks\"")
	}
	if _, err := parseSelectors("overlap", req.Backend); err != nil { // model is per task
		return rep, err
	}
	// Every by-ID entry stays pinned until the whole batch is answered; the
	// single deferred cleanup also covers the partially-resolved prefix when
	// a later task turns out malformed.
	var pinned []*store.Entry
	rep.cleanup = func() {
		for _, e := range pinned {
			e.Release()
		}
	}
	tasks := make([]engine.Task, len(req.Tasks))
	for i := range req.Tasks {
		bt := &req.Tasks[i]
		cm, err := bt.Validate(i)
		if err != nil {
			return rep, err
		}
		inst := bt.Instance
		if bt.InstanceID != "" {
			ent, err := s.resolveInstance(bt.InstanceID)
			if err != nil {
				return rep, codedError(http.StatusNotFound, CodeUnknownInstance, "task %d: %v", i, err)
			}
			pinned = append(pinned, ent)
			inst = ent.Instance()
		}
		tasks[i] = engine.Task{Inst: inst, Model: cm}
	}
	rep.solve = func(ctx context.Context) (any, error) {
		outs, err := s.eng.EvaluateBatch(ctx, tasks)
		if err != nil {
			return nil, err
		}
		resp := BatchResponse{Backend: EngineLabel, Outcomes: make([]BatchOutcome, len(outs))}
		for i, o := range outs {
			if o.Err != nil {
				resp.Outcomes[i] = BatchOutcome{Error: o.Err.Error()}
				continue
			}
			rj := resultJSON(o.Result)
			resp.Outcomes[i] = BatchOutcome{ResultJSON: &rj}
		}
		return resp, nil
	}
	return rep, nil
}

// ---- /v1/search ----

// SearchRequest runs a mapping search for a pipeline on a platform under a
// wall-clock budget.
type SearchRequest struct {
	Pipeline *pipeline.Pipeline `json:"pipeline"`
	Platform *platform.Platform `json:"platform"`
	// PipelineID/PlatformID reference documents registered via
	// POST /v1/instances ({"pipeline": ...} / {"platform": ...}), each
	// mutually exclusive with its inline field — the same by-ID contract
	// evaluate and batch follow for instances.
	PipelineID string `json:"pipelineId,omitempty"`
	PlatformID string `json:"platformId,omitempty"`
	Model      string `json:"model"`
	// Algo selects the search: "best" (default; greedy + random restarts
	// + annealing), "greedy", "random", "anneal", "exhaustive" (one-to-one
	// mappings, small platforms only) or "bnb" — the exact branch-and-bound
	// over all replicated mappings, whose response carries a "proven" flag
	// (true = the period is the optimum, false = the budget expired and
	// this is the best incumbent).
	Algo    string `json:"algo,omitempty"`
	Backend string `json:"backend,omitempty"`
	Seed    int64  `json:"seed,omitempty"`
	// BudgetMs bounds the search wall clock; expiry returns the best
	// mapping found so far (0 = the server's request timeout only).
	BudgetMs int64 `json:"budgetMs,omitempty"`
	// Restarts and Moves tune "random" (defaults 10 and 50); AnnealSteps
	// tunes "anneal" (default 1500).
	Restarts    int `json:"restarts,omitempty"`
	Moves       int `json:"moves,omitempty"`
	AnnealSteps int `json:"annealSteps,omitempty"`
	// Distributed selects the cluster execution mode for algo "bnb":
	// "deterministic" splits the frontier across the ring's alive nodes and
	// merges in frontier order — bit-identical to a solo search; "racing"
	// additionally flows the best incumbent into later dispatches, so one
	// node's discovery prunes the others — same proven optimum, possibly a
	// different tie-winning mapping and node counts. The field only changes
	// where subtrees execute when the request reaches a router; a solo node
	// accepts both values and runs the same exact search either way ("racing"
	// races its local workers).
	Distributed string `json:"distributed,omitempty"`
}

// SearchResponse is the best mapping found. The Proven/Nodes/Pruned block
// is present only for algo "bnb".
type SearchResponse struct {
	Algo        string  `json:"algo"`
	Backend     string  `json:"backend"`
	Model       string  `json:"model"`
	Replicas    [][]int `json:"replicas"`
	Period      string  `json:"period"`
	PeriodFloat float64 `json:"periodFloat"`
	Throughput  string  `json:"throughput"`
	// Proven (bnb only): true means Period is the exact optimum over every
	// replicated mapping; false means the budget expired first and this is
	// the best incumbent found.
	Proven *bool `json:"proven,omitempty"`
	// Nodes and Pruned (bnb only) count the search tree: stage assignments
	// constructed and branches cut by the bound. Pointers so the keys are
	// present on every bnb response — zero included — and absent otherwise.
	Nodes  *int64 `json:"nodes,omitempty"`
	Pruned *int64 `json:"pruned,omitempty"`
	// Screened (bnb only) counts leaves whose exact period met the
	// incumbent, ruled out by the exact cutoff rather than evaluated in
	// full; they count among the search's leaves as well.
	Screened *int64 `json:"screened,omitempty"`
}

func (s *Server) handleSearch(r *http.Request) (reply, error) {
	var req SearchRequest
	if err := DecodeStrict(r.Body, &req); err != nil {
		return reply{}, err
	}
	run, cleanup, err := s.searchPlan(&req)
	if err != nil {
		return reply{}, err
	}
	return s.inlineJob("search", r, run, cleanup)
}

// searchPlan validates a search request and compiles it into the runner the
// job engine executes — the one execution path behind both the synchronous
// /v1/search handler and the "search" job kind. On success the returned
// cleanup releases the store pins the plan took (the caller owes exactly
// one invocation once the run is over); on error the plan has already
// released everything.
func (s *Server) searchPlan(req *SearchRequest) (jobRunner, func(), error) {
	return s.searchPlanReplay(req, nil)
}

// searchPlanReplay is searchPlan with checkpointed subtree results injected:
// the resume path hands the finished roots of an interrupted bnb job here,
// and the search replays them from disk instead of re-executing — the
// tentpole guarantee that a resumed deterministic search is byte-identical
// to an uninterrupted one while only the unfinished roots cost anything.
func (s *Server) searchPlanReplay(req *SearchRequest, replay map[int]bnb.Finished) (jobRunner, func(), error) {
	var pinned []*store.Entry
	cleanup := func() {
		for _, e := range pinned {
			e.Release()
		}
	}
	fail := func(err error) (jobRunner, func(), error) {
		cleanup()
		return nil, nil, err
	}
	if (req.Pipeline == nil && req.PipelineID == "") || (req.Platform == nil && req.PlatformID == "") {
		return fail(badRequest("missing \"pipeline\" or \"platform\""))
	}
	if req.Pipeline != nil && req.PipelineID != "" {
		return fail(badRequest("\"pipeline\" and \"pipelineId\" are mutually exclusive"))
	}
	if req.Platform != nil && req.PlatformID != "" {
		return fail(badRequest("\"platform\" and \"platformId\" are mutually exclusive"))
	}
	pipe, plat := req.Pipeline, req.Platform
	if req.PipelineID != "" {
		ent, err := s.resolveDoc(req.PipelineID, store.KindPipeline)
		if err != nil {
			return fail(err)
		}
		pinned = append(pinned, ent)
		pipe = ent.Pipeline()
	}
	if req.PlatformID != "" {
		ent, err := s.resolveDoc(req.PlatformID, store.KindPlatform)
		if err != nil {
			return fail(err)
		}
		pinned = append(pinned, ent)
		plat = ent.Platform()
	}
	cm, err := parseSelectors(req.Model, req.Backend)
	if err != nil {
		return fail(err)
	}
	restarts, moves, steps := req.Restarts, req.Moves, req.AnnealSteps
	if restarts <= 0 {
		restarts = 10
	}
	if moves <= 0 {
		moves = 50
	}
	if steps <= 0 {
		steps = 1500
	}
	algo := req.Algo
	if algo == "" {
		algo = "best"
	}
	switch algo {
	case "best", "greedy", "random", "anneal", "exhaustive", "bnb":
	default:
		return fail(badRequest("unknown algo %q (want best, greedy, random, anneal, exhaustive or bnb)", algo))
	}
	switch req.Distributed {
	case "", "deterministic", "racing":
	default:
		return fail(badRequest("unknown distributed mode %q (want \"deterministic\" or \"racing\")", req.Distributed))
	}
	if req.Distributed != "" && algo != "bnb" {
		return fail(badRequest("\"distributed\" applies only to algo \"bnb\" (got %q)", algo))
	}
	racing := req.Distributed == "racing"
	budgetMs := req.BudgetMs
	seed := req.Seed
	run := func(outer context.Context, j *jobs.Job) (any, error) {
		prog := j.Progress()
		ctx := outer
		if budgetMs > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(outer, time.Duration(budgetMs)*time.Millisecond)
			defer cancel()
		}
		eng := s.eng
		rng := rand.New(rand.NewSource(seed))
		var res sched.Result
		var exact *sched.ExactResult
		var err error
		switch algo {
		case "best":
			res, err = sched.BestOfEngine(ctx, eng, pipe, plat, cm, rng)
		case "greedy":
			res, err = sched.GreedyEngine(ctx, eng, pipe, plat, cm)
		case "random":
			res, err = sched.RandomSearchEngine(ctx, eng, pipe, plat, cm, rng, restarts, moves)
		case "anneal":
			res, err = sched.AnnealEngine(ctx, eng, pipe, plat, cm, rng, sched.AnnealOptions{Steps: steps})
		case "exhaustive":
			res, err = sched.ExhaustiveOneToOneEngine(ctx, eng, pipe, plat, cm)
		case "bnb":
			// The walkers stream their counter deltas into the job's atomic
			// progress gauges; pollers of GET /v1/jobs/{id} watch the tree
			// walk advance. Observation never changes the result.
			bopts := bnb.Options{
				OnProgress: func(d bnb.Stats) {
					prog.Nodes.Add(d.Nodes)
					prog.Leaves.Add(d.Leaves)
					prog.Pruned.Add(d.Pruned)
					prog.Screened.Add(d.Screened)
				},
				Replay: replay,
				Racing: racing,
			}
			if s.ckpt != nil {
				// Per-root durability: each finished subtree lands in the
				// job's checkpoint record as it completes. RootDone is a no-op
				// for jobs the persister never registered (inline requests),
				// so the hook is safe on every path.
				jobID := j.ID()
				bopts.OnRootDone = func(frontier int, done bnb.Finished) {
					s.ckpt.RootDone(jobID, frontier, done)
				}
			}
			var x sched.ExactResult
			x, err = sched.BranchAndBoundEngineOpts(ctx, eng, pipe, plat, cm, bopts)
			if err == nil {
				res, exact = x.Result, &x
			}
		}
		if err != nil {
			// A context error is blamed on the client's budget only when the
			// client set one and it is the *budget* context that expired —
			// the pre-budget context (server RequestTimeout, connection)
			// still being alive is what distinguishes them. Everything else
			// flows to solveEndpoint's status mapping (503 for deadlines,
			// 500 otherwise).
			if budgetMs > 0 && (errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)) &&
				outer.Err() == nil {
				return nil, badRequest("search budget of %d ms expired before a feasible mapping was found", budgetMs)
			}
			return nil, err
		}
		resp := SearchResponse{
			Algo:        algo,
			Backend:     EngineLabel,
			Model:       cm.String(),
			Replicas:    res.Mapping.Replicas,
			Period:      res.Period.String(),
			PeriodFloat: res.Period.Float64(),
			Throughput:  res.Throughput().String(),
		}
		if exact != nil {
			proven, nodes, pruned := exact.Proven, exact.Stats.Nodes, exact.Stats.Pruned
			resp.Proven, resp.Nodes, resp.Pruned = &proven, &nodes, &pruned
			screened := exact.Stats.Screened
			resp.Screened = &screened
		}
		return resp, nil
	}
	return run, cleanup, nil
}

// ---- /v1/internal/subtree ----

// SubtreeRequest is the body of POST /v1/internal/subtree: one frontier
// root of a distributed branch-and-bound search, shipped by the cluster
// coordinator to whichever node the ring assigns it. The instance always
// travels inline — a worker node must be able to run its roots with no
// shared store — and the root carries its exact bound as a rational string,
// so the exploration is bit-identical to the same root running inside a
// solo search.
type SubtreeRequest struct {
	Pipeline *pipeline.Pipeline `json:"pipeline"`
	Platform *platform.Platform `json:"platform"`
	Model    string             `json:"model"`
	// Root is the subtree to explore, exactly as bnb.Frontier planned it.
	Root bnb.Root `json:"root"`
	// WarmPeriod is the pruning reference the root starts from ("" = none):
	// the coordinator's warm start in deterministic mode, the best incumbent
	// so far in racing mode.
	WarmPeriod string `json:"warmPeriod,omitempty"`
}

// SubtreeResponse is the explored root's outcome in wire form.
type SubtreeResponse struct {
	Backend string        `json:"backend"`
	Result  bnb.SubResult `json:"result"`
}

func (s *Server) handleSubtree(r *http.Request) (rep reply, err error) {
	var req SubtreeRequest
	if err := DecodeStrict(r.Body, &req); err != nil {
		return rep, err
	}
	if req.Pipeline == nil || req.Platform == nil {
		return rep, badRequest("missing \"pipeline\" or \"platform\"")
	}
	cm, err := model.Parse(req.Model)
	if err != nil {
		return rep, badRequest("%v", err)
	}
	exec, err := bnb.NewLocalExecutor(s.eng, req.Pipeline, req.Platform, cm, bnb.Options{})
	if err != nil {
		return rep, badRequest("%v", err)
	}
	root, warm := req.Root, req.WarmPeriod
	rep.solve = func(ctx context.Context) (any, error) {
		res, err := exec.RunRoot(ctx, root, warm)
		if err != nil {
			// RunRoot errors are malformed descriptors (bad bound or warm
			// string) — a caller problem, not a solver one.
			return nil, badRequest("%v", err)
		}
		return SubtreeResponse{Backend: EngineLabel, Result: res}, nil
	}
	return rep, nil
}

// ---- /v1/sweep ----

// SweepRequest runs the runtime-vs-duplication sweep. The point population
// is either generated — (Seed, Pairs) drawn from one serial rng stream, the
// default — or explicit: Instances inline or InstanceIDs referencing
// registered content (POST /v1/instances), one point per instance in order.
// The three population sources are mutually exclusive.
type SweepRequest struct {
	Seed    int64   `json:"seed,omitempty"`
	Pairs   [][]int `json:"pairs,omitempty"` // empty = exper.DefaultSweepPairs
	Backend string  `json:"backend,omitempty"`
	// Instances is an explicit inline population; each point's replication
	// vector is the instance's own.
	Instances []*model.Instance `json:"instances,omitempty"`
	// InstanceIDs is an explicit by-ID population (content IDs from
	// POST /v1/instances).
	InstanceIDs []string `json:"instanceIds,omitempty"`
	// Only restricts evaluation to the pair indices listed (nil = all),
	// answering one point per index in the order given. The instance
	// population is still drawn from the full (seed, pairs) rng stream, so
	// the point at index k is bit-identical to the k-th point of an
	// unrestricted sweep — this is how the cluster router scatters one sweep
	// across nodes: each node receives the full request plus the indices it
	// is home to, and the gathered points merge into exactly the single-node
	// answer.
	Only []int `json:"only,omitempty"`
}

// SweepPointJSON is one sweep point on the wire.
type SweepPointJSON struct {
	Reps       []int   `json:"reps"`
	PathCount  int64   `json:"pathCount"`
	PolyNs     int64   `json:"polyNs"`
	TPNNs      int64   `json:"tpnNs"`
	TPNSkipped bool    `json:"tpnSkipped"`
	Period     string  `json:"period"`
	PeriodF    float64 `json:"periodFloat"`
}

// maxSweepCells bounds the operation-table size a sweep vector may demand
// (the largest default pair implies ~2,000 cells; the cap leaves three
// orders of magnitude of headroom while keeping a hostile vector from
// allocating gigabytes).
const maxSweepCells = 1 << 21

// SweepResponse is the /v1/sweep answer.
type SweepResponse struct {
	Backend string           `json:"backend"`
	Points  []SweepPointJSON `json:"points"`
}

func (s *Server) handleSweep(r *http.Request) (reply, error) {
	var req SweepRequest
	if err := DecodeStrict(r.Body, &req); err != nil {
		return reply{}, err
	}
	run, cleanup, err := s.sweepPlan(&req)
	if err != nil {
		return reply{}, err
	}
	return s.inlineJob("sweep", r, run, cleanup)
}

// sweepPlan validates a sweep request and compiles it into the runner the
// job engine executes — shared by the synchronous /v1/sweep handler and the
// "sweep" job kind, like searchPlan. On error every pin the plan took has
// been released; on success the caller owes one cleanup invocation.
func (s *Server) sweepPlan(req *SweepRequest) (jobRunner, func(), error) {
	var pinned []*store.Entry
	cleanup := func() {
		for _, e := range pinned {
			e.Release()
		}
	}
	fail := func(err error) (jobRunner, func(), error) {
		cleanup()
		return nil, nil, err
	}
	if _, err := parseSelectors("overlap", req.Backend); err != nil {
		return fail(err)
	}
	if len(req.Instances) > 0 && len(req.InstanceIDs) > 0 {
		return fail(badRequest("\"instances\" and \"instanceIds\" are mutually exclusive"))
	}
	if explicit := len(req.Instances) > 0 || len(req.InstanceIDs) > 0; explicit {
		if len(req.Pairs) > 0 {
			return fail(badRequest("\"pairs\" and an explicit instance population (\"instances\"/\"instanceIds\") are mutually exclusive"))
		}
		insts := req.Instances
		if len(req.InstanceIDs) > 0 {
			insts = make([]*model.Instance, len(req.InstanceIDs))
			for i, id := range req.InstanceIDs {
				ent, err := s.resolveInstance(id)
				if err != nil {
					return fail(codedError(http.StatusNotFound, CodeUnknownInstance, "instanceIds[%d]: %v", i, err))
				}
				pinned = append(pinned, ent)
				insts[i] = ent.Instance()
			}
		}
		for _, k := range req.Only {
			if k < 0 || k >= len(insts) {
				return fail(badRequest("only index %d out of range [0, %d)", k, len(insts)))
			}
		}
		only := req.Only
		total := len(only)
		if only == nil {
			total = len(insts)
		}
		run := func(ctx context.Context, j *jobs.Job) (any, error) {
			prog := j.Progress()
			prog.PointsTotal.Store(int64(total))
			pts, err := exper.RuntimeSweepInstances(ctx, s.eng, insts, only,
				func() { prog.PointsDone.Add(1) })
			if err != nil {
				return nil, err
			}
			return sweepResponse(pts), nil
		}
		return run, cleanup, nil
	}
	pairs := req.Pairs
	if len(pairs) == 0 {
		pairs = exper.DefaultSweepPairs()
	}
	for i, reps := range pairs {
		if len(reps) == 0 {
			return fail(badRequest("pairs[%d] is empty", i))
		}
		// The sweep materializes the instance server-side (comp vectors
		// plus one reps[j] x reps[j+1] matrix per file), so a few small
		// integers in the request could demand gigabytes; bound the cells
		// the vector implies before building anything.
		// Bound every factor before any multiplication: two factors <= 2^21
		// keep each product <= 2^42 and the checked running sum well inside
		// int64, so the guard cannot be bypassed by overflow (a
		// wrapped-negative sum would sail past the cells check and let a
		// 60-byte request demand gigabytes).
		for _, m := range reps {
			if m < 1 {
				return fail(badRequest("pairs[%d] holds non-positive replication %d", i, m))
			}
			if int64(m) > maxSweepCells {
				return fail(badRequest("pairs[%d] implies more than %d operation cells", i, int64(maxSweepCells)))
			}
		}
		cells := int64(0)
		for j, m := range reps {
			cells += int64(m)
			if j+1 < len(reps) {
				cells += int64(m) * int64(reps[j+1])
			}
			if cells > maxSweepCells {
				return fail(badRequest("pairs[%d] implies more than %d operation cells", i, int64(maxSweepCells)))
			}
		}
	}
	for _, k := range req.Only {
		if k < 0 || k >= len(pairs) {
			return fail(badRequest("only index %d out of range [0, %d)", k, len(pairs)))
		}
	}
	only := req.Only
	total := len(only)
	if only == nil {
		total = len(pairs)
	}
	seed := req.Seed
	run := func(ctx context.Context, j *jobs.Job) (any, error) {
		prog := j.Progress()
		prog.PointsTotal.Store(int64(total))
		pts, err := exper.RuntimeSweepEngineSubsetProgress(ctx, s.eng, seed, pairs, only,
			func() { prog.PointsDone.Add(1) })
		if err != nil {
			return nil, err
		}
		return sweepResponse(pts), nil
	}
	return run, cleanup, nil
}

// sweepResponse renders sweep points in wire form; shared by both
// population sources so their encodings cannot drift.
func sweepResponse(pts []exper.SweepPoint) SweepResponse {
	resp := SweepResponse{Backend: EngineLabel, Points: make([]SweepPointJSON, len(pts))}
	for i, p := range pts {
		resp.Points[i] = SweepPointJSON{
			Reps:       p.Reps,
			PathCount:  p.PathCount,
			PolyNs:     p.PolyTime.Nanoseconds(),
			TPNNs:      p.TPNTime.Nanoseconds(),
			TPNSkipped: p.TPNSkipped,
			Period:     p.Period.String(),
			PeriodF:    p.Period.Float64(),
		}
	}
	return resp
}

// ---- serving ----

// Serve binds addr, serves s until ctx is canceled, then shuts down
// gracefully (in-flight requests get drainTimeout to finish). logf, when
// non-nil, receives one "listening on <addr>" line — the way cmd/serve
// reports the bound address for :0 listeners.
func Serve(ctx context.Context, addr string, opts Options, logf func(format string, args ...any)) error {
	s := NewServer(opts)
	if err := s.CheckpointErr(); err != nil {
		return err
	}
	// Resume checkpointed jobs before the listener opens: a poller that
	// reconnects the instant the port is back must already find its job.
	if resumed, rehydrated := s.ResumeJobs(); logf != nil && resumed+rehydrated > 0 {
		logf("checkpoint: resumed %d interrupted job(s), rehydrated %d terminal record(s) from %s",
			resumed, rehydrated, opts.CheckpointDir)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if logf != nil {
		logf("listening on %s (workers=%d, inflight budget=%d)", ln.Addr(), s.opts.Workers, s.opts.MaxInFlight)
	}
	srv := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		// The handler's RequestTimeout context cannot interrupt network
		// reads, so a client trickling its body would otherwise hold a
		// goroutine (and its buffers) forever; the server-level deadlines
		// bound the whole exchange instead.
		ReadTimeout:  s.opts.RequestTimeout,
		WriteTimeout: s.opts.RequestTimeout + 30*time.Second,
		IdleTimeout:  2 * time.Minute,
	}
	done := make(chan error, 1)
	go func() {
		<-ctx.Done()
		shutCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		done <- srv.Shutdown(shutCtx)
	}()
	if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	if ctx.Err() != nil {
		return <-done // surface a failed drain; nil on clean shutdown
	}
	return nil
}

// drainTimeout bounds graceful shutdown: requests still running this long
// after the stop signal are abandoned.
const drainTimeout = 15 * time.Second
