package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"repro/internal/jobs"
)

// ---- /v1/jobs ----
//
// The async half of the API redesign: every long-running request is a job.
// POST /v1/jobs submits one (kind "search" or "sweep", the same request
// schemas the synchronous endpoints take) and returns immediately with a
// job ID; GET /v1/jobs/{id} polls status and live progress;
// GET /v1/jobs/{id}/result fetches the terminal result (the exact bytes
// the synchronous endpoint would have written); DELETE /v1/jobs/{id}
// cancels cooperatively — a cancelled bnb search still surfaces its best
// incumbent, because the search is anytime; GET /v1/jobs lists.
//
// The synchronous /v1/search and /v1/sweep execute through this same
// engine (submit-and-wait over an inline job), so there is exactly one
// execution path and the sync responses stay byte-identical.

// jobRunner is a validated, ready-to-execute solve: what a plan function
// (searchPlan, sweepPlan) compiles a request into. It runs under the job
// whose lifecycle brackets it (never nil) — runners read their progress
// gauges from it, and the checkpoint hook reads its identity.
type jobRunner func(ctx context.Context, j *jobs.Job) (any, error)

// JobKeyPrefix derives the job-ID prefix of an async submission from the
// raw POST /v1/jobs body: the first 16 hex digits of its SHA-256. Job IDs
// are "<prefix>-<seq>" with a per-prefix counter, so for a given per-body
// submission history the minted IDs do not depend on how other bodies
// interleave — the property that lets the cluster router shard job traffic
// by prefix and observe the same IDs a single node would mint. Exported
// for the router, which must compute the same prefix to pick the home
// node.
func JobKeyPrefix(body []byte) string {
	sum := sha256.Sum256(body)
	return hex.EncodeToString(sum[:8])
}

// JobSubmitRequest is the POST /v1/jobs body: a kind plus the matching
// synchronous request payload.
type JobSubmitRequest struct {
	// Kind selects the work: "search" or "sweep".
	Kind string `json:"kind"`
	// Search is the /v1/search payload for kind "search".
	Search *SearchRequest `json:"search,omitempty"`
	// Sweep is the /v1/sweep payload for kind "sweep".
	Sweep *SweepRequest `json:"sweep,omitempty"`
}

// JobProgress is the live progress block of a job status answer. Which
// gauges are present depends on the kind: search jobs carry the bnb tree
// counters (all zero for heuristic algos, which finish in one step), sweep
// jobs carry point counts.
type JobProgress struct {
	Nodes       *int64 `json:"nodes,omitempty"`
	Leaves      *int64 `json:"leaves,omitempty"`
	Pruned      *int64 `json:"pruned,omitempty"`
	Screened    *int64 `json:"screened,omitempty"`
	PointsDone  *int64 `json:"pointsDone,omitempty"`
	PointsTotal *int64 `json:"pointsTotal,omitempty"`
}

// Job is the wire form of a job: submit answers it with HTTP 202, status
// polls and cancels answer it with 200. No wall-clock fields — the bytes
// for a given lifecycle state are deterministic, which is what lets the
// router-fronted and single-node answers be compared byte for byte.
type Job struct {
	ID    string `json:"id"`
	Kind  string `json:"kind"`
	State string `json:"state"`
	// Progress is present while the counters mean anything: always for
	// search/sweep jobs (zeroes included, so pollers need no key probing).
	Progress *JobProgress `json:"progress,omitempty"`
	// Error carries the failure of a failed job (also replayed with the
	// recorded status by the result endpoint).
	Error *ErrorInfo `json:"error,omitempty"`
}

// JobListResponse is the GET /v1/jobs answer, sorted by job ID.
type JobListResponse struct {
	Jobs []Job `json:"jobs"`
}

// jobJSON renders a job's current state in wire form.
func jobJSON(j *jobs.Job) Job {
	out := Job{ID: j.ID(), Kind: j.Kind(), State: string(j.State())}
	p := j.Progress()
	jp := &JobProgress{}
	switch j.Kind() {
	case "search":
		nodes, leaves := p.Nodes.Load(), p.Leaves.Load()
		pruned, screened := p.Pruned.Load(), p.Screened.Load()
		jp.Nodes, jp.Leaves, jp.Pruned, jp.Screened = &nodes, &leaves, &pruned, &screened
	case "sweep":
		done, tot := p.PointsDone.Load(), p.PointsTotal.Load()
		jp.PointsDone, jp.PointsTotal = &done, &tot
	}
	out.Progress = jp
	if f := j.Failure(); f != nil {
		out.Error = &ErrorInfo{Code: f.Code, Message: f.Message}
	}
	return out
}

// failureOf converts a runner error into the failure record the job
// retains, mirroring failErr's status mapping so a replayed result answer
// matches what the synchronous endpoint would have sent.
func failureOf(err error) *jobs.Failure {
	var he *HTTPError
	switch {
	case errors.As(err, &he):
		info := he.Info()
		return &jobs.Failure{Status: he.Status, Code: info.Code, Message: info.Message}
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return &jobs.Failure{
			Status:  http.StatusServiceUnavailable,
			Code:    DefaultErrorCode(http.StatusServiceUnavailable),
			Message: "request deadline exceeded",
		}
	default:
		return &jobs.Failure{
			Status:  http.StatusInternalServerError,
			Code:    DefaultErrorCode(http.StatusInternalServerError),
			Message: err.Error(),
		}
	}
}

// inlineJob wraps a planned runner as a submit-and-wait job: the
// synchronous endpoints' solve path. The job is registered before the
// in-flight queue so its lifetime covers queueing; the reply's cache hook
// deposits the encoded response bytes on the job, making the sync answer
// poll-able afterwards and byte-identical to what the client received.
func (s *Server) inlineJob(kind string, r *http.Request, run jobRunner, cleanup func()) (reply, error) {
	// The prefix is the kind name: sync jobs are per-node bookkeeping (the
	// router does not route them), so a content-derived prefix would buy
	// nothing and cost a hash per request.
	j, err := s.jobs.Submit(kind, kind, nil, r.Context(), 0, false)
	if err != nil {
		// Inline submissions are exempt from the active cap; Submit cannot
		// refuse them. Guarded anyway: a failure here must release pins.
		if cleanup != nil {
			cleanup()
		}
		return reply{}, err
	}
	rep := reply{
		solve: func(ctx context.Context) (any, error) {
			return s.runInline(ctx, j, run)
		},
		cache: func(resp any, body []byte) {
			s.jobs.Deposit(j, body)
		},
		cleanup: func() {
			if cleanup != nil {
				cleanup()
			}
			// Backstop for requests that never reached the solve (queue-wait
			// 503): Finish is a no-op on anything already terminal.
			s.jobs.Finish(j, nil, &jobs.Failure{
				Status:  http.StatusServiceUnavailable,
				Code:    DefaultErrorCode(http.StatusServiceUnavailable),
				Message: "request abandoned before the solve ran",
			})
		},
	}
	return rep, nil
}

// runInline executes a runner under its inline job, bracketing it with the
// job lifecycle. The run context is the job's (canceled by DELETE and by
// the client connection) bounded by the request deadline.
func (s *Server) runInline(ctx context.Context, j *jobs.Job, run jobRunner) (resp any, err error) {
	jctx := j.Context()
	if d, ok := ctx.Deadline(); ok {
		var cancel context.CancelFunc
		jctx, cancel = context.WithDeadline(jctx, d)
		defer cancel()
	}
	s.jobs.Start(j)
	defer func() {
		if p := recover(); p != nil {
			// Record the failure, then let runSolve's recover produce the
			// same 500 a pre-jobs server answered.
			s.jobs.Finish(j, nil, &jobs.Failure{
				Status:  http.StatusInternalServerError,
				Code:    DefaultErrorCode(http.StatusInternalServerError),
				Message: fmt.Sprintf("internal error: solve panicked: %v", p),
			})
			panic(p)
		}
	}()
	resp, err = run(jctx, j)
	if err != nil {
		s.jobs.Finish(j, nil, failureOf(err))
		return nil, err
	}
	// The encoded body is deposited by the reply's cache hook once the
	// shared encoder has produced it.
	s.jobs.Finish(j, nil, nil)
	return resp, nil
}

// runDetached executes a runner under a detached job on its own goroutine:
// the async path. It respects the same in-flight budget as synchronous
// solves (waiting on the job's context, so cancel and the job timeout
// apply while queued) and retains the encoded result on the job.
func (s *Server) runDetached(j *jobs.Job, run jobRunner, cleanup func()) {
	const name = "jobs"
	defer func() {
		if cleanup != nil {
			cleanup()
		}
		if p := recover(); p != nil {
			s.met.errors.Add(name, 1)
			s.jobs.Finish(j, nil, &jobs.Failure{
				Status:  http.StatusInternalServerError,
				Code:    DefaultErrorCode(http.StatusInternalServerError),
				Message: fmt.Sprintf("internal error: solve panicked: %v", p),
			})
		}
	}()
	start := time.Now()
	queued := start
	select {
	case s.sem <- struct{}{}:
	case <-j.Context().Done():
		s.met.observeWait(name, time.Since(queued))
		s.met.errors.Add(name, 1)
		s.jobs.Finish(j, nil, failureOf(j.Context().Err()))
		return
	}
	s.met.observeWait(name, time.Since(queued))
	s.met.inFlight.Add(1)
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
	s.jobs.Start(j)
	resp, err := run(j.Context(), j)
	release()
	if err != nil {
		s.met.errors.Add(name, 1)
		s.jobs.Finish(j, nil, failureOf(err))
		return
	}
	body, encErr := EncodeJSON(resp)
	if encErr != nil {
		s.met.errors.Add(name, 1)
		s.jobs.Finish(j, nil, &jobs.Failure{
			Status:  http.StatusInternalServerError,
			Code:    DefaultErrorCode(http.StatusInternalServerError),
			Message: fmt.Sprintf("encoding response: %v", encErr),
		})
		return
	}
	s.met.observe(name, time.Since(start))
	s.jobs.Finish(j, body, nil)
}

// handleJobs serves the collection route: POST submits, GET lists.
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		s.handleJobSubmit(w, r)
	case http.MethodGet:
		s.handleJobList(w, r)
	default:
		s.met.requests.Add("jobsSubmit", 1)
		s.fail(w, "jobsSubmit", http.StatusMethodNotAllowed, "/v1/jobs requires POST (submit) or GET (list)")
	}
}

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	const name = "jobsSubmit"
	s.met.requests.Add(name, 1)
	r.Body = http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	// The raw bytes are read once: they seed the deterministic job-ID
	// prefix, then decode from memory.
	body, err := ReadBody(r.Body)
	if err != nil {
		s.failErr(w, name, err)
		return
	}
	var req JobSubmitRequest
	if err := UnmarshalStrict(body, &req); err != nil {
		s.failErr(w, name, err)
		return
	}
	var run jobRunner
	var cleanup func()
	switch req.Kind {
	case "search":
		if req.Sweep != nil {
			s.failErr(w, name, badRequest("kind \"search\" takes a \"search\" payload, not \"sweep\""))
			return
		}
		if req.Search == nil {
			s.failErr(w, name, badRequest("missing \"search\" payload for kind \"search\""))
			return
		}
		run, cleanup, err = s.searchPlan(req.Search)
	case "sweep":
		if req.Search != nil {
			s.failErr(w, name, badRequest("kind \"sweep\" takes a \"sweep\" payload, not \"search\""))
			return
		}
		if req.Sweep == nil {
			s.failErr(w, name, badRequest("missing \"sweep\" payload for kind \"sweep\""))
			return
		}
		run, cleanup, err = s.sweepPlan(req.Sweep)
	case "":
		s.failErr(w, name, badRequest("missing \"kind\" (want \"search\" or \"sweep\")"))
		return
	default:
		s.failErr(w, name, badRequest("unknown job kind %q (want \"search\" or \"sweep\")", req.Kind))
		return
	}
	if err != nil {
		// Invalid submissions are refused synchronously — no job is minted
		// for a request that could never run.
		s.failErr(w, name, err)
		return
	}
	// Detached: the job outlives this request (parent context is the
	// process, lifetime bounded by JobTimeout) and counts against the
	// active cap — capacity refusal is back-pressure, like a full queue.
	j, err := s.jobs.Submit(req.Kind, JobKeyPrefix(body), body, context.Background(), s.opts.JobTimeout, true)
	if err != nil {
		if cleanup != nil {
			cleanup()
		}
		s.failErr(w, name, codedError(http.StatusServiceUnavailable, CodeJobCapacity, "%v", err))
		return
	}
	// The 202 describes the job as submitted: snapshot it before the runner
	// can start it, so the answer is "pending" however the goroutines are
	// scheduled. It is the submitter's first status read, so it looks the
	// job up through the manager: a job whose ID goes out to a poller is
	// watched, and enters the terminal registry referenced however fast it
	// finishes.
	s.jobs.Get(j.ID())
	accepted := jobJSON(j)
	go s.runDetached(j, run, cleanup)
	WriteJSON(w, http.StatusAccepted, accepted)
}

func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	const name = "jobsList"
	s.met.requests.Add(name, 1)
	q := r.URL.Query()
	kind := q.Get("kind")
	switch kind {
	case "", "search", "sweep":
	default:
		s.failErr(w, name, badRequest("unknown job kind %q (want \"search\" or \"sweep\")", kind))
		return
	}
	var state jobs.State
	if v := q.Get("state"); v != "" {
		st, err := jobs.ParseState(v)
		if err != nil {
			s.failErr(w, name, badRequest("%v", err))
			return
		}
		state = st
	}
	list := s.jobs.List(kind, state)
	resp := JobListResponse{Jobs: make([]Job, len(list))}
	for i, j := range list {
		resp.Jobs[i] = jobJSON(j)
	}
	WriteJSON(w, http.StatusOK, resp)
}

// handleJobByID serves the item routes: GET /v1/jobs/{id} (status),
// GET /v1/jobs/{id}/result, DELETE /v1/jobs/{id} (cancel).
func (s *Server) handleJobByID(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	id, sub, hasSub := strings.Cut(rest, "/")
	switch {
	case id == "" || (hasSub && sub != "result") || strings.Contains(sub, "/"):
		name := "jobsGet"
		s.met.requests.Add(name, 1)
		s.failErr(w, name, badRequest("bad job path %q (want /v1/jobs/{id} or /v1/jobs/{id}/result)", r.URL.Path))
	case hasSub:
		s.handleJobResult(w, r, id)
	case r.Method == http.MethodDelete:
		s.handleJobCancel(w, r, id)
	default:
		s.handleJobGet(w, r, id)
	}
}

func unknownJob(id string) error {
	return codedError(http.StatusNotFound, CodeUnknownJob,
		"unknown job ID %q (never submitted, or its terminal record was recycled)", id)
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request, id string) {
	const name = "jobsGet"
	s.met.requests.Add(name, 1)
	if r.Method != http.MethodGet {
		s.fail(w, name, http.StatusMethodNotAllowed, "/v1/jobs/{id} requires GET (DELETE cancels)")
		return
	}
	j, ok := s.jobs.Get(id)
	if !ok {
		s.failErr(w, name, unknownJob(id))
		return
	}
	WriteJSON(w, http.StatusOK, jobJSON(j))
}

func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request, id string) {
	const name = "jobsResult"
	s.met.requests.Add(name, 1)
	if r.Method != http.MethodGet {
		s.fail(w, name, http.StatusMethodNotAllowed, "/v1/jobs/{id}/result requires GET")
		return
	}
	j, ok := s.jobs.Get(id)
	if !ok {
		s.failErr(w, name, unknownJob(id))
		return
	}
	if !j.State().Terminal() {
		s.failErr(w, name, codedError(http.StatusConflict, CodeJobNotFinished,
			"job %q has not finished (state %q); poll GET /v1/jobs/%s", id, j.State(), id))
		return
	}
	// Terminal states are immutable, so the checks below cannot race the
	// transition: a done/canceled job's result bytes and a failed job's
	// failure are fixed once Terminal() reports true.
	if body, ok := j.Result(); ok {
		// The retained bytes came out of the shared encoder, so a repeat
		// fetch — and the synchronous answer, for inline jobs — is
		// byte-identical.
		WriteRaw(w, http.StatusOK, body)
		return
	}
	if f := j.Failure(); f != nil {
		s.failCode(w, name, f.Status, f.Code, f.Message)
		return
	}
	// Canceled before any result existed (e.g. a sweep, which has no
	// anytime answer).
	s.failErr(w, name, codedError(http.StatusConflict, CodeJobCanceled,
		"job %q was canceled before it produced a result", id))
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request, id string) {
	const name = "jobsCancel"
	s.met.requests.Add(name, 1)
	j, ok := s.jobs.Cancel(id)
	if !ok {
		s.failErr(w, name, unknownJob(id))
		return
	}
	WriteJSON(w, http.StatusOK, jobJSON(j))
}
