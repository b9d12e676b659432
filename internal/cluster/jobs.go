package cluster

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"

	"repro/internal/jobs"
	"repro/internal/service"
)

// ---- /v1/jobs ----
//
// Job routing rides the same determinism the job manager provides: an async
// job's ID is "<prefix>-<seq>" where the prefix is the SHA-256-derived hash
// of the submission body (service.JobKeyPrefix). The router shards a
// submission by that prefix, so every submission of a given body lands on
// one home node — which therefore mints exactly the IDs a single node
// would — and every poll, result fetch or cancel for the minted ID routes
// by the ID's prefix back to that node. Listing is the one fan-out: every
// alive node reports its jobs and the router merges them sorted by ID.

// handleJobs serves the collection route: POST submits, GET lists.
func (rt *Router) handleJobs(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		rt.handleJobSubmit(w, r)
	case http.MethodGet:
		rt.handleJobList(w, r)
	default:
		rt.met.requests.Add("jobsSubmit", 1)
		rt.fail(w, "jobsSubmit", http.StatusMethodNotAllowed, "/v1/jobs requires POST (submit) or GET (list)")
	}
}

// handleJobSubmit forwards a submission to the body-prefix home node. The
// body is parsed only to collect by-ID references for replay-on-miss (a
// cold home node must not 404 a sweep over registered instances);
// validation verdicts stay with the node.
func (rt *Router) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	const name = "jobsSubmit"
	rt.met.requests.Add(name, 1)
	body, err := rt.readBody(w, r)
	if err != nil {
		rt.failErr(w, name, err)
		return
	}
	var req service.JobSubmitRequest
	if err := service.UnmarshalStrict(body, &req); err != nil {
		rt.failErr(w, name, err)
		return
	}
	var ids []string
	if req.Search != nil {
		if req.Search.PipelineID != "" {
			ids = append(ids, req.Search.PipelineID)
		}
		if req.Search.PlatformID != "" {
			ids = append(ids, req.Search.PlatformID)
		}
	}
	if req.Sweep != nil {
		ids = append(ids, req.Sweep.InstanceIDs...)
	}
	res, err := rt.forward(r.Context(), service.JobKeyPrefix(body), http.MethodPost, "/v1/jobs", body, ids)
	if err != nil {
		rt.failErr(w, name, err)
		return
	}
	rt.passthrough(w, name, res)
}

// handleJobList fans the listing out to every alive node and merges the
// answers sorted by job ID — the same deterministic order a node's own
// listing uses. Filters are validated here with the node's phrasing (a
// fan-out has no single node to defer to) and forwarded verbatim.
func (rt *Router) handleJobList(w http.ResponseWriter, r *http.Request) {
	const name = "jobsList"
	rt.met.requests.Add(name, 1)
	q := r.URL.Query()
	switch kind := q.Get("kind"); kind {
	case "", "search", "sweep":
	default:
		rt.fail(w, name, http.StatusBadRequest, fmt.Sprintf("unknown job kind %q (want \"search\" or \"sweep\")", kind))
		return
	}
	if v := q.Get("state"); v != "" {
		if _, err := jobs.ParseState(v); err != nil {
			rt.fail(w, name, http.StatusBadRequest, err.Error())
			return
		}
	}
	path := "/v1/jobs"
	if raw := r.URL.RawQuery; raw != "" {
		path += "?" + raw
	}
	rt.mu.RLock()
	var alive []string
	for _, ns := range rt.nodes {
		if ns.alive {
			alive = append(alive, ns.name)
		}
	}
	rt.mu.RUnlock()
	if len(alive) == 0 {
		rt.failErr(w, name, errNoNodes)
		return
	}
	sort.Strings(alive)
	type subResult struct {
		res proxyResult
		err error
	}
	results := make([]subResult, len(alive))
	var wg sync.WaitGroup
	for i, node := range alive {
		wg.Add(1)
		go func(i int, node string) {
			defer wg.Done()
			res, err := rt.attempt(r.Context(), node, http.MethodGet, path, nil)
			results[i] = subResult{res: res, err: err}
		}(i, node)
	}
	wg.Wait()
	merged := service.JobListResponse{Jobs: []service.Job{}}
	for i, sr := range results {
		if sr.err != nil {
			rt.recordFailure(rt.nodes[alive[i]])
			rt.fail(w, name, http.StatusBadGateway,
				fmt.Sprintf("listing jobs on node %s: %v", alive[i], sr.err))
			return
		}
		if sr.res.status != http.StatusOK {
			info := errorInfoOf(sr.res.body)
			rt.failCode(w, name, http.StatusBadGateway, service.DefaultErrorCode(http.StatusBadGateway),
				fmt.Sprintf("listing jobs on node %s: %s", alive[i], info.Message))
			return
		}
		var sub service.JobListResponse
		if err := service.UnmarshalStrict(sr.res.body, &sub); err != nil {
			rt.fail(w, name, http.StatusBadGateway,
				fmt.Sprintf("node %s answered a malformed job listing", alive[i]))
			return
		}
		merged.Jobs = append(merged.Jobs, sub.Jobs...)
	}
	sort.Slice(merged.Jobs, func(i, k int) bool { return merged.Jobs[i].ID < merged.Jobs[k].ID })
	rt.answer(w, name, merged)
}

// handleJobByID routes the item routes — status poll, result fetch,
// cancel — by the job ID's prefix (everything before the last dash), which
// is exactly the key its submission was routed by, so polls land on the
// node that minted the ID.
func (rt *Router) handleJobByID(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	id, sub, hasSub := strings.Cut(rest, "/")
	if id == "" || (hasSub && sub != "result") || strings.Contains(sub, "/") {
		rt.met.requests.Add("jobsGet", 1)
		rt.fail(w, "jobsGet", http.StatusBadRequest,
			fmt.Sprintf("bad job path %q (want /v1/jobs/{id} or /v1/jobs/{id}/result)", r.URL.Path))
		return
	}
	name := "jobsGet"
	switch {
	case hasSub:
		name = "jobsResult"
	case r.Method == http.MethodDelete:
		name = "jobsCancel"
	}
	rt.met.requests.Add(name, 1)
	switch name {
	case "jobsResult":
		if r.Method != http.MethodGet {
			rt.fail(w, name, http.StatusMethodNotAllowed, "/v1/jobs/{id}/result requires GET")
			return
		}
	case "jobsGet":
		if r.Method != http.MethodGet {
			rt.fail(w, name, http.StatusMethodNotAllowed, "/v1/jobs/{id} requires GET (DELETE cancels)")
			return
		}
	}
	key := id
	if i := strings.LastIndexByte(id, '-'); i > 0 {
		key = id[:i]
	}
	if !hashPrefix(key) {
		// Sync-born jobs carry their kind name as prefix ("search-3",
		// "sweep-1"), minted independently by whichever node served the
		// synchronous request — the prefix names no home node, and hashing
		// it would route every such poll to one arbitrary node. Look the ID
		// up on every alive node instead.
		rt.jobFanoutByID(w, r, name)
		return
	}
	res, err := rt.forward(r.Context(), key, r.Method, r.URL.Path, nil, nil)
	if err != nil {
		rt.failErr(w, name, err)
		return
	}
	rt.passthrough(w, name, res)
}

// hashPrefix reports whether a job-ID prefix is a body-hash shard key —
// service.JobKeyPrefix output, 16 lowercase hex characters. Only those
// prefixes identify the submission's home node.
func hashPrefix(p string) bool {
	if len(p) != 16 {
		return false
	}
	for i := 0; i < len(p); i++ {
		c := p[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// jobFanoutByID resolves a job item route whose ID prefix names no home
// node: ask every alive node in deterministic (sorted) order and relay the
// first conclusive answer. A 404 means "not mine" and the scan continues; a
// retriable status is kept as a fallback verdict in case a better answer
// never appears (the job's owner draining beats an unknown-ID 404 for
// truthfulness); transport errors burn health streaks exactly as forward's
// do.
func (rt *Router) jobFanoutByID(w http.ResponseWriter, r *http.Request, name string) {
	rt.mu.RLock()
	var alive []string
	for _, ns := range rt.nodes {
		if ns.alive {
			alive = append(alive, ns.name)
		}
	}
	rt.mu.RUnlock()
	if len(alive) == 0 {
		rt.failErr(w, name, errNoNodes)
		return
	}
	sort.Strings(alive)
	var notFound, soft *proxyResult
	var lastErr error
	for _, node := range alive {
		res, err := rt.attempt(r.Context(), node, r.Method, r.URL.Path, nil)
		if err != nil {
			if r.Context().Err() != nil {
				rt.failErr(w, name, r.Context().Err())
				return
			}
			rt.recordFailure(rt.nodes[node])
			lastErr = err
			continue
		}
		switch {
		case res.status == http.StatusNotFound:
			if notFound == nil {
				notFound = &res
			}
		case retriable(res.status):
			soft = &res
		default:
			rt.passthrough(w, name, res)
			return
		}
	}
	switch {
	case soft != nil:
		rt.passthrough(w, name, *soft)
	case notFound != nil:
		rt.passthrough(w, name, *notFound)
	default:
		rt.fail(w, name, http.StatusBadGateway,
			fmt.Sprintf("no reachable node could answer (tried %d): %v", len(alive), lastErr))
	}
}
