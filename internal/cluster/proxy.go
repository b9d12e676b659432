package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"

	"repro/internal/cycles"
	"repro/internal/exper"
	"repro/internal/service"
	"repro/internal/store"
)

// errNoNodes is the whole-cluster-down verdict: every node is ejected, so
// no candidate list exists for any key.
var errNoNodes = &service.HTTPError{Status: http.StatusServiceUnavailable, Message: "no cluster nodes available"}

// fail writes a router-originated failure in the service's unified error
// envelope with the status's default code.
func (rt *Router) fail(w http.ResponseWriter, name string, status int, msg string) {
	rt.failCode(w, name, status, service.DefaultErrorCode(status), msg)
}

// badBackend answers 400 and reports true when backend is not a name the
// nodes' backend parser accepts, so the router rejects such a request
// before routing it, as a node would. Every accepted name is answered alike
// (service.EngineLabel), so the router forwards none of them.
func (rt *Router) badBackend(w http.ResponseWriter, name, backend string) bool {
	if _, err := cycles.ParseBackend(backend); err != nil {
		rt.fail(w, name, http.StatusBadRequest, err.Error())
		return true
	}
	return false
}

// failCode writes a failure with an explicit code — used when the router
// relays a node verdict whose code is more specific than the status default
// (an unknown_instance 404 inside a rewritten batch message, say), so the
// router-fronted envelope matches the node's code for code.
func (rt *Router) failCode(w http.ResponseWriter, name string, status int, code, msg string) {
	rt.met.errors.Add(name, 1)
	service.WriteJSON(w, status, service.ErrorBody{Error: service.ErrorInfo{Code: code, Message: msg}})
}

// failErr maps an error to its status: service.HTTPError carries its own,
// context errors become 503 (the client's clock ran out while we proxied),
// everything else is a 502 — the router reached no node that could answer.
func (rt *Router) failErr(w http.ResponseWriter, name string, err error) {
	var he *service.HTTPError
	switch {
	case errors.As(err, &he):
		info := he.Info()
		rt.failCode(w, name, he.Status, info.Code, info.Message)
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		rt.fail(w, name, http.StatusServiceUnavailable, "request deadline exceeded")
	default:
		rt.fail(w, name, http.StatusBadGateway, err.Error())
	}
}

// answer writes v, a response the router assembled itself, in the service's
// wire encoding (service.EncodeJSON) — the property that makes a
// router-merged answer byte-identical to a single node's.
func (rt *Router) answer(w http.ResponseWriter, name string, v any) {
	body, err := service.EncodeJSON(v)
	if err != nil {
		rt.fail(w, name, http.StatusInternalServerError, fmt.Sprintf("encoding response: %v", err))
		return
	}
	service.WriteRaw(w, http.StatusOK, body)
}

// readBody drains a capped request body, as a node does.
func (rt *Router) readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	r.Body = http.MaxBytesReader(w, r.Body, rt.opts.MaxBodyBytes)
	return service.ReadBody(r.Body)
}

// proxyResult is one upstream answer, fully drained.
type proxyResult struct {
	status int
	body   []byte
	node   string
}

// drain discards any unread response remainder so the connection returns
// to the keep-alive pool.
func drain(resp *http.Response) {
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
}

// attempt sends one request to one node and drains the answer. A transport
// error is returned as-is (the caller decides whether it burns the node's
// health streak).
func (rt *Router) attempt(ctx context.Context, name, method, path string, body []byte) (proxyResult, error) {
	ns := rt.nodes[name]
	actx, cancel := context.WithTimeout(ctx, rt.opts.RequestTimeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(actx, method, ns.base+path, rd)
	if err != nil {
		return proxyResult{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return proxyResult{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return proxyResult{}, err
	}
	ns.proxied.Add(1)
	return proxyResult{status: resp.StatusCode, body: b, node: name}, nil
}

// retriable reports whether a status is worth a failover hop: the node
// answered but could not serve (at capacity, draining, proxy chain). A 4xx
// is the request's verdict and is final on the first answering node.
func retriable(status int) bool {
	switch status {
	case http.StatusBadGateway, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// forward routes one request by key: the home node first, then up to
// Retries ring successors on transport errors and retriable statuses.
// Transport errors feed the health streaks (so a killed node ejects at
// request speed); a 404 with known replayIDs triggers replay-on-miss
// before the 404 is accepted as final.
func (rt *Router) forward(ctx context.Context, key, method, path string, body []byte, replayIDs []string) (proxyResult, error) {
	cands := rt.candidates(key)
	if len(cands) == 0 {
		return proxyResult{}, errNoNodes
	}
	var lastAnswer *proxyResult
	var lastErr error
	for i, name := range cands {
		if i > 0 {
			rt.met.retries.Add(1)
		}
		res, err := rt.attempt(ctx, name, method, path, body)
		if err != nil {
			if ctx.Err() != nil {
				return proxyResult{}, ctx.Err()
			}
			rt.recordFailure(rt.nodes[name])
			lastErr = err
			continue
		}
		if res.status == http.StatusNotFound && len(replayIDs) > 0 {
			if replayed, ok := rt.tryReplay(ctx, name, method, path, body, replayIDs); ok {
				return replayed, nil
			}
		}
		if retriable(res.status) && i+1 < len(cands) {
			lastAnswer = &res
			continue
		}
		return res, nil
	}
	if lastAnswer != nil {
		return *lastAnswer, nil
	}
	return proxyResult{}, fmt.Errorf("no reachable node for request (tried %d): %v", len(cands), lastErr)
}

// tryReplay is the replay-on-miss path: a by-ID request 404'd on a node
// that should own it (a rejoined node with a cold store, or a successor
// covering an ejected node's keys). If the router's replay cache holds the
// registration body for every referenced ID, re-register them on that node
// and retry the original request once. Reports false when replay cannot
// help (an ID the router never saw registered — the 404 is then the
// truthful answer).
func (rt *Router) tryReplay(ctx context.Context, name, method, path string, body []byte, ids []string) (proxyResult, bool) {
	bodies := make([][]byte, len(ids))
	for i, id := range ids {
		b, ok := rt.replay.Get(id)
		if !ok {
			return proxyResult{}, false
		}
		bodies[i] = b
	}
	for _, b := range bodies {
		res, err := rt.attempt(ctx, name, http.MethodPost, "/v1/instances", b)
		if err != nil || res.status != http.StatusOK {
			return proxyResult{}, false
		}
	}
	rt.met.replays.Add(1)
	res, err := rt.attempt(ctx, name, method, path, body)
	if err != nil || res.status == http.StatusNotFound {
		return proxyResult{}, false
	}
	return res, true
}

// passthrough relays an upstream answer verbatim, counting error statuses.
func (rt *Router) passthrough(w http.ResponseWriter, name string, res proxyResult) {
	if res.status >= 400 {
		rt.met.errors.Add(name, 1)
	}
	service.WriteRaw(w, res.status, res.body)
}

// coalescedMarker flags responses that must never enter the response memo:
// "coalesced" describes one request's scheduling, not the task's answer —
// the same rule the service's own memo applies.
var coalescedMarker = []byte(`"coalesced":true`)

// ---- /v1/evaluate ----

// handleEvaluate routes a single evaluation to the instance's home node —
// by-ID requests route on the ID itself, inline ones on the content ID of
// the inline instance, so both forms of the same instance land on the same
// node and hit the same caches. Repeat bodies short-circuit in the
// router's response memo without any node round trip.
func (rt *Router) handleEvaluate(w http.ResponseWriter, r *http.Request) {
	const name = "evaluate"
	rt.met.requests.Add(name, 1)
	if r.Method != http.MethodPost {
		rt.fail(w, name, http.StatusMethodNotAllowed, "/v1/evaluate requires POST")
		return
	}
	body, err := rt.readBody(w, r)
	if err != nil {
		rt.failErr(w, name, err)
		return
	}
	if rt.resp != nil {
		if cached, ok := rt.resp.Get(string(body)); ok {
			service.WriteRaw(w, http.StatusOK, cached)
			return
		}
	}
	var req service.EvaluateRequest
	if err := service.UnmarshalStrict(body, &req); err != nil {
		rt.failErr(w, name, err)
		return
	}
	if err := req.Validate(); err != nil {
		rt.fail(w, name, http.StatusBadRequest, err.Error())
		return
	}
	var key string
	var ids []string
	if req.InstanceID != "" {
		key, ids = req.InstanceID, []string{req.InstanceID}
	} else {
		key = store.ContentID(req.Instance)
	}
	res, err := rt.forward(r.Context(), key, http.MethodPost, "/v1/evaluate", body, ids)
	if err != nil {
		rt.failErr(w, name, err)
		return
	}
	if res.status == http.StatusOK && rt.resp != nil && !bytes.Contains(res.body, coalescedMarker) {
		rt.resp.Put(string(body), bytes.Clone(res.body))
	}
	rt.passthrough(w, name, res)
}

// ---- /v1/instances ----

// handleInstancePost registers an instance on its home node and caches the
// registration body for replay-on-miss. Note the home node is derived from
// the same content ID the node itself answers, so the registration lands
// exactly where future by-ID requests will route.
func (rt *Router) handleInstancePost(w http.ResponseWriter, r *http.Request) {
	const name = "instancesPost"
	rt.met.requests.Add(name, 1)
	if r.Method != http.MethodPost {
		rt.fail(w, name, http.StatusMethodNotAllowed, "/v1/instances requires POST (GET /v1/instances/{id} looks up)")
		return
	}
	body, err := rt.readBody(w, r)
	if err != nil {
		rt.failErr(w, name, err)
		return
	}
	var req service.InstanceRequest
	if err := service.UnmarshalStrict(body, &req); err != nil {
		rt.failErr(w, name, err)
		return
	}
	if err := req.Validate(); err != nil {
		rt.fail(w, name, http.StatusBadRequest, err.Error())
		return
	}
	// The ring key is the same content ID the home node will answer, for any
	// of the three document kinds; deeper validation stays with the node.
	var id string
	switch {
	case req.Pipeline != nil:
		id = store.PipelineID(req.Pipeline)
	case req.Platform != nil:
		id = store.PlatformID(req.Platform)
	default:
		id = store.ContentID(req.Instance)
	}
	rt.replay.Put(id, bytes.Clone(body))
	res, err := rt.forward(r.Context(), id, http.MethodPost, "/v1/instances", body, nil)
	if err != nil {
		rt.failErr(w, name, err)
		return
	}
	rt.passthrough(w, name, res)
}

// handleInstanceGet resolves a by-ID lookup on the ID's home node, with
// replay-on-miss when the home moved (ejection) or restarted cold.
func (rt *Router) handleInstanceGet(w http.ResponseWriter, r *http.Request) {
	const name = "instancesGet"
	rt.met.requests.Add(name, 1)
	if r.Method != http.MethodGet {
		rt.fail(w, name, http.StatusMethodNotAllowed, "/v1/instances/{id} requires GET")
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/v1/instances/")
	if id == "" || strings.Contains(id, "/") {
		rt.fail(w, name, http.StatusBadRequest, fmt.Sprintf("bad instance path %q (want /v1/instances/{id})", r.URL.Path))
		return
	}
	res, err := rt.forward(r.Context(), id, http.MethodGet, r.URL.Path, nil, []string{id})
	if err != nil {
		rt.failErr(w, name, err)
		return
	}
	rt.passthrough(w, name, res)
}

// ---- /v1/search ----

// handleSearch proxies a search whole: the request body itself is the ring
// key, so identical requests route stably (and hit the same node's caches)
// while distinct ones spread. The body is parsed only to collect the
// pipelineId/platformId references for replay-on-miss; validation verdicts
// stay with the node.
func (rt *Router) handleSearch(w http.ResponseWriter, r *http.Request) {
	const name = "search"
	rt.met.requests.Add(name, 1)
	if r.Method != http.MethodPost {
		rt.fail(w, name, http.StatusMethodNotAllowed, fmt.Sprintf("%s requires POST", r.URL.Path))
		return
	}
	body, err := rt.readBody(w, r)
	if err != nil {
		rt.failErr(w, name, err)
		return
	}
	var req service.SearchRequest
	if err := service.UnmarshalStrict(body, &req); err != nil {
		rt.failErr(w, name, err)
		return
	}
	if req.Distributed != "" {
		// The cluster execution modes: instead of proxying the search whole,
		// the router runs the deterministic plan itself and scatters the
		// subtree roots across the ring (search.go).
		rt.distributedSearch(w, r, body, &req)
		return
	}
	var ids []string
	if req.PipelineID != "" {
		ids = append(ids, req.PipelineID)
	}
	if req.PlatformID != "" {
		ids = append(ids, req.PlatformID)
	}
	res, err := rt.forward(r.Context(), string(body), http.MethodPost, "/v1/search", body, ids)
	if err != nil {
		rt.failErr(w, name, err)
		return
	}
	rt.passthrough(w, name, res)
}

// ---- /v1/batch ----

// batchGroup is one node's share of a scattered batch.
type batchGroup struct {
	idxs []int    // global task indices, ascending (built in submission order)
	ids  []string // by-ID references in the group (replay candidates)
}

// handleBatch scatters a batch by per-task home node and gathers the
// outcomes back in submission order. Tasks are pre-validated here in
// global order with the service's own error phrasing, so validation
// verdicts are identical to a single node's; per-task solver errors ride
// inside outcomes and merge positionally. The merged response is encoded
// by the service's encode path, making a multi-node batch byte-identical
// to the single-node answer.
func (rt *Router) handleBatch(w http.ResponseWriter, r *http.Request) {
	const name = "batch"
	rt.met.requests.Add(name, 1)
	if r.Method != http.MethodPost {
		rt.fail(w, name, http.StatusMethodNotAllowed, "/v1/batch requires POST")
		return
	}
	body, err := rt.readBody(w, r)
	if err != nil {
		rt.failErr(w, name, err)
		return
	}
	var req service.BatchRequest
	if err := service.UnmarshalStrict(body, &req); err != nil {
		rt.failErr(w, name, err)
		return
	}
	if len(req.Tasks) == 0 {
		rt.fail(w, name, http.StatusBadRequest, "empty \"tasks\"")
		return
	}
	if rt.badBackend(w, name, req.Backend) {
		return
	}
	// Validate in global submission order with the node's own check: the
	// first bad task wins, exactly as on a single node.
	keys := make([]string, len(req.Tasks))
	byID := make([]string, len(req.Tasks))
	for i := range req.Tasks {
		bt := &req.Tasks[i]
		if _, err := bt.Validate(i); err != nil {
			rt.fail(w, name, http.StatusBadRequest, err.Error())
			return
		}
		if bt.InstanceID != "" {
			keys[i], byID[i] = bt.InstanceID, bt.InstanceID
		} else {
			keys[i] = store.ContentID(bt.Instance)
		}
	}
	// Group by home node under one ring view, first-appearance order.
	groups := make(map[string]*batchGroup)
	var order []string
	rt.mu.RLock()
	for i, k := range keys {
		owner, ok := rt.ring.Get(k)
		if !ok {
			rt.mu.RUnlock()
			rt.failErr(w, name, errNoNodes)
			return
		}
		g := groups[owner]
		if g == nil {
			g = &batchGroup{}
			groups[owner] = g
			order = append(order, owner)
		}
		g.idxs = append(g.idxs, i)
		if byID[i] != "" {
			g.ids = append(g.ids, byID[i])
		}
	}
	rt.mu.RUnlock()

	type subResult struct {
		res proxyResult
		err error
	}
	results := make([]subResult, len(order))
	var wg sync.WaitGroup
	for gi, owner := range order {
		wg.Add(1)
		go func(gi int, g *batchGroup) {
			defer wg.Done()
			subTasks := make([]service.BatchTask, len(g.idxs))
			for j, i := range g.idxs {
				subTasks[j] = req.Tasks[i]
			}
			subBody, err := json.Marshal(service.BatchRequest{Tasks: subTasks})
			if err != nil {
				results[gi] = subResult{err: err}
				return
			}
			res, err := rt.forward(r.Context(), keys[g.idxs[0]], http.MethodPost, "/v1/batch", subBody, g.ids)
			results[gi] = subResult{res: res, err: err}
		}(gi, groups[owner])
	}
	wg.Wait()

	// Gather. A failing group's verdict is rewritten to global task indices
	// and the failure at the smallest global index wins — the order a single
	// node, validating sequentially, would have reported.
	merged := service.BatchResponse{Backend: service.EngineLabel, Outcomes: make([]service.BatchOutcome, len(req.Tasks))}
	failAt := len(req.Tasks) + 1
	var failStatus int
	var failCode string
	var failMsg string
	recordFail := func(at, status int, code, msg string) {
		if code == "" {
			code = service.DefaultErrorCode(status)
		}
		if at < failAt {
			failAt, failStatus, failCode, failMsg = at, status, code, msg
		}
	}
	for gi, owner := range order {
		g := groups[owner]
		sr := results[gi]
		if sr.err != nil {
			status, msg := http.StatusBadGateway, sr.err.Error()
			var he *service.HTTPError
			if errors.As(sr.err, &he) {
				status, msg = he.Status, he.Message
			}
			recordFail(g.idxs[0], status, "", msg)
			continue
		}
		if sr.res.status != http.StatusOK {
			info := errorInfoOf(sr.res.body)
			at, msg := rewriteTaskIndex(info.Message, g.idxs)
			recordFail(at, sr.res.status, info.Code, msg)
			continue
		}
		var sub service.BatchResponse
		if err := json.Unmarshal(sr.res.body, &sub); err != nil || len(sub.Outcomes) != len(g.idxs) {
			recordFail(g.idxs[0], http.StatusBadGateway, "",
				fmt.Sprintf("node %s answered a malformed batch response", sr.res.node))
			continue
		}
		for j, i := range g.idxs {
			merged.Outcomes[i] = sub.Outcomes[j]
		}
	}
	if failAt <= len(req.Tasks) {
		rt.failCode(w, name, failStatus, failCode, failMsg)
		return
	}
	rt.answer(w, name, merged)
}

// errorInfoOf extracts the error envelope of a node's failure body: the
// {"error":{"code","message"}} object, with fallbacks for a legacy string
// "error" field and for a non-JSON body (code left empty — the caller
// substitutes the status default).
func errorInfoOf(body []byte) service.ErrorInfo {
	var e struct {
		Error json.RawMessage `json:"error"`
	}
	if json.Unmarshal(body, &e) == nil && len(e.Error) > 0 {
		var info service.ErrorInfo
		if json.Unmarshal(e.Error, &info) == nil && info.Message != "" {
			return info
		}
		var legacy string
		if json.Unmarshal(e.Error, &legacy) == nil && legacy != "" {
			return service.ErrorInfo{Message: legacy}
		}
	}
	return service.ErrorInfo{Message: strings.TrimSpace(string(body))}
}

// rewriteTaskIndex maps a node's "task %d: ..." message from sub-batch
// (local) indices back to the client's global indices, returning the
// global index for failure ordering. Messages without the prefix pass
// through, anchored at the group's first index.
func rewriteTaskIndex(msg string, idxs []int) (int, string) {
	rest, ok := strings.CutPrefix(msg, "task ")
	if !ok {
		return idxs[0], msg
	}
	num, tail, ok := strings.Cut(rest, ":")
	if !ok {
		return idxs[0], msg
	}
	var local int
	if _, err := fmt.Sscanf(num, "%d", &local); err != nil || local < 0 || local >= len(idxs) {
		return idxs[0], msg
	}
	global := idxs[local]
	return global, fmt.Sprintf("task %d:%s", global, tail)
}

// ---- /v1/sweep ----

// handleSweep scatters one sweep across the cluster with the service's
// "only" protocol: every node receives the full (seed, pairs) request —
// so each draws the identical instance population from the one serial rng
// stream — plus the pair indices it is home to, and the gathered points
// merge back by global index into exactly the single-node sweep (modulo
// the wall-clock timing fields, which no distribution could preserve).
func (rt *Router) handleSweep(w http.ResponseWriter, r *http.Request) {
	const name = "sweep"
	rt.met.requests.Add(name, 1)
	if r.Method != http.MethodPost {
		rt.fail(w, name, http.StatusMethodNotAllowed, "/v1/sweep requires POST")
		return
	}
	body, err := rt.readBody(w, r)
	if err != nil {
		rt.failErr(w, name, err)
		return
	}
	var req service.SweepRequest
	if err := service.UnmarshalStrict(body, &req); err != nil {
		rt.failErr(w, name, err)
		return
	}
	if rt.badBackend(w, name, req.Backend) {
		return
	}
	if len(req.Instances) > 0 || len(req.InstanceIDs) > 0 {
		// Explicit instance population: route the sweep whole by body, with
		// the by-ID references as replay candidates. (Scattering by instance
		// would be possible, but explicit populations are small and the
		// exclusivity rules stay a node verdict this way.)
		res, err := rt.forward(r.Context(), string(body), http.MethodPost, "/v1/sweep", body, req.InstanceIDs)
		if err != nil {
			rt.failErr(w, name, err)
			return
		}
		rt.passthrough(w, name, res)
		return
	}
	if req.Only != nil {
		// Already a subset request (another router's scatter, or a client
		// slicing by hand): route it whole by body, like /v1/search.
		res, err := rt.forward(r.Context(), string(body), http.MethodPost, "/v1/sweep", body, nil)
		if err != nil {
			rt.failErr(w, name, err)
			return
		}
		rt.passthrough(w, name, res)
		return
	}
	pairs := req.Pairs
	if len(pairs) == 0 {
		pairs = exper.DefaultSweepPairs()
	}
	// Group pair indices by home node. The per-pair ring key folds in seed
	// and replication vector so distinct sweeps spread independently; deeper
	// validation is left to the nodes, whose verdicts are already phrased
	// against global indices (each holds the full pairs list).
	groups := make(map[string][]int)
	var order []string
	rt.mu.RLock()
	for i := range pairs {
		owner, ok := rt.ring.Get(fmt.Sprintf("sweep\x00%d\x00%d\x00%v", req.Seed, i, pairs[i]))
		if !ok {
			rt.mu.RUnlock()
			rt.failErr(w, name, errNoNodes)
			return
		}
		if _, seen := groups[owner]; !seen {
			order = append(order, owner)
		}
		groups[owner] = append(groups[owner], i)
	}
	rt.mu.RUnlock()

	type subResult struct {
		res proxyResult
		err error
	}
	results := make([]subResult, len(order))
	var wg sync.WaitGroup
	for gi, owner := range order {
		wg.Add(1)
		go func(gi int, owner string, only []int) {
			defer wg.Done()
			subBody, err := json.Marshal(service.SweepRequest{
				Seed: req.Seed, Pairs: pairs, Only: only,
			})
			if err != nil {
				results[gi] = subResult{err: err}
				return
			}
			// Failover candidates follow the group's first pair key; any node
			// computes the identical points, so affinity is a cache concern,
			// not a correctness one.
			key := fmt.Sprintf("sweep\x00%d\x00%d\x00%v", req.Seed, only[0], pairs[only[0]])
			res, err := rt.forward(r.Context(), key, http.MethodPost, "/v1/sweep", subBody, nil)
			results[gi] = subResult{res: res, err: err}
		}(gi, owner, groups[owner])
	}
	wg.Wait()

	merged := service.SweepResponse{Backend: service.EngineLabel, Points: make([]service.SweepPointJSON, len(pairs))}
	failAt := len(pairs) + 1
	var failStatus int
	var failCode string
	var failMsg string
	recordFail := func(at, status int, code, msg string) {
		if code == "" {
			code = service.DefaultErrorCode(status)
		}
		if at < failAt {
			failAt, failStatus, failCode, failMsg = at, status, code, msg
		}
	}
	for gi, owner := range order {
		idxs := groups[owner]
		sr := results[gi]
		if sr.err != nil {
			status, msg := http.StatusBadGateway, sr.err.Error()
			var he *service.HTTPError
			if errors.As(sr.err, &he) {
				status, msg = he.Status, he.Message
			}
			recordFail(idxs[0], status, "", msg)
			continue
		}
		if sr.res.status != http.StatusOK {
			info := errorInfoOf(sr.res.body)
			recordFail(idxs[0], sr.res.status, info.Code, info.Message)
			continue
		}
		var sub service.SweepResponse
		if err := json.Unmarshal(sr.res.body, &sub); err != nil || len(sub.Points) != len(idxs) {
			recordFail(idxs[0], http.StatusBadGateway, "",
				fmt.Sprintf("node %s answered a malformed sweep response", sr.res.node))
			continue
		}
		for j, i := range idxs {
			merged.Points[i] = sub.Points[j]
		}
	}
	if failAt <= len(pairs) {
		rt.failCode(w, name, failStatus, failCode, failMsg)
		return
	}
	rt.answer(w, name, merged)
}
