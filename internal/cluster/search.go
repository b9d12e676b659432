// Distributed branch-and-bound: the router runs the search's deterministic
// plan itself — greedy warm start from a node, frontier expansion in
// process (a pure function, no solver needed), merge in frontier order —
// and ships each subtree root to its ring home via POST
// /v1/internal/subtree. Deterministic mode is bit-identical to a solo
// search at any cluster size because nothing order-dependent happens here:
// the frontier is a function of (instance, warm period, target) and the
// merge ignores arrival order. Racing mode reuses bnb's racing flag — each
// root is dispatched with the best incumbent known at dispatch time — and
// keeps the proven verdict exact while giving up bit-identity of node
// counts and tie winners.
//
// Node failures degrade, never corrupt: a root whose home node dies is
// retried on the ring successors (the same failover every proxied request
// gets); if no node can run it, the root merges as unexplored and the
// response honestly reports proven=false, exactly as a solo search
// interrupted mid-tree would.

package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/bnb"
	"repro/internal/mapping"
	"repro/internal/model"
	"repro/internal/pipeline"
	"repro/internal/platform"
	"repro/internal/rat"
	"repro/internal/service"
)

// distributedSearch coordinates one bnb search across the ring. body is the
// client's submission (its hash spreads the subtree keys so distinct
// searches land on distinct node subsets); req is its parsed form with
// req.Distributed already known non-empty.
func (rt *Router) distributedSearch(w http.ResponseWriter, r *http.Request, body []byte, req *service.SearchRequest) {
	const name = "search"
	// Validation mirrors the node's searchPlan phrasing so the router-
	// fronted verdicts read like a solo node's.
	switch req.Distributed {
	case "deterministic", "racing":
	default:
		rt.fail(w, name, http.StatusBadRequest,
			fmt.Sprintf("unknown distributed mode %q (want \"deterministic\" or \"racing\")", req.Distributed))
		return
	}
	algo := req.Algo
	if algo == "" {
		algo = "best"
	}
	if algo != "bnb" {
		rt.fail(w, name, http.StatusBadRequest,
			fmt.Sprintf("\"distributed\" applies only to algo \"bnb\" (got %q)", algo))
		return
	}
	if req.PipelineID != "" || req.PlatformID != "" {
		rt.fail(w, name, http.StatusBadRequest,
			"distributed search requires an inline \"pipeline\" and \"platform\" (by-ID documents resolve on single nodes; drop \"distributed\" to route the search whole)")
		return
	}
	if req.Pipeline == nil || req.Platform == nil {
		rt.fail(w, name, http.StatusBadRequest, "missing \"pipeline\" or \"platform\"")
		return
	}
	cm, err := model.Parse(req.Model)
	if err != nil {
		rt.fail(w, name, http.StatusBadRequest, err.Error())
		return
	}
	if rt.badBackend(w, name, req.Backend) {
		return
	}

	ctx := r.Context()
	if req.BudgetMs > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.BudgetMs)*time.Millisecond)
		defer cancel()
	}

	// Warm start: the same greedy seed a solo bnb computes, obtained by
	// forwarding a greedy variant of the request (greedy is deterministic,
	// so any node answers the identical mapping). A 4xx is the request's
	// own verdict and relays as-is; a 5xx mirrors the solo rule that a
	// greedy failure is not fatal — the search simply starts warm-less.
	opts := bnb.Options{Racing: req.Distributed == "racing"}
	warmReq := *req
	warmReq.Algo = "greedy"
	warmReq.Distributed = ""
	warmBody, err := service.EncodeJSON(&warmReq)
	if err != nil {
		rt.fail(w, name, http.StatusInternalServerError, fmt.Sprintf("encoding warm-start request: %v", err))
		return
	}
	warmRes, err := rt.forward(ctx, string(warmBody), http.MethodPost, "/v1/search", warmBody, nil)
	switch {
	case err != nil:
		rt.failErr(w, name, err)
		return
	case warmRes.status >= 400 && warmRes.status < 500:
		rt.passthrough(w, name, warmRes)
		return
	case warmRes.status == http.StatusOK:
		var warm service.SearchResponse
		if jerr := json.Unmarshal(warmRes.body, &warm); jerr == nil {
			if mp, merr := mapping.New(warm.Replicas, req.Platform.NumProcs()); merr == nil {
				if p, perr := rat.Parse(warm.Period); perr == nil {
					opts.Incumbent, opts.IncumbentPeriod = mp, p
				}
			}
		}
		if opts.Incumbent == nil {
			rt.fail(w, name, http.StatusBadGateway,
				fmt.Sprintf("node %s answered a malformed search response", warmRes.node))
			return
		}
	}

	exec := &remoteExecutor{
		rt:      rt,
		pipe:    req.Pipeline,
		plat:    req.Platform,
		model:   req.Model,
		keyBase: service.JobKeyPrefix(body),
	}
	opts.Executor = exec
	opts.Workers = rt.rootsInFlight()
	res, err := bnb.Search(ctx, nil, req.Pipeline, req.Platform, cm, opts)
	if err != nil {
		// The same budget-vs-server-deadline attribution the node performs.
		ctxErr := errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)
		if req.BudgetMs > 0 && ctxErr && r.Context().Err() == nil {
			rt.fail(w, name, http.StatusBadRequest,
				fmt.Sprintf("search budget of %d ms expired before a feasible mapping was found", req.BudgetMs))
			return
		}
		status := http.StatusInternalServerError
		if ctxErr {
			status = http.StatusServiceUnavailable
		}
		rt.fail(w, name, status, err.Error())
		return
	}
	proven, nodes, pruned, screened := res.Proven, res.Stats.Nodes, res.Stats.Pruned, res.Stats.Screened
	resp := service.SearchResponse{
		Algo:        "bnb",
		Backend:     service.EngineLabel,
		Model:       cm.String(),
		Replicas:    res.Mapping.Replicas,
		Period:      res.Period.String(),
		PeriodFloat: res.Period.Float64(),
		Throughput:  res.Throughput().String(),
		Proven:      &proven,
		Nodes:       &nodes,
		Pruned:      &pruned,
		Screened:    &screened,
	}
	rt.answer(w, name, resp)
}

// minRootsInFlight is the fewest subtree roots a distributed search keeps
// in flight, and all it keeps before any node has reported its workers.
const minRootsInFlight = 8

// rootsInFlight sizes a distributed search's root concurrency. A node
// walks each root on one goroutine, and a root spends part of its time on
// the wire, so the router keeps twice the alive nodes' engine workers in
// flight (a node's default admission budget is the same twice its
// workers), and never fewer than minRootsInFlight: below that, round trips
// leave small clusters idle.
func (rt *Router) rootsInFlight() int {
	return max(2*rt.aliveWorkers(), minRootsInFlight)
}

// remoteExecutor ships frontier roots to their ring homes. RunRoot is
// called from bnb's worker goroutines; forward already retries the ring
// successors on a dead home, so a lost node costs latency, not the root. A
// returned error marks the root unexplored — bnb merges it as such and the
// search result drops its proven flag.
type remoteExecutor struct {
	rt      *Router
	pipe    *pipeline.Pipeline
	plat    *platform.Platform
	model   string
	keyBase string
}

func (e *remoteExecutor) RunRoot(ctx context.Context, root bnb.Root, warm string) (bnb.SubResult, error) {
	body, err := service.EncodeJSON(service.SubtreeRequest{
		Pipeline:   e.pipe,
		Platform:   e.plat,
		Model:      e.model,
		Root:       root,
		WarmPeriod: warm,
	})
	if err != nil {
		return bnb.SubResult{}, err
	}
	key := fmt.Sprintf("subtree\x00%s\x00%d", e.keyBase, root.Index)
	res, err := e.rt.forward(ctx, key, http.MethodPost, "/v1/internal/subtree", body, nil)
	if err != nil {
		return bnb.SubResult{}, err
	}
	if res.status != http.StatusOK {
		info := errorInfoOf(res.body)
		return bnb.SubResult{}, fmt.Errorf("subtree %d on node %s: status %d: %s", root.Index, res.node, res.status, info.Message)
	}
	var sub service.SubtreeResponse
	if err := json.Unmarshal(res.body, &sub); err != nil {
		return bnb.SubResult{}, fmt.Errorf("node %s answered a malformed subtree response: %v", res.node, err)
	}
	return sub.Result, nil
}

var _ bnb.Executor = (*remoteExecutor)(nil)
