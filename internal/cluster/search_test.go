package cluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"repro/internal/fixture"
	"repro/internal/service"
)

// distributableSearch is a fixture whose greedy warm start does NOT prove
// optimality outright: the bnb frontier survives (over a hundred roots), so
// a distributed run genuinely scatters subtrees while still finishing in
// milliseconds. (Uniform fixtures collapse to frontier 0 — the computation
// relaxation proves greedy optimal during the expansion — and would test
// nothing.)
func distributableSearch(t *testing.T) service.SearchRequest {
	t.Helper()
	return service.SearchRequest{
		Pipeline: fixture.Pipeline(8),
		Platform: fixture.TwoSpeedPlatform(16),
		Model:    "overlap",
		Algo:     "bnb",
	}
}

// steadyRing slows the prober down so a CPU-starved test box (parallel
// -race packages) cannot spuriously eject a healthy node mid-search. Dead
// nodes are still handled — transport errors fail a root's dispatch over
// to ring successors at request speed, no ejection needed.
func steadyRing(o *Options) {
	o.ProbeInterval = time.Minute
	o.EjectAfter = 1000
}

// TestRouterDistributedSearchByteIdenticalToSolo is the coordinator's
// acceptance bar: a deterministic distributed search over 3 nodes must
// answer byte-for-byte what one standalone node answers for the plain solo
// request — same mapping, same period, same proven flag, same node counts.
func TestRouterDistributedSearchByteIdenticalToSolo(t *testing.T) {
	solo := startNode(t, service.Options{})
	_, _, routerURL := startCluster(t, 3, service.Options{}, steadyRing)

	req := distributableSearch(t)
	wantBody, wantStatus := postRaw(t, solo.url()+"/v1/search", mustJSON(t, req))
	if wantStatus != http.StatusOK {
		t.Fatalf("solo search: status %d body %s", wantStatus, wantBody)
	}
	var want service.SearchResponse
	if err := json.Unmarshal(wantBody, &want); err != nil {
		t.Fatal(err)
	}
	if want.Proven == nil || !*want.Proven {
		t.Fatalf("fixture not proven on solo node: %s", wantBody)
	}
	if want.Nodes == nil || *want.Nodes == 0 {
		t.Fatalf("fixture explored no tree (greedy already optimal?): %s", wantBody)
	}

	req.Distributed = "deterministic"
	gotBody, gotStatus := postRaw(t, routerURL+"/v1/search", mustJSON(t, req))
	if gotStatus != http.StatusOK {
		t.Fatalf("distributed search: status %d body %s", gotStatus, gotBody)
	}
	if !bytes.Equal(gotBody, wantBody) {
		t.Fatalf("distributed search differs from solo:\nrouter: %s\nsolo:   %s", gotBody, wantBody)
	}

	// The subtrees actually scattered: more than one node served requests.
	m := scrapeRouter(t, routerURL)
	busy := 0
	for _, count := range m.Router.PerNode {
		if count > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Errorf("distributed search did not scatter: per-node proxied counts %v", m.Router.PerNode)
	}
}

// TestRouterDistributedRacingSameProvenOptimum: racing mode trades
// bit-identity of tie winners and node counts for wall clock, but the
// period it proves is the same optimum.
func TestRouterDistributedRacingSameProvenOptimum(t *testing.T) {
	solo := startNode(t, service.Options{})
	_, _, routerURL := startCluster(t, 3, service.Options{}, steadyRing)

	req := distributableSearch(t)
	wantBody, wantStatus := postRaw(t, solo.url()+"/v1/search", mustJSON(t, req))
	if wantStatus != http.StatusOK {
		t.Fatalf("solo search: status %d body %s", wantStatus, wantBody)
	}
	var want service.SearchResponse
	if err := json.Unmarshal(wantBody, &want); err != nil {
		t.Fatal(err)
	}

	req.Distributed = "racing"
	gotBody, gotStatus := postRaw(t, routerURL+"/v1/search", mustJSON(t, req))
	if gotStatus != http.StatusOK {
		t.Fatalf("racing search: status %d body %s", gotStatus, gotBody)
	}
	var got service.SearchResponse
	if err := json.Unmarshal(gotBody, &got); err != nil {
		t.Fatal(err)
	}
	if got.Proven == nil || !*got.Proven {
		t.Fatalf("racing search not proven: %s", gotBody)
	}
	if got.Period != want.Period {
		t.Fatalf("racing period %s, want the solo optimum %s", got.Period, want.Period)
	}
	if got.Backend != want.Backend || got.Model != want.Model || got.Algo != "bnb" {
		t.Fatalf("racing labels differ: %s vs %s", gotBody, wantBody)
	}
}

// TestRouterDistributedSearchSurvivesDeadNode: with one of three nodes
// already dead (and the prober not necessarily converged), the roots homed
// on it fail over to ring successors — the deterministic answer is still
// byte-identical to solo, because rescheduling changes where a root runs,
// never what it returns.
func TestRouterDistributedSearchSurvivesDeadNode(t *testing.T) {
	solo := startNode(t, service.Options{})
	nodes, _, routerURL := startCluster(t, 3, service.Options{}, steadyRing)
	nodes[2].kill()

	req := distributableSearch(t)
	wantBody, wantStatus := postRaw(t, solo.url()+"/v1/search", mustJSON(t, req))
	if wantStatus != http.StatusOK {
		t.Fatalf("solo search: status %d body %s", wantStatus, wantBody)
	}
	req.Distributed = "deterministic"
	gotBody, gotStatus := postRaw(t, routerURL+"/v1/search", mustJSON(t, req))
	if gotStatus != http.StatusOK {
		t.Fatalf("distributed search with dead node: status %d body %s", gotStatus, gotBody)
	}
	if !bytes.Equal(gotBody, wantBody) {
		t.Fatalf("distributed search with dead node differs from solo:\nrouter: %s\nsolo:   %s", gotBody, wantBody)
	}
}

// TestRouterDistributedSearchValidation pins the coordinator's request
// verdicts, phrased like a node's own.
func TestRouterDistributedSearchValidation(t *testing.T) {
	_, _, routerURL := startCluster(t, 1, service.Options{}, steadyRing)
	req := distributableSearch(t)

	bad := req
	bad.Distributed = "sideways"
	body, status := postRaw(t, routerURL+"/v1/search", mustJSON(t, bad))
	if status != http.StatusBadRequest {
		t.Fatalf("unknown mode: status %d body %s", status, body)
	}

	bad = req
	bad.Algo = "greedy"
	bad.Distributed = "deterministic"
	body, status = postRaw(t, routerURL+"/v1/search", mustJSON(t, bad))
	if status != http.StatusBadRequest {
		t.Fatalf("distributed greedy: status %d body %s", status, body)
	}

	bad = req
	bad.Pipeline = nil
	bad.PipelineID = "deadbeefdeadbeefdeadbeefdeadbeefdeadbeefdeadbeefdeadbeefdeadbeef"
	bad.Distributed = "deterministic"
	body, status = postRaw(t, routerURL+"/v1/search", mustJSON(t, bad))
	if status != http.StatusBadRequest {
		t.Fatalf("by-ID distributed: status %d body %s", status, body)
	}

	bad = req
	bad.Model = "sideways"
	bad.Distributed = "racing"
	body, status = postRaw(t, routerURL+"/v1/search", mustJSON(t, bad))
	if status != http.StatusBadRequest {
		t.Fatalf("bad model: status %d body %s", status, body)
	}
}

// TestRouterRootsInFlightFollowNodeWorkers: the health probes record each
// node's engine pool size, and a distributed search keeps twice the alive
// nodes' workers in flight, never fewer than minRootsInFlight. An ejected
// node's workers stop counting.
func TestRouterRootsInFlightFollowNodeWorkers(t *testing.T) {
	nodes, rt, _ := startCluster(t, 2, service.Options{Workers: 3}, nil)
	if got := rt.rootsInFlight(); got < minRootsInFlight {
		t.Fatalf("rootsInFlight = %d, below the floor %d", got, minRootsInFlight)
	}
	waitFor(t, "probes to report 2x3 workers", func() bool { return rt.aliveWorkers() == 6 })
	if got := rt.rootsInFlight(); got != 12 {
		t.Fatalf("rootsInFlight with 6 workers = %d, want 12", got)
	}
	nodes[1].kill()
	waitFor(t, "the dead node's workers to stop counting", func() bool { return rt.aliveWorkers() == 3 })
	if got := rt.rootsInFlight(); got != minRootsInFlight {
		t.Fatalf("rootsInFlight with 3 workers = %d, want the floor %d", got, minRootsInFlight)
	}
}
