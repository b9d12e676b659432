package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/fixture"
	"repro/internal/pipeline"
	"repro/internal/platform"
	"repro/internal/service"
)

// jobPoll polls a job's status URL until it reports a terminal state.
func jobPoll(t *testing.T, base, id string) service.Job {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		body, status := getRaw(t, base+"/v1/jobs/"+id)
		if status != http.StatusOK {
			t.Fatalf("poll %s: status %d body %s", id, status, body)
		}
		var j service.Job
		if err := json.Unmarshal(body, &j); err != nil {
			t.Fatalf("poll %s: %v (body %s)", id, err, body)
		}
		switch j.State {
		case "done", "failed", "canceled":
			return j
		}
		if time.Now().After(deadline) {
			t.Fatalf("poll %s: stuck in %q", id, j.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRouterJobsByteIdenticalToSingleNode is the job-routing acceptance
// check: a submission through the router mints the same deterministic job
// ID a standalone node mints for the same body, and submit, poll and result
// answers are byte-identical between the two fronts (status polls compared
// at the terminal state, which is the deterministic one).
func TestRouterJobsByteIdenticalToSingleNode(t *testing.T) {
	_, _, base := startCluster(t, 3, service.Options{}, nil)
	solo := startNode(t, service.Options{})

	pipe, err := pipeline.New([]int64{100, 200, 100}, []int64{50, 50})
	if err != nil {
		t.Fatal(err)
	}
	body := mustJSON(t, service.JobSubmitRequest{Kind: "search", Search: &service.SearchRequest{
		Pipeline: pipe, Platform: platform.Uniform(5, 100, 100),
		Model: "overlap", Algo: "bnb", Seed: 7,
	}})

	viaRouter, status := postRaw(t, base+"/v1/jobs", body)
	if status != http.StatusAccepted {
		t.Fatalf("router submit: status %d body %s", status, viaRouter)
	}
	direct, status := postRaw(t, solo.url()+"/v1/jobs", body)
	if status != http.StatusAccepted {
		t.Fatalf("direct submit: status %d body %s", status, direct)
	}
	if !bytes.Equal(viaRouter, direct) {
		t.Fatalf("submit answers differ:\nrouter: %s\ndirect: %s", viaRouter, direct)
	}
	var j service.Job
	if err := json.Unmarshal(viaRouter, &j); err != nil {
		t.Fatal(err)
	}
	if want := service.JobKeyPrefix(body) + "-1"; j.ID != want {
		t.Fatalf("router-fronted job ID %q, want %q", j.ID, want)
	}

	routed := jobPoll(t, base, j.ID)
	soloFin := jobPoll(t, solo.url(), j.ID)
	if !bytes.Equal(mustJSON(t, routed), mustJSON(t, soloFin)) {
		t.Fatalf("terminal status answers differ:\nrouter: %+v\ndirect: %+v", routed, soloFin)
	}

	resRouted, status := getRaw(t, base+"/v1/jobs/"+j.ID+"/result")
	if status != http.StatusOK {
		t.Fatalf("router result: status %d body %s", status, resRouted)
	}
	resDirect, status := getRaw(t, solo.url()+"/v1/jobs/"+j.ID+"/result")
	if status != http.StatusOK {
		t.Fatalf("direct result: status %d body %s", status, resDirect)
	}
	if !bytes.Equal(resRouted, resDirect) {
		t.Fatalf("results differ:\nrouter: %s\ndirect: %s", resRouted, resDirect)
	}

	// The router-fronted listing finds the job (fan-out merge).
	listBody, status := getRaw(t, base+"/v1/jobs?kind=search")
	if status != http.StatusOK {
		t.Fatalf("router list: status %d body %s", status, listBody)
	}
	var list service.JobListResponse
	if err := json.Unmarshal(listBody, &list); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, lj := range list.Jobs {
		if lj.ID == j.ID {
			found = true
		}
	}
	if !found {
		t.Fatalf("router listing misses %s: %s", j.ID, listBody)
	}
}

// TestRouterJobSubmitReplaysDocRefs: a job submission referencing
// registered documents must succeed even when the body-prefix home node is
// not the document's home — the router replays the registrations on miss.
func TestRouterJobSubmitReplaysDocRefs(t *testing.T) {
	_, _, base := startCluster(t, 3, service.Options{}, nil)

	pipe, err := pipeline.New([]int64{100, 200, 100}, []int64{50, 50})
	if err != nil {
		t.Fatal(err)
	}
	plat := platform.Uniform(4, 100, 100)
	var pipeReg, platReg service.InstanceResponse
	regBody, status := postRaw(t, base+"/v1/instances", mustJSON(t, service.InstanceRequest{Pipeline: pipe}))
	if status != http.StatusOK {
		t.Fatalf("pipeline registration: status %d body %s", status, regBody)
	}
	if err := json.Unmarshal(regBody, &pipeReg); err != nil {
		t.Fatal(err)
	}
	regBody, status = postRaw(t, base+"/v1/instances", mustJSON(t, service.InstanceRequest{Platform: plat}))
	if status != http.StatusOK {
		t.Fatalf("platform registration: status %d body %s", status, regBody)
	}
	if err := json.Unmarshal(regBody, &platReg); err != nil {
		t.Fatal(err)
	}

	// Vary the seed to spread submissions across home nodes: at 3 nodes,
	// several of these bodies hash to nodes that never saw the registration
	// and must be healed by replay.
	for seed := int64(1); seed <= 6; seed++ {
		body := mustJSON(t, service.JobSubmitRequest{Kind: "search", Search: &service.SearchRequest{
			PipelineID: pipeReg.ID, PlatformID: platReg.ID,
			Model: "overlap", Algo: "greedy", Seed: seed,
		}})
		resp, status := postRaw(t, base+"/v1/jobs", body)
		if status != http.StatusAccepted {
			t.Fatalf("seed %d: status %d body %s", seed, status, resp)
		}
		var j service.Job
		if err := json.Unmarshal(resp, &j); err != nil {
			t.Fatal(err)
		}
		if fin := jobPoll(t, base, j.ID); fin.State != "done" {
			t.Fatalf("seed %d: job %s finished %q (error %+v)", seed, j.ID, fin.State, fin.Error)
		}
	}

	// The registered pipeline itself resolves through the router by ID.
	lookup, status := getRaw(t, base+"/v1/instances/"+pipeReg.ID)
	if status != http.StatusOK || !strings.Contains(string(lookup), `"kind":"pipeline"`) {
		t.Fatalf("pipeline lookup: status %d body %s", status, lookup)
	}
}

// TestRouterSyncJobIDRoutesByFanout: a synchronous request mints a
// kind-prefixed job ID ("search-1") on whichever node served it — a prefix
// that names no home node. The router must still answer item routes for it
// (status poll and result fetch), byte-identically to asking the owning
// node directly, and keep honest 404s for IDs no node minted.
func TestRouterSyncJobIDRoutesByFanout(t *testing.T) {
	nodes, _, base := startCluster(t, 3, service.Options{}, nil)

	pipe, err := pipeline.New([]int64{100, 200, 100}, []int64{50, 50})
	if err != nil {
		t.Fatal(err)
	}
	body := mustJSON(t, service.SearchRequest{
		Pipeline: pipe, Platform: platform.Uniform(5, 100, 100),
		Model: "overlap", Algo: "greedy",
	})
	if resp, status := postRaw(t, base+"/v1/search", body); status != http.StatusOK {
		t.Fatalf("sync search: status %d body %s", status, resp)
	}

	// The router listing (a fan-out merge) surfaces the sync-born ID.
	listBody, status := getRaw(t, base+"/v1/jobs?kind=search")
	if status != http.StatusOK {
		t.Fatalf("list: status %d body %s", status, listBody)
	}
	var list service.JobListResponse
	if err := json.Unmarshal(listBody, &list); err != nil {
		t.Fatal(err)
	}
	id := ""
	for _, lj := range list.Jobs {
		if strings.HasPrefix(lj.ID, "search-") {
			id = lj.ID
		}
	}
	if id == "" {
		t.Fatalf("no sync-born job in router listing: %s", listBody)
	}

	// Exactly one node minted the ID; its direct answers are the reference.
	var wantStatusBody, wantResultBody []byte
	owners := 0
	for _, n := range nodes {
		if b, s := getRaw(t, n.url()+"/v1/jobs/"+id); s == http.StatusOK {
			owners++
			wantStatusBody = b
			if rb, rs := getRaw(t, n.url()+"/v1/jobs/"+id+"/result"); rs == http.StatusOK {
				wantResultBody = rb
			} else {
				t.Fatalf("owner result fetch: status %d body %s", rs, rb)
			}
		}
	}
	if owners != 1 {
		t.Fatalf("sync job %s resident on %d nodes, want exactly 1", id, owners)
	}

	gotStatusBody, status := getRaw(t, base+"/v1/jobs/"+id)
	if status != http.StatusOK {
		t.Fatalf("router poll of %s: status %d body %s", id, status, gotStatusBody)
	}
	if !bytes.Equal(gotStatusBody, wantStatusBody) {
		t.Fatalf("router poll differs from owner:\nrouter: %s\nowner:  %s", gotStatusBody, wantStatusBody)
	}
	gotResultBody, status := getRaw(t, base+"/v1/jobs/"+id+"/result")
	if status != http.StatusOK {
		t.Fatalf("router result of %s: status %d body %s", id, status, gotResultBody)
	}
	if !bytes.Equal(gotResultBody, wantResultBody) {
		t.Fatalf("router result differs from owner:\nrouter: %s\nowner:  %s", gotResultBody, wantResultBody)
	}

	// An ID no node minted stays a truthful 404 through the fan-out.
	if b, s := getRaw(t, base+"/v1/jobs/search-999"); s != http.StatusNotFound {
		t.Fatalf("unknown sync ID: status %d body %s", s, b)
	}
}

// TestRouterJobCancelRoutesByPrefix: DELETE through the router reaches the
// node that owns the job and answers its canceled status.
func TestRouterJobCancelRoutesByPrefix(t *testing.T) {
	// One solver worker per node and patient probes: the point here is
	// routing the cancel, and the deliberately huge search must not peg
	// every core and trick the 20 ms test probes into ejecting the cluster.
	_, _, base := startCluster(t, 3, service.Options{Workers: 1}, func(o *Options) {
		o.ProbeInterval = 200 * time.Millisecond
		o.ProbeTimeout = 5 * time.Second
		o.EjectAfter = 100
	})
	// A search too large to finish promptly (14 stages on 56 processors of
	// two speeds), so the cancel verdict — not a done race — is what comes
	// back.
	body := mustJSON(t, service.JobSubmitRequest{Kind: "search", Search: &service.SearchRequest{
		Pipeline: fixture.Pipeline(14), Platform: fixture.TwoSpeedPlatform(56),
		Model: "overlap", Algo: "bnb",
	}})
	resp, status := postRaw(t, base+"/v1/jobs", body)
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d body %s", status, resp)
	}
	var j service.Job
	if err := json.Unmarshal(resp, &j); err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodDelete, base+"/v1/jobs/"+j.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dbody, _ := io.ReadAll(dresp.Body)
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("cancel via router: status %d body %s", dresp.StatusCode, dbody)
	}
	if fin := jobPoll(t, base, j.ID); fin.State != "canceled" {
		t.Fatalf("state after routed cancel %q, want canceled", fin.State)
	}
}
