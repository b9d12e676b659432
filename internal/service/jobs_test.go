package service

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fixture"
	"repro/internal/model"
)

// ---- helpers ----

// postRaw posts pre-encoded bytes and returns the response body and status:
// the byte-identity tests need control over the exact request bytes (the job
// ID prefix hashes them) and the exact response bytes.
func postRaw(t *testing.T, url string, body []byte) ([]byte, int) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), resp.StatusCode
}

// do issues an arbitrary-method request with no body.
func do(t *testing.T, method, url string) ([]byte, int) {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), resp.StatusCode
}

// pollJob polls GET /v1/jobs/{id} until the predicate accepts the decoded
// job or the deadline passes.
func pollJob(t *testing.T, base, id string, accept func(Job) bool) Job {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		body, status := do(t, http.MethodGet, base+"/v1/jobs/"+id)
		if status != http.StatusOK {
			t.Fatalf("poll %s: status %d body %s", id, status, body)
		}
		var j Job
		if err := json.Unmarshal(body, &j); err != nil {
			t.Fatalf("poll %s: %v (body %s)", id, err, body)
		}
		if accept(j) {
			return j
		}
		if time.Now().After(deadline) {
			t.Fatalf("poll %s: deadline passed in state %q", id, j.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func terminal(j Job) bool {
	switch j.State {
	case "done", "failed", "canceled":
		return true
	}
	return false
}

// submitJob posts a submission body and decodes the 202 answer.
func submitJob(t *testing.T, base string, body []byte) Job {
	t.Helper()
	resp, status := postRaw(t, base+"/v1/jobs", body)
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d body %s", status, resp)
	}
	var j Job
	if err := json.Unmarshal(resp, &j); err != nil {
		t.Fatalf("submit: %v (body %s)", err, resp)
	}
	return j
}

// mustMarshal is json.Marshal or bust.
func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// ---- lifecycle ----

// TestJobSubmitPollResult drives the async happy path end to end and pins
// the core API contract: deterministic IDs derived from the body hash, 202
// on submit, live status polling, and a terminal result byte-identical to
// what the synchronous endpoint answers for the same payload.
func TestJobSubmitPollResult(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	search := SearchRequest{
		Pipeline: mustPipeline(t, []int64{100, 200, 100}, []int64{50, 50}),
		Platform: mustPlatform(t),
		Model:    "overlap",
		Algo:     "greedy",
	}
	body := mustMarshal(t, JobSubmitRequest{Kind: "search", Search: &search})

	j := submitJob(t, ts.URL, body)
	wantID := JobKeyPrefix(body) + "-1"
	if j.ID != wantID || j.Kind != "search" || j.State != "pending" {
		t.Fatalf("submit answered %+v, want id %s kind search state pending", j, wantID)
	}
	if j.Progress == nil || j.Progress.Nodes == nil {
		t.Fatalf("search job without tree progress gauges: %+v", j)
	}

	fin := pollJob(t, ts.URL, j.ID, terminal)
	if fin.State != "done" {
		t.Fatalf("job finished %q (error %+v), want done", fin.State, fin.Error)
	}

	result, status := do(t, http.MethodGet, ts.URL+"/v1/jobs/"+j.ID+"/result")
	if status != http.StatusOK {
		t.Fatalf("result: status %d body %s", status, result)
	}
	syncBody, syncStatus := postRaw(t, ts.URL+"/v1/search", mustMarshal(t, search))
	if syncStatus != http.StatusOK {
		t.Fatalf("sync search: status %d body %s", syncStatus, syncBody)
	}
	if !bytes.Equal(result, syncBody) {
		t.Fatalf("async result differs from sync answer:\nasync: %s\nsync:  %s", result, syncBody)
	}

	// Same submission bytes again: the per-prefix counter mints -2.
	if j2 := submitJob(t, ts.URL, body); j2.ID != JobKeyPrefix(body)+"-2" {
		t.Fatalf("second submission minted %q, want %s-2", j2.ID, JobKeyPrefix(body))
	}
}

// TestJobResultDoubleFetch: the retained bytes answer every fetch
// identically — fetching is a read, not a take.
func TestJobResultDoubleFetch(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	body := mustMarshal(t, JobSubmitRequest{Kind: "sweep", Sweep: &SweepRequest{Seed: 3, Pairs: [][]int{{2, 3}}}})
	j := submitJob(t, ts.URL, body)
	pollJob(t, ts.URL, j.ID, terminal)
	first, s1 := do(t, http.MethodGet, ts.URL+"/v1/jobs/"+j.ID+"/result")
	second, s2 := do(t, http.MethodGet, ts.URL+"/v1/jobs/"+j.ID+"/result")
	if s1 != http.StatusOK || s2 != http.StatusOK {
		t.Fatalf("result fetches: status %d, %d", s1, s2)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("repeat fetch differs:\n1: %s\n2: %s", first, second)
	}
	var sweep SweepResponse
	if err := json.Unmarshal(first, &sweep); err != nil || len(sweep.Points) != 1 {
		t.Fatalf("result not a sweep answer: %s (err %v)", first, err)
	}
}

// TestJobCancelMidSearch cancels a branch-and-bound job mid-walk. The exact
// search is anytime, so the canceled job must still answer a well-formed
// search response carrying its best incumbent with proven=false — the
// acceptance contract of DELETE /v1/jobs/{id}.
func TestJobCancelMidSearch(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	search := longBnbSearch(t)
	body := mustMarshal(t, JobSubmitRequest{Kind: "search", Search: &search})
	j := submitJob(t, ts.URL, body)

	// Wait until the walk has visibly advanced (live progress is part of
	// the contract), then cancel.
	running := pollJob(t, ts.URL, j.ID, func(j Job) bool {
		return terminal(j) || (j.Progress != nil && j.Progress.Nodes != nil && *j.Progress.Nodes > 0)
	})
	if terminal(running) {
		t.Fatalf("search finished before it could be canceled: %+v", running)
	}
	cancelBody, status := do(t, http.MethodDelete, ts.URL+"/v1/jobs/"+j.ID)
	if status != http.StatusOK {
		t.Fatalf("cancel: status %d body %s", status, cancelBody)
	}
	fin := pollJob(t, ts.URL, j.ID, terminal)
	if fin.State != "canceled" {
		t.Fatalf("state after cancel %q, want canceled", fin.State)
	}

	result, status := do(t, http.MethodGet, ts.URL+"/v1/jobs/"+j.ID+"/result")
	if status != http.StatusOK {
		t.Fatalf("canceled bnb result: status %d body %s", status, result)
	}
	var got SearchResponse
	if err := json.Unmarshal(result, &got); err != nil {
		t.Fatalf("canceled bnb result not a search response: %v (body %s)", err, result)
	}
	if got.Proven == nil || *got.Proven {
		t.Fatalf("canceled search must answer proven=false, got %+v", got.Proven)
	}
	if len(got.Replicas) != len(search.Pipeline.Stages) || got.Period == "" {
		t.Fatalf("canceled search result malformed: %s", result)
	}
	// Progress must have been reported and retained.
	if fin.Progress == nil || fin.Progress.Nodes == nil || *fin.Progress.Nodes == 0 {
		t.Fatalf("canceled job lost its progress: %+v", fin.Progress)
	}
}

// longBnbSearch is a branch-and-bound search whose tree is far too large to
// exhaust within a test run (minutes uncanceled): 14 stages on 56
// processors of two speeds. The tests that need a job to still be running — cancel
// mid-walk, capacity push-back, result-before-terminal — submit this and
// rely on cooperative cancellation to end it promptly.
func longBnbSearch(t *testing.T) SearchRequest {
	t.Helper()
	return SearchRequest{
		Pipeline: fixture.Pipeline(14),
		Platform: fixture.TwoSpeedPlatform(56),
		Model:    "overlap",
		Algo:     "bnb",
	}
}

// TestJobRegistryBoundedUnderOversubmission hammers the registry with 10x
// its total capacity and asserts the bound holds: residency never exceeds
// active cap + terminal ring, and the CLOCK hand recycled the overflow.
func TestJobRegistryBoundedUnderOversubmission(t *testing.T) {
	const (
		active   = 4
		entries  = 8
		capTotal = active + entries
	)
	s, ts := newTestServer(t, Options{Workers: 2, JobEntries: entries, JobActive: active})
	sweep := &SweepRequest{Seed: 1, Pairs: [][]int{{2, 2}}}
	for i := 0; i < 10*capTotal; i++ {
		// Distinct bodies (the seed varies) so every submission mints a
		// fresh prefix — the worst case for the registry maps.
		sweep.Seed = int64(i + 1)
		body := mustMarshal(t, JobSubmitRequest{Kind: "sweep", Sweep: sweep})
		resp, status := postRaw(t, ts.URL+"/v1/jobs", body)
		if status == http.StatusServiceUnavailable {
			// The active cap pushed back; that is the bound working. Let
			// the backlog drain and retry once.
			time.Sleep(20 * time.Millisecond)
			resp, status = postRaw(t, ts.URL+"/v1/jobs", body)
		}
		if status != http.StatusAccepted {
			t.Fatalf("submission %d: status %d body %s", i, status, resp)
		}
		var j Job
		if err := json.Unmarshal(resp, &j); err != nil {
			t.Fatal(err)
		}
		pollJob(t, ts.URL, j.ID, terminal)
		if m := s.jobs.Metrics(); m.Active+m.Terminal > capTotal {
			t.Fatalf("submission %d: %d resident jobs, cap %d", i, m.Active+m.Terminal, capTotal)
		}
	}
	m := s.jobs.Metrics()
	if m.Terminal > entries || m.Evictions == 0 {
		t.Fatalf("after 10x oversubmission: terminal %d (cap %d), evictions %d", m.Terminal, entries, m.Evictions)
	}
	var list JobListResponse
	body, status := do(t, http.MethodGet, ts.URL+"/v1/jobs")
	if status != http.StatusOK {
		t.Fatalf("list: status %d body %s", status, body)
	}
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) > capTotal {
		t.Fatalf("list holds %d jobs, cap %d", len(list.Jobs), capTotal)
	}
}

// TestJobCapacityRefusal: past the active cap, submission answers 503 with
// the job_capacity code — back-pressure, not an error in the request.
func TestJobCapacityRefusal(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2, JobActive: 1})
	long := longBnbSearch(t)
	j := submitJob(t, ts.URL, mustMarshal(t, JobSubmitRequest{Kind: "search", Search: &long}))

	quick := mustMarshal(t, JobSubmitRequest{Kind: "sweep", Sweep: &SweepRequest{Seed: 1, Pairs: [][]int{{2, 2}}}})
	body, status := postRaw(t, ts.URL+"/v1/jobs", quick)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("submission past the cap: status %d body %s", status, body)
	}
	var e struct {
		Error ErrorInfo `json:"error"`
	}
	if err := json.Unmarshal(body, &e); err != nil || e.Error.Code != CodeJobCapacity {
		t.Fatalf("capacity refusal body %s (decode err %v), want code %q", body, err, CodeJobCapacity)
	}
	if _, status := do(t, http.MethodDelete, ts.URL+"/v1/jobs/"+j.ID); status != http.StatusOK {
		t.Fatalf("cancel of the long job: status %d", status)
	}
	pollJob(t, ts.URL, j.ID, terminal)
}

// TestJobUnknownID404: every item route answers 404 with the unknown_job
// code for an ID that was never minted.
func TestJobUnknownID404(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	for _, c := range []struct{ method, path string }{
		{http.MethodGet, "/v1/jobs/nope-1"},
		{http.MethodGet, "/v1/jobs/nope-1/result"},
		{http.MethodDelete, "/v1/jobs/nope-1"},
	} {
		body, status := do(t, c.method, ts.URL+c.path)
		if status != http.StatusNotFound {
			t.Fatalf("%s %s: status %d body %s", c.method, c.path, status, body)
		}
		var e struct {
			Error ErrorInfo `json:"error"`
		}
		if err := json.Unmarshal(body, &e); err != nil || e.Error.Code != CodeUnknownJob {
			t.Fatalf("%s %s: body %s (decode err %v), want code %q", c.method, c.path, body, err, CodeUnknownJob)
		}
	}
}

// TestJobResultBeforeTerminal: polling the result of a job that has not
// finished is a 409 conflict with the job_not_finished code.
func TestJobResultBeforeTerminal(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	long := longBnbSearch(t)
	body := mustMarshal(t, JobSubmitRequest{Kind: "search", Search: &long})
	j := submitJob(t, ts.URL, body)
	resp, status := do(t, http.MethodGet, ts.URL+"/v1/jobs/"+j.ID+"/result")
	if status != http.StatusConflict {
		t.Fatalf("early result fetch: status %d body %s", status, resp)
	}
	var e struct {
		Error ErrorInfo `json:"error"`
	}
	if err := json.Unmarshal(resp, &e); err != nil || e.Error.Code != CodeJobNotFinished {
		t.Fatalf("early result body %s (decode err %v), want code %q", resp, err, CodeJobNotFinished)
	}
	if _, status := do(t, http.MethodDelete, ts.URL+"/v1/jobs/"+j.ID); status != http.StatusOK {
		t.Fatalf("cleanup cancel: status %d", status)
	}
	pollJob(t, ts.URL, j.ID, terminal)
}

// TestJobSubmitValidation: malformed submissions are refused synchronously
// with the legacy message texts, and no job is minted for them.
func TestJobSubmitValidation(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})
	cases := []struct {
		name string
		body string
		want string
	}{
		{"missing kind", `{}`, `missing "kind" (want "search" or "sweep")`},
		{"unknown kind", `{"kind":"dance"}`, `unknown job kind "dance"`},
		{"kind/payload mismatch", `{"kind":"search","sweep":{}}`, `kind "search" takes a "search" payload, not "sweep"`},
		{"missing payload", `{"kind":"sweep"}`, `missing "sweep" payload for kind "sweep"`},
		{"invalid search", `{"kind":"search","search":{"model":"overlap"}}`, `missing "pipeline" or "platform"`},
		{"trailing garbage", `{"kind":"sweep","sweep":{}} x`, "bad request body"},
		{"trailing brace", `{"kind":"sweep","sweep":{}}}`, "trailing data"},
		{"trailing bracket", `{"kind":"sweep","sweep":{}}]`, "trailing data"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			body, status := postRaw(t, ts.URL+"/v1/jobs", []byte(c.body))
			if status != http.StatusBadRequest {
				t.Fatalf("status %d body %s, want 400", status, body)
			}
			var e struct {
				Error ErrorInfo `json:"error"`
			}
			if err := json.Unmarshal(body, &e); err != nil || !strings.Contains(e.Error.Message, c.want) {
				t.Fatalf("error body %s (decode err %v), want message containing %q", body, err, c.want)
			}
		})
	}
	if m := s.jobs.Metrics(); m.Submitted != 0 {
		t.Fatalf("invalid submissions minted %d jobs, want 0", m.Submitted)
	}
	// Method and path shape errors on the job routes.
	if body, status := do(t, http.MethodPut, ts.URL+"/v1/jobs"); status != http.StatusMethodNotAllowed {
		t.Fatalf("PUT /v1/jobs: status %d body %s", status, body)
	}
	if body, status := do(t, http.MethodGet, ts.URL+"/v1/jobs/a/b/c"); status != http.StatusBadRequest {
		t.Fatalf("GET /v1/jobs/a/b/c: status %d body %s", status, body)
	}
	if body, status := do(t, http.MethodPut, ts.URL+"/v1/jobs/a-1"); status != http.StatusMethodNotAllowed {
		t.Fatalf("PUT /v1/jobs/a-1: status %d body %s", status, body)
	}
	if body, status := postRaw(t, ts.URL+"/v1/jobs/a-1/result", nil); status != http.StatusMethodNotAllowed {
		t.Fatalf("POST result: status %d body %s", status, body)
	}
}

// TestJobListFilters exercises GET /v1/jobs filtering and ordering.
func TestJobListFilters(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	sweepBody := mustMarshal(t, JobSubmitRequest{Kind: "sweep", Sweep: &SweepRequest{Seed: 9, Pairs: [][]int{{2, 2}}}})
	j := submitJob(t, ts.URL, sweepBody)
	pollJob(t, ts.URL, j.ID, terminal)

	var list JobListResponse
	body, status := do(t, http.MethodGet, ts.URL+"/v1/jobs?kind=sweep&state=done")
	if status != http.StatusOK {
		t.Fatalf("filtered list: status %d body %s", status, body)
	}
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 1 || list.Jobs[0].ID != j.ID {
		t.Fatalf("filtered list %+v, want exactly %s", list.Jobs, j.ID)
	}
	if body, status := do(t, http.MethodGet, ts.URL+"/v1/jobs?kind=polka"); status != http.StatusBadRequest {
		t.Fatalf("bad kind filter: status %d body %s", status, body)
	}
	if body, status := do(t, http.MethodGet, ts.URL+"/v1/jobs?state=paused"); status != http.StatusBadRequest {
		t.Fatalf("bad state filter: status %d body %s", status, body)
	}
}

// TestSyncRequestIsPollableJob: the synchronous endpoints execute through
// the job engine, so after a sync /v1/sweep the job it ran under is listed,
// terminal, and its retained result is the exact body the sync client got.
func TestSyncRequestIsPollableJob(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	syncBody, status := postRaw(t, ts.URL+"/v1/sweep", mustMarshal(t, SweepRequest{Seed: 5, Pairs: [][]int{{2, 3}}}))
	if status != http.StatusOK {
		t.Fatalf("sync sweep: status %d body %s", status, syncBody)
	}
	// Sync jobs are keyed by kind: the first sweep on this server is
	// sweep-1.
	fin := pollJob(t, ts.URL, "sweep-1", terminal)
	if fin.State != "done" {
		t.Fatalf("sync job state %q, want done", fin.State)
	}
	if fin.Progress == nil || fin.Progress.PointsDone == nil || *fin.Progress.PointsDone != 1 {
		t.Fatalf("sync job progress %+v, want pointsDone=1", fin.Progress)
	}
	result, status := do(t, http.MethodGet, ts.URL+"/v1/jobs/sweep-1/result")
	if status != http.StatusOK {
		t.Fatalf("sync job result: status %d body %s", status, result)
	}
	if !bytes.Equal(result, syncBody) {
		t.Fatalf("retained sync result differs from the answered body:\njob:  %s\nsync: %s", result, syncBody)
	}
}

// ---- instanceId references ----

// TestSearchByDocIDByteIdentity registers the pipeline and platform as
// content-addressed documents and asserts a search referencing them by ID
// answers the exact bytes of the inline-document search.
func TestSearchByDocIDByteIdentity(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	pipe := mustPipeline(t, []int64{100, 200, 100}, []int64{50, 50})
	plat := mustPlatform(t)

	var pipeReg, platReg InstanceResponse
	postJSON(t, ts.URL+"/v1/instances", InstanceRequest{Pipeline: pipe}, &pipeReg)
	postJSON(t, ts.URL+"/v1/instances", InstanceRequest{Platform: plat}, &platReg)
	if pipeReg.Kind != "pipeline" || platReg.Kind != "platform" {
		t.Fatalf("registrations answered kinds %q, %q", pipeReg.Kind, platReg.Kind)
	}
	if pipeReg.ID == platReg.ID {
		t.Fatal("pipeline and platform registered under one ID")
	}

	inline, s1 := postRaw(t, ts.URL+"/v1/search", mustMarshal(t, SearchRequest{
		Pipeline: pipe, Platform: plat, Model: "overlap", Algo: "bnb",
	}))
	byID, s2 := postRaw(t, ts.URL+"/v1/search", mustMarshal(t, SearchRequest{
		PipelineID: pipeReg.ID, PlatformID: platReg.ID, Model: "overlap", Algo: "bnb",
	}))
	if s1 != http.StatusOK || s2 != http.StatusOK {
		t.Fatalf("searches: status %d, %d (%s / %s)", s1, s2, inline, byID)
	}
	if !bytes.Equal(inline, byID) {
		t.Fatalf("by-ID search differs from inline:\ninline: %s\nbyID:   %s", inline, byID)
	}

	// The same equivalence must hold through the async path.
	job := submitJob(t, ts.URL, mustMarshal(t, JobSubmitRequest{Kind: "search", Search: &SearchRequest{
		PipelineID: pipeReg.ID, PlatformID: platReg.ID, Model: "overlap", Algo: "bnb",
	}}))
	pollJob(t, ts.URL, job.ID, terminal)
	async, status := do(t, http.MethodGet, ts.URL+"/v1/jobs/"+job.ID+"/result")
	if status != http.StatusOK || !bytes.Equal(async, inline) {
		t.Fatalf("async by-ID result: status %d\nasync:  %s\ninline: %s", status, async, inline)
	}

	// Mixed forms and wrong-kind references are refused.
	if body, status := postRaw(t, ts.URL+"/v1/search", mustMarshal(t, SearchRequest{
		Pipeline: pipe, PipelineID: pipeReg.ID, Platform: plat, Model: "overlap",
	})); status != http.StatusBadRequest || !strings.Contains(string(body), "mutually exclusive") {
		t.Fatalf("mixed pipeline forms: status %d body %s", status, body)
	}
	if body, status := postRaw(t, ts.URL+"/v1/search", mustMarshal(t, SearchRequest{
		PipelineID: platReg.ID, Platform: plat, Model: "overlap",
	})); status != http.StatusBadRequest || !strings.Contains(string(body), "names a registered platform, not a pipeline") {
		t.Fatalf("wrong-kind reference: status %d body %s", status, body)
	}
	if body, status := postRaw(t, ts.URL+"/v1/search", mustMarshal(t, SearchRequest{
		PipelineID: strings.Repeat("0", 64), Platform: plat, Model: "overlap",
	})); status != http.StatusNotFound || !strings.Contains(string(body), "unknown pipeline ID") {
		t.Fatalf("unknown pipeline ID: status %d body %s", status, body)
	}
}

// TestSweepByInstanceIDByteIdentity: a sweep over registered instance IDs
// answers the exact bytes of the same sweep with the instances inline.
func TestSweepByInstanceIDByteIdentity(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	rng := rand.New(rand.NewSource(11))
	insts := []*model.Instance{
		randomTimedInstance(t, rng, []int{2, 3}),
		randomTimedInstance(t, rng, []int{3, 2}),
	}
	ids := make([]string, len(insts))
	for i, inst := range insts {
		var reg InstanceResponse
		postJSON(t, ts.URL+"/v1/instances", InstanceRequest{Instance: inst}, &reg)
		ids[i] = reg.ID
	}
	inline, s1 := postRaw(t, ts.URL+"/v1/sweep", mustMarshal(t, SweepRequest{Instances: insts}))
	byID, s2 := postRaw(t, ts.URL+"/v1/sweep", mustMarshal(t, SweepRequest{InstanceIDs: ids}))
	if s1 != http.StatusOK || s2 != http.StatusOK {
		t.Fatalf("sweeps: status %d, %d (%s / %s)", s1, s2, inline, byID)
	}
	// Sweep points carry measured wall-clock timings (polyNs/tpnNs), so the
	// identity is over everything deterministic: same points, same reps,
	// same path counts, same periods, byte-identical modulo timing fields.
	got := normalizeSweep(t, inline)
	if byIDResp := normalizeSweep(t, byID); !bytes.Equal(mustMarshal(t, got), mustMarshal(t, byIDResp)) {
		t.Fatalf("by-ID sweep differs from inline beyond timings:\ninline: %s\nbyID:   %s", inline, byID)
	}
	if len(got.Points) != 2 {
		t.Fatalf("sweep answered %s, want 2 points", inline)
	}

	// Population rules: mixing forms, pairing with pairs, bad Only index,
	// unknown ID.
	if body, status := postRaw(t, ts.URL+"/v1/sweep", mustMarshal(t, SweepRequest{
		Instances: insts, InstanceIDs: ids,
	})); status != http.StatusBadRequest || !strings.Contains(string(body), "mutually exclusive") {
		t.Fatalf("mixed populations: status %d body %s", status, body)
	}
	if body, status := postRaw(t, ts.URL+"/v1/sweep", mustMarshal(t, SweepRequest{
		InstanceIDs: ids, Pairs: [][]int{{2, 2}},
	})); status != http.StatusBadRequest || !strings.Contains(string(body), "mutually exclusive") {
		t.Fatalf("pairs with explicit population: status %d body %s", status, body)
	}
	if body, status := postRaw(t, ts.URL+"/v1/sweep", mustMarshal(t, SweepRequest{
		InstanceIDs: ids, Only: []int{2},
	})); status != http.StatusBadRequest || !strings.Contains(string(body), "out of range") {
		t.Fatalf("only out of range: status %d body %s", status, body)
	}
	body, status := postRaw(t, ts.URL+"/v1/sweep", mustMarshal(t, SweepRequest{
		InstanceIDs: []string{strings.Repeat("0", 64)},
	}))
	if status != http.StatusNotFound {
		t.Fatalf("unknown instance ID: status %d body %s", status, body)
	}
	var e struct {
		Error ErrorInfo `json:"error"`
	}
	if err := json.Unmarshal(body, &e); err != nil || e.Error.Code != CodeUnknownInstance ||
		!strings.Contains(e.Error.Message, "instanceIds[0]") {
		t.Fatalf("unknown instance body %s (decode err %v)", body, err)
	}

	// Only restricts an explicit population like it restricts pairs.
	var sub SweepResponse
	postJSON(t, ts.URL+"/v1/sweep", SweepRequest{InstanceIDs: ids, Only: []int{1}}, &sub)
	if len(sub.Points) != 1 || sub.Points[0].PathCount != got.Points[1].PathCount {
		t.Fatalf("only-restricted sweep %+v, want point 1 of %+v", sub.Points, got.Points)
	}
}

// normalizeSweep decodes a sweep response and zeroes its measured timing
// fields, leaving only the deterministic content.
func normalizeSweep(t *testing.T, body []byte) SweepResponse {
	t.Helper()
	var resp SweepResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("sweep response not JSON: %v (body %s)", err, body)
	}
	for i := range resp.Points {
		resp.Points[i].PolyNs, resp.Points[i].TPNNs = 0, 0
	}
	return resp
}

// TestJobStorm runs concurrent submitters, pollers and cancelers against
// one server — the -race exercise for the registry and handler paths.
func TestJobStorm(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 2, JobEntries: 16, JobActive: 8})
	const (
		submitters = 4
		perWorker  = 6
	)
	var wg sync.WaitGroup
	ids := make(chan string, submitters*perWorker)
	for w := 0; w < submitters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				body, err := json.Marshal(JobSubmitRequest{Kind: "sweep", Sweep: &SweepRequest{
					Seed: int64(w*1000 + i), Pairs: [][]int{{2, 2}},
				}})
				if err != nil {
					t.Error(err)
					return
				}
				resp, e := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
				if e != nil {
					t.Error(e)
					return
				}
				var j Job
				code := resp.StatusCode
				e = json.NewDecoder(resp.Body).Decode(&j)
				resp.Body.Close()
				if code == http.StatusServiceUnavailable {
					continue // cap push-back under storm is legitimate
				}
				if code != http.StatusAccepted || e != nil {
					t.Errorf("storm submit: status %d err %v", code, e)
					return
				}
				ids <- j.ID
			}
		}(w)
	}
	var pollers sync.WaitGroup
	for p := 0; p < submitters; p++ {
		pollers.Add(1)
		go func(p int) {
			defer pollers.Done()
			for id := range ids {
				if p%2 == 0 {
					req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
					if resp, err := http.DefaultClient.Do(req); err == nil {
						resp.Body.Close()
					}
				}
				deadline := time.Now().Add(30 * time.Second)
				for {
					resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
					if err != nil {
						t.Error(err)
						return
					}
					var j Job
					err = json.NewDecoder(resp.Body).Decode(&j)
					resp.Body.Close()
					if resp.StatusCode == http.StatusNotFound {
						break // recycled by the terminal ring under pressure
					}
					if err == nil && terminal(Job{State: j.State}) {
						break
					}
					if time.Now().After(deadline) {
						t.Errorf("storm poll %s: stuck in %q", id, j.State)
						return
					}
					time.Sleep(2 * time.Millisecond)
				}
				if resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/result"); err == nil {
					resp.Body.Close()
				}
			}
		}(p)
	}
	wg.Wait()
	close(ids)
	pollers.Wait()
	m := s.jobs.Metrics()
	if m.Active != 0 {
		t.Fatalf("storm left %d active jobs", m.Active)
	}
	if m.Active+m.Terminal > 16+8 {
		t.Fatalf("storm residency %d past the bound", m.Active+m.Terminal)
	}
	if m.Done+m.Failed+m.Canceled != m.Submitted {
		t.Fatalf("storm bookkeeping: %d submitted, %d finished", m.Submitted, m.Done+m.Failed+m.Canceled)
	}
}

// TestJobsMetricsBlock: /metrics carries the jobs block with live counts.
func TestJobsMetricsBlock(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	body := mustMarshal(t, JobSubmitRequest{Kind: "sweep", Sweep: &SweepRequest{Seed: 2, Pairs: [][]int{{2, 2}}}})
	j := submitJob(t, ts.URL, body)
	pollJob(t, ts.URL, j.ID, terminal)
	metricsBody, status := do(t, http.MethodGet, ts.URL+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("/metrics: status %d", status)
	}
	var m struct {
		Jobs struct {
			Submitted        int64 `json:"submitted"`
			Done             int64 `json:"done"`
			Terminal         int64 `json:"terminal"`
			ActiveCapacity   int64 `json:"activeCapacity"`
			TerminalCapacity int64 `json:"terminalCapacity"`
		} `json:"jobs"`
	}
	if err := json.Unmarshal(metricsBody, &m); err != nil {
		t.Fatalf("metrics not JSON: %v\n%s", err, metricsBody)
	}
	if m.Jobs.Submitted != 1 || m.Jobs.Done != 1 || m.Jobs.Terminal != 1 {
		t.Fatalf("jobs metrics %+v after one finished job", m.Jobs)
	}
	if m.Jobs.ActiveCapacity == 0 || m.Jobs.TerminalCapacity == 0 {
		t.Fatalf("jobs capacities missing: %+v", m.Jobs)
	}
}
