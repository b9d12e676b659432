package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/exper"
	"repro/internal/mapping"
	"repro/internal/model"
	"repro/internal/pipeline"
	"repro/internal/platform"
	"repro/internal/sim"
)

// newTestServer starts an httptest server around a Server and returns both.
func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s := NewServer(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// postJSON posts v and decodes the response into out, failing on non-200.
func postJSON(t *testing.T, url string, v any, out any) {
	t.Helper()
	body, status := postJSONStatus(t, url, v)
	if status != http.StatusOK {
		t.Fatalf("POST %s: status %d, body %s", url, status, body)
	}
	if err := json.Unmarshal(body, out); err != nil {
		t.Fatalf("POST %s: decode response: %v\n%s", url, err, body)
	}
}

func postJSONStatus(t *testing.T, url string, v any) ([]byte, int) {
	t.Helper()
	payload, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(payload))
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

// table2Tasks draws perRow instances from every row of the Table 2 grid for
// both models, exactly as the engine's own acceptance test does.
func table2Tasks(t *testing.T, perRow int) []engine.Task {
	t.Helper()
	var tasks []engine.Task
	for _, cm := range model.Models() {
		for rowIdx, row := range exper.Table2Rows(cm, 1, exper.DefaultMaxPathCount) {
			for k := 0; k < perRow; k++ {
				seed := int64(rowIdx*10_000 + k + 1)
				rng := rand.New(rand.NewSource(seed))
				sp := row.Specs[k%len(row.Specs)]
				inst, err := sp.Instance(rng)
				if err != nil {
					t.Fatalf("row %q instance %d: %v", row.Label, k, err)
				}
				tasks = append(tasks, engine.Task{Inst: inst, Model: cm})
			}
		}
	}
	return tasks
}

// TestEvaluateBitIdenticalToSolverOnTable2Grid is the service acceptance
// bar: on the full Table 2 grid, /v1/evaluate must report exactly the
// rationals a direct core.Solver computes — same exact strings, same
// metadata — for every backend.
func TestEvaluateBitIdenticalToSolverOnTable2Grid(t *testing.T) {
	perRow := 2
	if testing.Short() {
		perRow = 1
	}
	tasks := table2Tasks(t, perRow)
	_, ts := newTestServer(t, Options{Workers: 4})
	solver := core.NewSolver()
	for _, backend := range []string{"auto", "karp", "howard"} {
		for i, task := range tasks {
			want, err := solver.Period(task.Inst, task.Model)
			if err != nil {
				t.Fatalf("solver task %d: %v", i, err)
			}
			var got EvaluateResponse
			postJSON(t, ts.URL+"/v1/evaluate", EvaluateRequest{
				Instance: task.Inst,
				Model:    task.Model.String(),
				Backend:  backend,
			}, &got)
			if got.Period != want.Period.String() || got.Mct != want.Mct.String() {
				t.Fatalf("backend %s task %d: service (%s, %s) != solver (%s, %s)",
					backend, i, got.Period, got.Mct, want.Period, want.Mct)
			}
			if got.PathCount != want.PathCount || got.Method != string(want.Method) ||
				got.HasCritical != want.HasCriticalResource() || got.Model != want.Model.String() {
				t.Fatalf("backend %s task %d: metadata drifted: %+v vs %+v", backend, i, got, want)
			}
			if got.Throughput != want.Throughput().String() {
				t.Fatalf("backend %s task %d: throughput %s != %s", backend, i, got.Throughput, want.Throughput())
			}
		}
	}
}

// TestBatchByteIdenticalToSerialEngineOnTable2Grid pins the stronger batch
// property: the /v1/batch response bytes equal the JSON rendering of a
// serial (one-worker) engine.EvaluateBatch over the same tasks.
func TestBatchByteIdenticalToSerialEngineOnTable2Grid(t *testing.T) {
	perRow := 3
	if testing.Short() {
		perRow = 1
	}
	tasks := table2Tasks(t, perRow)
	if want := 2 * 6 * perRow; len(tasks) != want {
		t.Fatalf("grid produced %d tasks, want %d", len(tasks), want)
	}

	// Serial reference: one worker, fresh engine, index order.
	serial := engine.New(engine.Options{Workers: 1})
	outs, err := serial.EvaluateBatch(context.Background(), tasks)
	if err != nil {
		t.Fatal(err)
	}
	wantResp := BatchResponse{Backend: "auto", Outcomes: make([]BatchOutcome, len(outs))}
	for i, o := range outs {
		if o.Err != nil {
			t.Fatalf("serial task %d: %v", i, o.Err)
		}
		rj := resultJSON(o.Result)
		wantResp.Outcomes[i] = BatchOutcome{ResultJSON: &rj}
	}
	wantBytes, err := json.Marshal(wantResp)
	if err != nil {
		t.Fatal(err)
	}

	req := BatchRequest{Tasks: make([]BatchTask, len(tasks))}
	for i, task := range tasks {
		req.Tasks[i] = BatchTask{Instance: task.Inst, Model: task.Model.String()}
	}
	for _, workers := range []int{1, 4} {
		_, ts := newTestServer(t, Options{Workers: workers})
		body, status := postJSONStatus(t, ts.URL+"/v1/batch", req)
		if status != http.StatusOK {
			t.Fatalf("workers=%d: status %d, body %s", workers, status, body)
		}
		if !bytes.Equal(bytes.TrimSpace(body), wantBytes) {
			t.Fatalf("workers=%d: /v1/batch bytes differ from serial engine rendering\ngot  %s\nwant %s",
				workers, body, wantBytes)
		}
	}
}

// randomTimedInstance draws an instance with the given replication counts
// and distinct uniform times, for cache-churn workloads (the sweep's
// generator, seeded per test).
func randomTimedInstance(t testing.TB, rng *rand.Rand, reps []int) *model.Instance {
	t.Helper()
	inst, err := exper.RandomTimedInstance(rng, reps, 5, 15)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// TestServerCacheNeverExceedsConfiguredEntries is the bounded-residency
// acceptance test: a workload of 10x CacheEntries distinct instances must
// never push the memo map past the bound, and must evict.
func TestServerCacheNeverExceedsConfiguredEntries(t *testing.T) {
	const bound = 128
	s, ts := newTestServer(t, Options{Workers: 2, CacheEntries: bound})
	rng := rand.New(rand.NewSource(99))
	batch := BatchRequest{}
	for i := 0; i < 10*bound; i++ {
		batch.Tasks = append(batch.Tasks, BatchTask{
			Instance: randomTimedInstance(t, rng, []int{2, 3}),
			Model:    "overlap",
		})
		// Flush in chunks so the bound is observed repeatedly mid-workload,
		// not just at the end.
		if len(batch.Tasks) == bound || i == 10*bound-1 {
			var resp BatchResponse
			postJSON(t, ts.URL+"/v1/batch", batch, &resp)
			batch.Tasks = batch.Tasks[:0]
			m := s.eng.CacheMetrics()
			if m.Entries > bound {
				t.Fatalf("after %d tasks: cache holds %d entries, bound %d", i+1, m.Entries, bound)
			}
		}
	}
	m := s.eng.CacheMetrics()
	if m.Evictions == 0 {
		t.Fatalf("10x oversized workload produced no evictions (entries=%d)", m.Entries)
	}
	if m.Entries > bound {
		t.Fatalf("final cache holds %d entries, bound %d", m.Entries, bound)
	}
	// The /metrics endpoint reports the same counters and parses as JSON.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var metricsObj struct {
		Cache map[string]struct {
			Hits      int64 `json:"hits"`
			Misses    int64 `json:"misses"`
			Evictions int64 `json:"evictions"`
			Entries   int64 `json:"entries"`
			Capacity  int64 `json:"capacity"`
		} `json:"cache"`
		Requests map[string]int64 `json:"requests"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&metricsObj); err != nil {
		t.Fatalf("metrics JSON: %v", err)
	}
	auto := metricsObj.Cache["auto"]
	if auto.Capacity != bound || auto.Entries > bound || auto.Evictions == 0 {
		t.Fatalf("metrics cache block inconsistent: %+v", auto)
	}
	if metricsObj.Requests["batch"] == 0 {
		t.Fatal("metrics did not count batch requests")
	}
}

func TestEvaluateLatencyStats(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	inst := randomTimedInstance(t, rng, []int{2, 2})
	_, ts := newTestServer(t, Options{Workers: 1})
	var got EvaluateResponse
	postJSON(t, ts.URL+"/v1/evaluate", EvaluateRequest{
		Instance:       inst,
		Model:          "overlap",
		LatencyPeriods: 2,
	}, &got)
	if got.Latency == nil {
		t.Fatal("latencyPeriods=2 returned no latency block")
	}
	want, err := sim.Latency(inst, model.Overlap, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got.Latency.Mean != want.Mean.String() || got.Latency.Min != want.Min.String() || got.Latency.Max != want.Max.String() {
		t.Fatalf("latency stats drifted: got %+v want min %s max %s mean %s",
			got.Latency, want.Min, want.Max, want.Mean)
	}
}

func TestSearchEndpointFindsSolverVerifiedMapping(t *testing.T) {
	pipe := mustPipeline(t, []int64{100, 200, 100}, []int64{50, 50})
	plat := mustPlatform(t)
	for _, algo := range []string{"best", "greedy", "random", "anneal", "exhaustive", "bnb"} {
		var got SearchResponse
		_, ts := newTestServer(t, Options{Workers: 2})
		postJSON(t, ts.URL+"/v1/search", SearchRequest{
			Pipeline: pipe,
			Platform: plat,
			Model:    "overlap",
			Algo:     algo,
			Seed:     1,
			BudgetMs: 30_000,
		}, &got)
		if got.Algo != algo || len(got.Replicas) != 3 {
			t.Fatalf("algo %s: response %+v", algo, got)
		}
		if algo == "bnb" {
			if got.Proven == nil || !*got.Proven {
				t.Fatalf("bnb on a 5-processor platform must prove its answer: %+v", got)
			}
			if got.Nodes == nil || *got.Nodes == 0 || got.Pruned == nil {
				t.Fatalf("bnb tree counts missing: %+v", got)
			}
		} else if got.Proven != nil {
			t.Fatalf("algo %s leaked a proven flag: %+v", algo, got)
		}
		// The reported period must be the period of the reported mapping.
		verifySearchResult(t, pipe, plat, got)
	}
}

// TestSearchBnbIsOptimalAndObservable: the bnb answer can only improve on
// the heuristics' (it is the proven optimum of a superset of their space),
// and the /metrics pipeline counts and times the searches like any other
// solve.
func TestSearchBnbIsOptimalAndObservable(t *testing.T) {
	pipe := mustPipeline(t, []int64{100, 200, 100}, []int64{50, 50})
	plat := mustPlatform(t)
	_, ts := newTestServer(t, Options{Workers: 2})
	var exact, best SearchResponse
	postJSON(t, ts.URL+"/v1/search", SearchRequest{
		Pipeline: pipe, Platform: plat, Model: "overlap", Algo: "bnb",
	}, &exact)
	postJSON(t, ts.URL+"/v1/search", SearchRequest{
		Pipeline: pipe, Platform: plat, Model: "overlap", Algo: "best", Seed: 7,
	}, &best)
	if exact.PeriodFloat > best.PeriodFloat {
		t.Fatalf("bnb period %s worse than heuristic best %s", exact.Period, best.Period)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m struct {
		Requests  map[string]int64           `json:"requests"`
		Errors    map[string]int64           `json:"errors"`
		Latency   map[string]json.RawMessage `json:"latency"`
		QueueWait map[string]json.RawMessage `json:"queueWait"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("metrics JSON: %v", err)
	}
	if m.Requests["search"] != 2 || m.Errors["search"] != 0 {
		t.Fatalf("search request/error counters = %d/%d, want 2/0", m.Requests["search"], m.Errors["search"])
	}
	if _, ok := m.Latency["search/auto"]; !ok {
		t.Fatalf("no search latency histogram: %v", m.Latency)
	}
	// The latency histogram times the whole handler; the time spent waiting
	// for a worker slot is broken out into its own series (keyed by endpoint
	// only — the wait precedes backend choice) so a loaded run can tell
	// queueing from solving.
	if _, ok := m.QueueWait["search"]; !ok {
		t.Fatalf("no search queue-wait histogram: %v", m.QueueWait)
	}
}

func TestSearchBudgetReturnsBestSoFar(t *testing.T) {
	pipe := mustPipeline(t, []int64{100, 200, 100}, []int64{50, 50})
	plat := mustPlatform(t)
	_, ts := newTestServer(t, Options{Workers: 2})
	var got SearchResponse
	// A 1 ms budget cannot finish the full heuristic stack, but greedy's
	// first candidates usually land; whether it errors (400, nothing found)
	// or answers, it must do so promptly and, on success, consistently.
	start := time.Now()
	body, status := postJSONStatus(t, ts.URL+"/v1/search", SearchRequest{
		Pipeline: pipe,
		Platform: plat,
		Model:    "overlap",
		Algo:     "best",
		BudgetMs: 1,
	})
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("1 ms budget took %v", elapsed)
	}
	switch status {
	case http.StatusOK:
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatal(err)
		}
		verifySearchResult(t, pipe, plat, got)
	case http.StatusBadRequest:
		if !strings.Contains(string(body), "budget") {
			t.Fatalf("400 without budget explanation: %s", body)
		}
	default:
		t.Fatalf("budgeted search: status %d body %s", status, body)
	}
}

func verifySearchResult(t *testing.T, pipe *pipeline.Pipeline, plat *platform.Platform, got SearchResponse) {
	t.Helper()
	mapp, err := mapping.New(got.Replicas, plat.NumProcs())
	if err != nil {
		t.Fatalf("reported mapping invalid: %v", err)
	}
	inst, err := model.FromMapped(pipe, plat, mapp)
	if err != nil {
		t.Fatalf("reported mapping unusable: %v", err)
	}
	cm, err := model.Parse(got.Model)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Period(inst, cm)
	if err != nil {
		t.Fatal(err)
	}
	if res.Period.String() != got.Period {
		t.Fatalf("reported period %s, recomputed %s", got.Period, res.Period)
	}
}

func TestSweepEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	var got SweepResponse
	postJSON(t, ts.URL+"/v1/sweep", SweepRequest{Seed: 1, Pairs: [][]int{{2, 3}, {3, 4}}}, &got)
	if len(got.Points) != 2 {
		t.Fatalf("sweep returned %d points, want 2", len(got.Points))
	}
	if got.Points[0].PathCount != 6 || got.Points[1].PathCount != 12 {
		t.Fatalf("path counts %d, %d; want 6, 12", got.Points[0].PathCount, got.Points[1].PathCount)
	}
	for i, p := range got.Points {
		if p.Period == "" || p.PolyNs <= 0 {
			t.Fatalf("point %d incomplete: %+v", i, p)
		}
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 3, MaxInFlight: 9})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h struct {
		Status      string `json:"status"`
		Workers     int    `json:"workers"`
		MaxInFlight int    `json:"maxInFlight"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Workers != 3 || h.MaxInFlight != 9 {
		t.Fatalf("healthz = %+v", h)
	}
}

func TestRequestValidationErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	inst := randomTimedInstance(t, rng, []int{2, 2})
	_, ts := newTestServer(t, Options{Workers: 1})
	cases := []struct {
		name   string
		path   string
		body   any
		status int
	}{
		{"missing instance", "/v1/evaluate", EvaluateRequest{Model: "overlap"}, 400},
		{"latency horizon too large", "/v1/evaluate", EvaluateRequest{Instance: inst, Model: "overlap", LatencyPeriods: 1 << 30}, 400},
		{"bad model", "/v1/evaluate", EvaluateRequest{Instance: inst, Model: "both"}, 400},
		{"bad backend", "/v1/evaluate", EvaluateRequest{Instance: inst, Model: "strict", Backend: "quantum"}, 400},
		{"empty batch", "/v1/batch", BatchRequest{}, 400},
		{"batch bad task model", "/v1/batch", BatchRequest{Tasks: []BatchTask{{Instance: inst, Model: "x"}}}, 400},
		{"search missing platform", "/v1/search", SearchRequest{Model: "overlap"}, 400},
		{"search bad algo", "/v1/search", map[string]any{
			"pipeline": map[string]any{"stages": []map[string]any{{"work": 5}}, "fileSizes": []int64{}},
			"platform": map[string]any{"speeds": []int64{1}, "bandwidths": [][]int64{{0}}},
			"model":    "overlap", "algo": "oracle"}, 400},
		{"sweep empty pair", "/v1/sweep", SweepRequest{Pairs: [][]int{{}}}, 400},
		{"sweep bad replication", "/v1/sweep", SweepRequest{Pairs: [][]int{{0, 2}}}, 400},
		// 3037000500² wraps int64; the cell guard must reject the factors
		// before multiplying, not trust the wrapped sum.
		{"sweep overflowing pair", "/v1/sweep", SweepRequest{Pairs: [][]int{{3037000500, 3037000500}}}, 400},
		{"evaluate lcm overflow", "/v1/evaluate", map[string]any{"model": "overlap", "instance": overflowInstanceJSON()}, 400},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			body, status := postJSONStatus(t, ts.URL+c.path, c.body)
			if status != c.status {
				t.Fatalf("status %d, want %d (body %s)", status, c.status, body)
			}
			var e struct {
				Error ErrorInfo `json:"error"`
			}
			if err := json.Unmarshal(body, &e); err != nil || e.Error.Message == "" || e.Error.Code == "" {
				t.Fatalf("error body not JSON {error:{code,message}}: %s", body)
			}
		})
	}
	// Wrong method on a solve route and on the read-only routes.
	resp, err := http.Get(ts.URL + "/v1/evaluate")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/evaluate: status %d, want 405", resp.StatusCode)
	}
	postBody, status := postJSONStatus(t, ts.URL+"/healthz", map[string]int{})
	if status != http.StatusMethodNotAllowed {
		t.Fatalf("POST /healthz: status %d body %s, want 405", status, postBody)
	}
	var m struct {
		Errors map[string]int64 `json:"errors"`
	}
	metricsBody, _ := do(t, http.MethodGet, ts.URL+"/metrics")
	if err := json.Unmarshal(metricsBody, &m); err != nil || m.Errors["healthz"] != 1 {
		t.Fatalf("errors %v (decode err %v): want the POST /healthz counted", m.Errors, err)
	}
}

func TestBodyLimit(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, MaxBodyBytes: 256})
	huge := BatchRequest{}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 8; i++ {
		huge.Tasks = append(huge.Tasks, BatchTask{Instance: randomTimedInstance(t, rng, []int{2, 3}), Model: "overlap"})
	}
	body, status := postJSONStatus(t, ts.URL+"/v1/batch", huge)
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d body %s, want 413", status, body)
	}
	// The cap applies past the end of the value too.
	body, status = postRaw(t, ts.URL+"/v1/evaluate", []byte(`{"model":"overlap"}`+strings.Repeat(" ", 256)))
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("padded body: status %d body %s, want 413", status, body)
	}
}

// TestFlightGroupCoalesces pins the singleflight: concurrent callers of one
// key run fn once; distinct keys run independently.
func TestFlightGroupCoalesces(t *testing.T) {
	var g flightGroup
	var calls atomic.Int32
	release := make(chan struct{})
	const followers = 8
	var wg sync.WaitGroup
	results := make([]core.Result, followers)
	shareds := make([]bool, followers)
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, shared, err := g.do(context.Background(), "k", func() (core.Result, error) {
				calls.Add(1)
				<-release
				return core.Result{PathCount: 42}, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i], shareds[i] = res, shared
		}(i)
	}
	// Let every follower reach the flight before releasing the leader.
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Fatalf("fn ran %d times, want 1", n)
	}
	sharedCount := 0
	for i := range results {
		if results[i].PathCount != 42 {
			t.Fatalf("caller %d got %+v", i, results[i])
		}
		if shareds[i] {
			sharedCount++
		}
	}
	if sharedCount != followers-1 {
		t.Fatalf("%d callers shared, want %d", sharedCount, followers-1)
	}
}

// TestFlightGroupLeaderCancellationDoesNotPoison: a leader dying of its own
// context must not hand followers its context error; a follower retries and
// computes.
func TestFlightGroupLeaderCancellationDoesNotPoison(t *testing.T) {
	var g flightGroup
	leaderStarted := make(chan struct{})
	leaderAbort := make(chan struct{})
	go func() {
		_, _, _ = g.do(context.Background(), "k", func() (core.Result, error) {
			close(leaderStarted)
			<-leaderAbort
			return core.Result{}, context.Canceled
		})
	}()
	<-leaderStarted
	followerDone := make(chan struct{})
	go func() {
		defer close(followerDone)
		res, shared, err := g.do(context.Background(), "k", func() (core.Result, error) {
			return core.Result{PathCount: 7}, nil
		})
		if err != nil || shared || res.PathCount != 7 {
			t.Errorf("follower after canceled leader: res=%+v shared=%v err=%v", res, shared, err)
		}
	}()
	close(leaderAbort)
	select {
	case <-followerDone:
	case <-time.After(5 * time.Second):
		t.Fatal("follower never recovered from canceled leader")
	}
}

// TestFlightGroupLeaderPanicDoesNotWedge: a panicking leader must
// deregister the flight — followers get a real error, the panic still
// propagates to the leader's stack, and the key works again afterwards.
func TestFlightGroupLeaderPanicDoesNotWedge(t *testing.T) {
	var g flightGroup
	started := make(chan struct{})
	proceed := make(chan struct{})
	panicked := make(chan any, 1)
	go func() {
		defer func() { panicked <- recover() }()
		_, _, _ = g.do(context.Background(), "k", func() (core.Result, error) {
			close(started)
			<-proceed
			panic("solver blew up")
		})
	}()
	<-started
	followerErr := make(chan error, 1)
	go func() {
		_, _, err := g.do(context.Background(), "k", func() (core.Result, error) {
			return core.Result{PathCount: 1}, nil
		})
		followerErr <- err
	}()
	time.Sleep(10 * time.Millisecond) // give the follower a chance to join the flight
	close(proceed)
	select {
	case err := <-followerErr:
		// Either the follower joined in time and observed the sentinel, or
		// it arrived after deregistration and computed fresh (err == nil).
		// Both are fine; hanging forever is the bug this test pins.
		if err != nil && !strings.Contains(err.Error(), "panicked") {
			t.Fatalf("follower error = %v, want nil or the panic sentinel", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("follower wedged behind the panicked leader")
	}
	if p := <-panicked; p == nil {
		t.Fatal("leader's panic was swallowed")
	}
	// The key must be usable again.
	res, shared, err := g.do(context.Background(), "k", func() (core.Result, error) {
		return core.Result{PathCount: 5}, nil
	})
	if err != nil || shared || res.PathCount != 5 {
		t.Fatalf("post-panic call: res=%+v shared=%v err=%v", res, shared, err)
	}
}

// TestConcurrentEvaluateCoalesced sends identical concurrent requests and
// checks the server reports at least one coalesced answer when they overlap
// — and, regardless of interleaving, identical exact results.
func TestConcurrentEvaluateCoalesced(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	inst := randomTimedInstance(t, rng, []int{3, 4}) // strict, m=12: slow enough to overlap
	_, ts := newTestServer(t, Options{Workers: 4, CacheEntries: -1})
	const clients = 6
	var wg sync.WaitGroup
	periods := make([]string, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var got EvaluateResponse
			postJSON(t, ts.URL+"/v1/evaluate", EvaluateRequest{Instance: inst, Model: "strict"}, &got)
			periods[i] = got.Period
		}(i)
	}
	wg.Wait()
	for i := 1; i < clients; i++ {
		if periods[i] != periods[0] {
			t.Fatalf("client %d period %s != client 0 period %s", i, periods[i], periods[0])
		}
	}
}

// overflowInstanceJSON builds the wire form of an instance whose replica
// counts are 16 distinct primes: lcm(m_i) exceeds int64, which used to
// panic inside JSON decode (rat.LCMAll) — in the parse phase, outside the
// solve recover — and kill the connection instead of returning 400.
func overflowInstanceJSON() map[string]any {
	primes := []int{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53}
	ones := func(n int) []string {
		row := make([]string, n)
		for i := range row {
			row[i] = "1"
		}
		return row
	}
	comp := make([][]string, len(primes))
	for i, p := range primes {
		comp[i] = ones(p)
	}
	comm := make([][][]string, len(primes)-1)
	for i := range comm {
		comm[i] = make([][]string, primes[i])
		for a := range comm[i] {
			comm[i][a] = ones(primes[i+1])
		}
	}
	return map[string]any{"comp": comp, "comm": comm}
}

func mustPipeline(t *testing.T, work, files []int64) *pipeline.Pipeline {
	t.Helper()
	p, err := pipeline.New(work, files)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func mustPlatform(t *testing.T) *platform.Platform {
	t.Helper()
	return platform.Uniform(5, 100, 100)
}

// TestPanickingSolveDoesNotLeakCapacity is the panic-resilience regression
// test: a solve that panics must produce HTTP 500 (counted in the error
// metrics), release its in-flight slot, and leave the server serving. Before
// the fix each panic leaked one semaphore slot, so MaxInFlight panics wedged
// every solve endpoint forever.
func TestPanickingSolveDoesNotLeakCapacity(t *testing.T) {
	s := NewServer(Options{Workers: 1, MaxInFlight: 2, RequestTimeout: 2 * time.Second})
	boom := s.solveEndpoint("boom", func(r *http.Request) (reply, error) {
		return reply{solve: func(ctx context.Context) (any, error) { panic("solver blew up") }}, nil
	})
	n := 3*s.opts.MaxInFlight + 1 // well past the in-flight budget
	for i := 0; i < n; i++ {
		rec := httptest.NewRecorder()
		boom(rec, httptest.NewRequest(http.MethodPost, "/boom", strings.NewReader("{}")))
		if rec.Code != http.StatusInternalServerError {
			t.Fatalf("request %d: status %d, want 500 (body %s)", i, rec.Code, rec.Body)
		}
		var e struct {
			Error ErrorInfo `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || !strings.Contains(e.Error.Message, "panicked") {
			t.Fatalf("request %d: error body %s (decode err %v)", i, rec.Body, err)
		}
	}
	if got := s.met.inFlight.Value(); got != 0 {
		t.Fatalf("inFlight gauge %d after %d panics, want 0", got, n)
	}
	if v := s.met.errors.Get("boom"); v == nil || v.String() != fmt.Sprint(n) {
		t.Fatalf("errors counter for the panicking endpoint = %v, want %d", v, n)
	}
	// The full stack must still answer: every slot came back.
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	rng := rand.New(rand.NewSource(5))
	inst := randomTimedInstance(t, rng, []int{2, 2})
	var got EvaluateResponse
	postJSON(t, ts.URL+"/v1/evaluate", EvaluateRequest{Instance: inst, Model: "overlap"}, &got)
	if got.Period == "" {
		t.Fatalf("post-panic evaluate returned no period: %+v", got)
	}
}

// backendAliases are the backend names a request may carry besides the
// default: "auto" and the deprecated aliases the one engine answers.
var backendAliases = []string{"auto", "karp", "howard", "float-screen"}

// TestBackendAliasesShareOneEngine: every backend name ParseBackend accepts
// gets the bytes of the request that names none, on evaluate (inline and by
// ID), batch and search; the evaluate repeats share one response-memo
// entry, and /metrics reports a single engine cache.
func TestBackendAliasesShareOneEngine(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	rng := rand.New(rand.NewSource(5))
	inst := randomTimedInstance(t, rng, []int{2, 3})
	id := registerInstance(t, ts.URL, inst).ID
	pipe := mustPipeline(t, []int64{100, 200, 100}, []int64{50, 50})
	plat := mustPlatform(t)
	post := func(what string, req any) []byte {
		t.Helper()
		body, code := postJSONStatus(t, ts.URL+"/v1/"+what, req)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", what, code, body)
		}
		return body
	}
	evaluate := post("evaluate", EvaluateRequest{Instance: inst, Model: "strict"})
	batch := post("batch", BatchRequest{Tasks: []BatchTask{{Instance: inst, Model: "strict"}}})
	search := post("search", SearchRequest{Pipeline: pipe, Platform: plat, Model: "strict", Algo: "greedy"})
	for _, name := range backendAliases {
		for _, got := range [][]byte{
			post("evaluate", EvaluateRequest{Instance: inst, Model: "strict", Backend: name}),
			post("evaluate", EvaluateRequest{InstanceID: id, Model: "strict", Backend: name}),
		} {
			if !bytes.Equal(got, evaluate) {
				t.Fatalf("evaluate with backend %q:\n%s\nwant\n%s", name, got, evaluate)
			}
		}
		if got := post("batch", BatchRequest{Tasks: []BatchTask{{Instance: inst, Model: "strict"}}, Backend: name}); !bytes.Equal(got, batch) {
			t.Fatalf("batch with backend %q:\n%s\nwant\n%s", name, got, batch)
		}
		got := post("search", SearchRequest{Pipeline: pipe, Platform: plat, Model: "strict", Algo: "greedy", Backend: name})
		if !bytes.Equal(got, search) {
			t.Fatalf("search with backend %q:\n%s\nwant\n%s", name, got, search)
		}
	}
	m := scrapeMetrics(t, ts.URL)
	if len(m.Cache) != 1 {
		t.Fatalf("metrics cache members %v, want only auto", m.Cache)
	}
	if m.RespMemo == nil || m.RespMemo.Entries != 1 || m.RespMemo.Misses != 1 {
		t.Fatalf("respMemo %+v: want the evaluate repeats on one entry", m.RespMemo)
	}
}

// TestSearchFloatScreenBitIdenticalToExact: "float-screen" is a deprecated
// alias of the auto backend, so for every search algorithm a request that
// names it must get the very bytes a request naming "auto" gets — the
// response's backend field included.
func TestSearchFloatScreenBitIdenticalToExact(t *testing.T) {
	pipe := mustPipeline(t, []int64{100, 200, 100}, []int64{50, 50})
	plat := mustPlatform(t)
	_, ts := newTestServer(t, Options{Workers: 2})
	for _, algo := range []string{"greedy", "exhaustive", "bnb"} {
		req := SearchRequest{Pipeline: pipe, Platform: plat, Model: "strict", Algo: algo, Seed: 3}
		req.Backend = "auto"
		auto, code := postJSONStatus(t, ts.URL+"/v1/search", req)
		if code != http.StatusOK {
			t.Fatalf("algo %s: auto status %d: %s", algo, code, auto)
		}
		req.Backend = "float-screen"
		alias, code := postJSONStatus(t, ts.URL+"/v1/search", req)
		if code != http.StatusOK {
			t.Fatalf("algo %s: float-screen status %d: %s", algo, code, alias)
		}
		if !bytes.Equal(auto, alias) {
			t.Fatalf("algo %s: float-screen body differs from auto:\n%s\n%s", algo, alias, auto)
		}
	}
}
