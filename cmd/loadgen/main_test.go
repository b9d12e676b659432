package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/service"
)

func TestRunFlagErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"missing url", []string{}, "-url is required"},
		{"bad endpoint", []string{"-url", "http://x", "-endpoint", "teleport"}, "unknown -endpoint"},
		{"bad model", []string{"-url", "http://x", "-model", "psychic"}, "unknown communication model"},
		{"bad reps", []string{"-url", "http://x", "-reps", "2,zero"}, "bad -reps"},
		{"bad workers", []string{"-url", "http://x", "-workers", "0"}, "-workers must be"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			err := run(context.Background(), c.args, &stdout, &stderr)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("run(%v) error %v, want containing %q", c.args, err, c.want)
			}
		})
	}
}

// runAgainst drives loadgen at an in-process service and returns the parsed
// summary. This doubles as the -race load smoke: `go test -race ./...`
// exercises concurrent clients against the full server stack.
func runAgainst(t *testing.T, extraArgs ...string) Summary {
	t.Helper()
	ts := httptest.NewServer(service.NewServer(service.Options{Workers: 2, CacheEntries: 256}).Handler())
	t.Cleanup(ts.Close)
	args := append([]string{
		"-url", ts.URL,
		"-duration", "300ms",
		"-workers", "3",
		"-reps", "2,2",
		"-instances", "8",
		"-seed", "7",
	}, extraArgs...)
	var stdout, stderr bytes.Buffer
	if err := run(context.Background(), args, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, stderr.String())
	}
	var sum Summary
	if err := json.Unmarshal(stdout.Bytes(), &sum); err != nil {
		t.Fatalf("summary not JSON: %v\n%s", err, stdout.String())
	}
	return sum
}

func TestLoadgenClosedLoopSmoke(t *testing.T) {
	sum := runAgainst(t, "-model", "overlap")
	if sum.Requests == 0 {
		t.Fatal("no requests completed in the window")
	}
	if sum.Errors != 0 {
		t.Fatalf("%d/%d requests failed", sum.Errors, sum.Requests)
	}
	if sum.Latency.P50 <= 0 || sum.Latency.P99 < sum.Latency.P50 || sum.Latency.Max < sum.Latency.P99 {
		t.Fatalf("implausible quantiles: %+v", sum.Latency)
	}
	if sum.AchievedRPS <= 0 {
		t.Fatalf("achieved RPS %v", sum.AchievedRPS)
	}
}

func TestLoadgenBatchEndpointAndPacing(t *testing.T) {
	sum := runAgainst(t, "-endpoint", "batch", "-batch", "4", "-model", "strict", "-rps", "50")
	if sum.Requests == 0 || sum.Errors != 0 {
		t.Fatalf("batch run: %+v", sum)
	}
	// 50 rps for ~0.3 s is ~15 requests; pacing must keep us well under the
	// unthrottled rate for this tiny workload (hundreds/s locally). Allow a
	// generous ceiling to stay robust on slow CI.
	if sum.AchievedRPS > 120 {
		t.Fatalf("pacing ineffective: achieved %.1f rps with -rps 50", sum.AchievedRPS)
	}
}

func TestQuantilesExact(t *testing.T) {
	if got := quantiles(nil); got != (LatQ{}) {
		t.Fatalf("empty quantiles = %+v", got)
	}
	// 1..100 ms: p50 = index 49 -> 50ms, p95 = index 94 -> 95ms,
	// p99 = index 98 -> 99ms, max = 100ms, mean = 50.5ms.
	lats := make([]time.Duration, 100)
	for i := range lats {
		lats[i] = time.Duration(i+1) * time.Millisecond
	}
	got := quantiles(lats)
	want := LatQ{P50: 50, P95: 95, P99: 99, Mean: 50.5, Max: 100}
	if got != want {
		t.Fatalf("quantiles = %+v, want %+v", got, want)
	}
}

// TestQuantilesNearestRankSmallSample pins the nearest-rank fix: on 10
// samples of 1..10 ms, p95 and p99 are the maximum (10 ms). The old
// floor-index formula answered 9 ms for both — a tail understated by a
// whole rank, which is exactly the regime (small per-run sample counts)
// short benchmark windows produce.
func TestQuantilesNearestRankSmallSample(t *testing.T) {
	lats := make([]time.Duration, 10)
	for i := range lats {
		lats[i] = time.Duration(i+1) * time.Millisecond
	}
	got := quantiles(lats)
	want := LatQ{P50: 5, P95: 10, P99: 10, Mean: 5.5, Max: 10}
	if got != want {
		t.Fatalf("quantiles = %+v, want %+v", got, want)
	}
	if got := quantiles([]time.Duration{3 * time.Millisecond}); got != (LatQ{P50: 3, P95: 3, P99: 3, Mean: 3, Max: 3}) {
		t.Fatalf("single-sample quantiles = %+v", got)
	}
}

func TestLoadgenSearchEndpoint(t *testing.T) {
	sum := runAgainst(t, "-endpoint", "search", "-algo", "bnb", "-model", "overlap", "-instances", "4", "-workers", "2")
	if sum.Requests == 0 {
		t.Fatal("no search requests completed in the window")
	}
	if sum.Errors != 0 {
		t.Fatalf("%d/%d search requests failed", sum.Errors, sum.Requests)
	}
	if sum.Endpoint != "search" {
		t.Fatalf("summary endpoint %q", sum.Endpoint)
	}
}

func TestLoadgenBadAlgo(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run(context.Background(), []string{"-url", "http://x", "-endpoint", "search", "-algo", "oracle"}, &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "unknown -algo") {
		t.Fatalf("bad -algo error = %v", err)
	}
}

func TestLoadgenViaFlagErrors(t *testing.T) {
	for _, c := range []struct{ name, via, endpoint, want string }{
		{"unknown via", "teleport", "evaluate", "unknown -via"},
		{"store with search", "store", "search", "-via store applies to evaluate/batch only"},
	} {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			err := run(context.Background(), []string{"-url", "http://x", "-endpoint", c.endpoint, "-via", c.via}, &stdout, &stderr)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error = %v, want containing %q", err, c.want)
			}
		})
	}
}

// TestLoadgenClusterMode drives a full in-process cluster — three serve
// nodes behind a cluster.Router — in -cluster mode and checks the
// summary's cluster block: every request answered, traffic attributed
// across the nodes, and a finite skew. This doubles as the router's -race
// load smoke (concurrent clients through the scatter/gather and memo
// paths).
func TestLoadgenClusterMode(t *testing.T) {
	var members []cluster.Node
	for i := 0; i < 3; i++ {
		ts := httptest.NewServer(service.NewServer(service.Options{Workers: 2, CacheEntries: 256}).Handler())
		t.Cleanup(ts.Close)
		members = append(members, cluster.Node{Name: fmt.Sprintf("n%d", i), URL: ts.URL})
	}
	rt, err := cluster.NewRouter(cluster.Options{Nodes: members})
	if err != nil {
		t.Fatal(err)
	}
	router := httptest.NewServer(rt.Handler())
	t.Cleanup(router.Close)

	args := []string{
		"-url", router.URL,
		"-cluster",
		"-duration", "300ms",
		"-workers", "3",
		"-reps", "2,2",
		"-instances", "24",
		"-model", "overlap",
		"-via", "store",
		"-seed", "7",
	}
	var stdout, stderr bytes.Buffer
	if err := run(context.Background(), args, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, stderr.String())
	}
	var sum Summary
	if err := json.Unmarshal(stdout.Bytes(), &sum); err != nil {
		t.Fatalf("summary not JSON: %v\n%s", err, stdout.String())
	}
	if sum.Requests == 0 || sum.Errors != 0 {
		t.Fatalf("cluster run: %+v", sum)
	}
	if sum.Cluster == nil {
		t.Fatalf("cluster summary lacks the cluster block: %s", stdout.String())
	}
	if len(sum.Cluster.PerNodeRequests) != 3 {
		t.Fatalf("perNodeRequests covers %d nodes, want 3: %+v", len(sum.Cluster.PerNodeRequests), sum.Cluster)
	}
	var total int64
	for _, n := range sum.Cluster.PerNodeRequests {
		total += n
	}
	// With the router memo absorbing repeats, proxied requests can be far
	// fewer than client requests — but the measurement window must have
	// reached the nodes at all, and skew must be a sane ratio when it did.
	if total == 0 && sum.Cluster.RespMemoHits == 0 {
		t.Fatalf("no traffic attributed to nodes or memo: %+v", sum.Cluster)
	}
	if total > 0 && (sum.Cluster.Skew < 1 || sum.Cluster.Skew > float64(len(sum.Cluster.PerNodeRequests))) {
		t.Fatalf("implausible skew %.2f for %+v", sum.Cluster.Skew, sum.Cluster.PerNodeRequests)
	}
	if sum.Server != nil {
		t.Fatalf("cluster mode should omit the single-node server block: %+v", sum.Server)
	}
}

// TestLoadClientIdlePool is the connection-churn regression test: the
// measurement client must keep one idle connection per worker, where the
// default transport's per-host limit of 2 forced every worker past the
// second to re-dial TCP on most requests.
func TestLoadClientIdlePool(t *testing.T) {
	client := newLoadClient(16)
	tr, ok := client.Transport.(*http.Transport)
	if !ok {
		t.Fatalf("transport is %T, want *http.Transport", client.Transport)
	}
	if tr.MaxIdleConnsPerHost != 16 {
		t.Fatalf("MaxIdleConnsPerHost = %d, want the worker count 16", tr.MaxIdleConnsPerHost)
	}
	if tr.MaxIdleConns < 16 {
		t.Fatalf("MaxIdleConns = %d, below the worker count", tr.MaxIdleConns)
	}
	if http.DefaultTransport.(*http.Transport).MaxIdleConnsPerHost != 0 {
		t.Fatal("newLoadClient mutated http.DefaultTransport")
	}
}

// TestLoadgenStoreMode drives the by-ID protocol end to end: instances are
// registered once, the window hammers content IDs, and the summary carries
// the server-side deltas proving the hits were served by the response memo.
func TestLoadgenStoreMode(t *testing.T) {
	// -reps 8,8,8 makes the inline instance body a few KB so the transport
	// sizes are meaningfully apart; a 2x2 population serializes to ~100
	// bytes, the same order as a content ID.
	sum := runAgainst(t, "-model", "overlap", "-via", "store", "-reps", "8,8,8")
	if sum.Requests == 0 || sum.Errors != 0 {
		t.Fatalf("store-mode run: %+v", sum)
	}
	if sum.Via != "store" {
		t.Fatalf("summary via %q", sum.Via)
	}
	// A by-ID evaluate body is the 64-hex content ID plus the model,
	// independent of the instance size.
	if sum.AvgRequestBytes <= 0 || sum.AvgRequestBytes > 200 {
		t.Fatalf("by-ID avgRequestBytes = %.0f, want a small ID-sized body", sum.AvgRequestBytes)
	}
	if sum.Server == nil {
		t.Fatal("store-mode summary lacks the server stats block")
	}
	if sum.Server.StoreEntries == 0 || sum.Server.RespMemoHits == 0 {
		t.Fatalf("server stats %+v: want registered entries and response-memo hits", sum.Server)
	}
	inline := runAgainst(t, "-model", "overlap", "-reps", "8,8,8")
	if inline.Via != "inline" || inline.AvgRequestBytes < 5*sum.AvgRequestBytes {
		t.Fatalf("inline avgRequestBytes %.0f vs by-ID %.0f: inline should dwarf the ID form", inline.AvgRequestBytes, sum.AvgRequestBytes)
	}
}

// TestLoadgenJobsEndpoint runs full async cycles — submit, poll, result —
// against an in-process server: every cycle must complete inside the
// window with zero errors, and the summary must attribute the run to the
// jobs endpoint.
func TestLoadgenJobsEndpoint(t *testing.T) {
	sum := runAgainst(t, "-endpoint", "jobs", "-algo", "greedy", "-model", "overlap", "-instances", "4", "-workers", "2")
	if sum.Requests == 0 {
		t.Fatal("no job cycles completed in the window")
	}
	if sum.Errors != 0 {
		t.Fatalf("%d/%d job cycles failed: %+v", sum.Errors, sum.Requests, sum.ErrorSamples)
	}
	if sum.Endpoint != "jobs" {
		t.Fatalf("summary endpoint %q", sum.Endpoint)
	}
	if len(sum.ErrorSamples) != 0 {
		t.Fatalf("clean run carries error samples: %+v", sum.ErrorSamples)
	}
}

func TestLoadgenJobsViaStoreRefused(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run(context.Background(), []string{"-url", "http://x", "-endpoint", "jobs", "-via", "store"}, &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "-via store applies to evaluate/batch only") {
		t.Fatalf("jobs -via store error = %v", err)
	}
}

// TestLoadgenErrorSamples drives the generator at a server that refuses
// everything with the unified envelope and checks the summary surfaces the
// decoded envelope — once, despite every request failing.
func TestLoadgenErrorSamples(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(service.ErrorBody{Error: service.ErrorInfo{
			Code: "unavailable", Message: "draining",
		}})
	}))
	t.Cleanup(ts.Close)
	var stdout, stderr bytes.Buffer
	args := []string{"-url", ts.URL, "-duration", "100ms", "-workers", "2", "-instances", "2", "-model", "overlap"}
	if err := run(context.Background(), args, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v", err)
	}
	var sum Summary
	if err := json.Unmarshal(stdout.Bytes(), &sum); err != nil {
		t.Fatalf("summary not JSON: %v\n%s", err, stdout.String())
	}
	if sum.Errors == 0 || sum.Errors != sum.Requests {
		t.Fatalf("refusing server: %d errors of %d requests", sum.Errors, sum.Requests)
	}
	if len(sum.ErrorSamples) != 1 {
		t.Fatalf("error samples = %+v, want exactly one distinct envelope", sum.ErrorSamples)
	}
	s := sum.ErrorSamples[0]
	if s.Status != http.StatusServiceUnavailable || s.Code != "unavailable" || s.Message != "draining" || s.Body != "" {
		t.Fatalf("sample %+v: want decoded envelope, not raw body", s)
	}
}

// TestErrSinkDistinctAndCapped exercises the collector directly: repeats
// collapse, non-envelope bodies are kept raw, and the cap holds.
func TestErrSinkDistinctAndCapped(t *testing.T) {
	var s errSink
	for i := 0; i < 3; i++ {
		s.add(503, []byte(`{"error":{"code":"unavailable","message":"draining"}}`))
	}
	if len(s.samples) != 1 {
		t.Fatalf("repeat envelope kept %d samples", len(s.samples))
	}
	s.add(500, []byte("not json at all"))
	if len(s.samples) != 2 || s.samples[1].Body != "not json at all" || s.samples[1].Code != "" {
		t.Fatalf("raw-body sample wrong: %+v", s.samples)
	}
	for i := 0; i < 2*maxErrorSamples; i++ {
		s.add(400, []byte(fmt.Sprintf(`{"error":{"code":"invalid_request","message":"case %d"}}`, i)))
	}
	if len(s.samples) != maxErrorSamples {
		t.Fatalf("cap: kept %d samples, want %d", len(s.samples), maxErrorSamples)
	}
}
