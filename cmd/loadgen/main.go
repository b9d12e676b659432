// Command loadgen drives the evaluation service (cmd/serve) with a
// closed-loop workload and reports the latency distribution — the
// measurement half of the "serves heavy traffic" claim. Each worker sends a
// request, waits for the answer, and immediately sends the next (optionally
// throttled to a target aggregate request rate), so the offered load is
// bounded by the service's actual capacity rather than queueing without
// limit.
//
// Usage:
//
//	loadgen -url http://localhost:8080 [-endpoint evaluate] [-via inline]
//	        [-cluster] [-workers 4] [-rps 0] [-duration 10s] [-model strict]
//	        [-reps 2,3] [-instances 64] [-batch 16]
//	        [-algo bnb] [-seed 1]
//
// -endpoint search drives /v1/search with randomly generated (pipeline,
// platform) problems; -algo picks the search algorithm (default bnb, the
// exact branch and bound — the heaviest per-request workload the service
// offers). -endpoint jobs drives the same search population through the
// async /v1/jobs surface: each closed-loop cycle submits a job, polls its
// status to a terminal state and fetches the result, so the measured
// latency is the full submit-poll-result round trip and the comparison
// against -endpoint search is the async surface's overhead.
//
// Any non-200 (for jobs, non-202/200) answer counts as an error, and the
// summary carries the first few distinct error envelopes the run saw —
// enough to tell a capacity refusal from a validation bug without
// re-running under a debugger.
//
// -via store switches evaluate/batch requests to the content-addressed
// protocol: every instance is registered once via POST /v1/instances before
// the measurement window opens, and the workload refers to instances by
// their 64-byte content IDs — the request bodies shrink ~100x and the
// server's hit path skips all instance parsing and canonical serialization.
// The summary then includes the server-side cache/store/response-memo
// deltas scraped from /metrics across the window.
//
// -cluster points the run at a cmd/router front end instead of a single
// serve node: the summary's "cluster" block then reports how the window's
// requests distributed across the nodes (and the skew of that
// distribution), plus the router's failover retries, registration replays,
// eject/rejoin transitions and response-memo traffic.
//
// -rps 0 runs unthrottled (pure closed loop: measured throughput is the
// service's capacity at this concurrency). The summary is one JSON object
// on stdout: request/error counts, achieved RPS, average request bytes and
// latency quantiles (p50/p95/p99), ready for EXPERIMENTS.md or a dashboard.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/exper"
	"repro/internal/model"
	"repro/internal/pipeline"
	"repro/internal/platform"
	"repro/internal/service"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return // usage already printed
		}
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

// Summary is the JSON report printed on stdout.
type Summary struct {
	URL             string  `json:"url"`
	Endpoint        string  `json:"endpoint"`
	Via             string  `json:"via"`
	Workers         int     `json:"workers"`
	TargetRPS       float64 `json:"targetRps"`
	DurationSeconds float64 `json:"durationSeconds"`
	Requests        int     `json:"requests"`
	Errors          int     `json:"errors"`
	AchievedRPS     float64 `json:"achievedRps"`
	AvgRequestBytes float64 `json:"avgRequestBytes"`
	Latency         LatQ    `json:"latencyMs"`
	// ErrorSamples holds the first few distinct error envelopes seen on
	// non-success answers (capped at maxErrorSamples; empty on a clean run).
	ErrorSamples []ErrorSample `json:"errorSamples,omitempty"`
	Server       *ServerStats  `json:"server,omitempty"`
	Cluster      *ClusterStats `json:"cluster,omitempty"`
}

// ErrorSample is one distinct error answer: the unified envelope's code and
// message when the body parses as {"error":{code,message}}, otherwise the
// raw body (truncated) so even a non-envelope failure is diagnosable.
type ErrorSample struct {
	Status  int    `json:"status"`
	Code    string `json:"code,omitempty"`
	Message string `json:"message,omitempty"`
	Body    string `json:"body,omitempty"`
}

// maxErrorSamples caps the distinct envelopes a summary retains.
const maxErrorSamples = 5

// errSink collects the first maxErrorSamples distinct error answers across
// all workers. Distinctness is (status, code, message, body) — repeats of
// the same refusal do not crowd out a second failure mode.
type errSink struct {
	mu      sync.Mutex
	seen    map[string]bool
	samples []ErrorSample
}

func (s *errSink) add(status int, body []byte) {
	smp := ErrorSample{Status: status}
	var eb service.ErrorBody
	if err := json.Unmarshal(body, &eb); err == nil && (eb.Error.Code != "" || eb.Error.Message != "") {
		smp.Code, smp.Message = eb.Error.Code, eb.Error.Message
	} else {
		raw := string(body)
		if len(raw) > 200 {
			raw = raw[:200]
		}
		smp.Body = raw
	}
	key := fmt.Sprintf("%d\x00%s\x00%s\x00%s", smp.Status, smp.Code, smp.Message, smp.Body)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.seen == nil {
		s.seen = make(map[string]bool)
	}
	if s.seen[key] || len(s.samples) >= maxErrorSamples {
		return
	}
	s.seen[key] = true
	s.samples = append(s.samples, smp)
}

// ClusterStats are the router-side counter deltas across the measurement
// window when -cluster points the run at a cmd/router front end: the
// per-node request distribution (and its skew — max/mean, 1.0 = perfectly
// even), failover retries, registration replays, membership transitions
// and the router response-memo traffic.
type ClusterStats struct {
	// PerNodeRequests is requests proxied to each node during the window.
	PerNodeRequests map[string]int64 `json:"perNodeRequests"`
	// Skew is max/mean over PerNodeRequests (0 when no node saw traffic).
	Skew           float64 `json:"skew"`
	Retries        int64   `json:"retries"`
	Replays        int64   `json:"replays"`
	Ejects         int64   `json:"ejects"`
	Rejoins        int64   `json:"rejoins"`
	RespMemoHits   int64   `json:"respMemoHits"`
	RespMemoMisses int64   `json:"respMemoMisses"`
}

// ServerStats are the server-side counter deltas across the measurement
// window, scraped from /metrics (omitted when the scrape fails — e.g. a
// server predating the instance store).
type ServerStats struct {
	CacheHits      int64 `json:"cacheHits"`
	CacheMisses    int64 `json:"cacheMisses"`
	StoreResolves  int64 `json:"storeResolves"`
	StoreMisses    int64 `json:"storeMisses"`
	StoreEntries   int64 `json:"storeEntries"`
	RespMemoHits   int64 `json:"respMemoHits"`
	RespMemoMisses int64 `json:"respMemoMisses"`
}

// LatQ holds latency quantiles in milliseconds.
type LatQ struct {
	P50  float64 `json:"p50"`
	P95  float64 `json:"p95"`
	P99  float64 `json:"p99"`
	Mean float64 `json:"mean"`
	Max  float64 `json:"max"`
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	baseURL := fs.String("url", "", "base URL of the service (required), e.g. http://localhost:8080")
	endpoint := fs.String("endpoint", "evaluate", "endpoint to drive: evaluate, batch, search or jobs (async submit-poll-result cycles)")
	workers := fs.Int("workers", 4, "concurrent closed-loop clients")
	rps := fs.Float64("rps", 0, "target aggregate requests/second (0 = unthrottled)")
	duration := fs.Duration("duration", 10*time.Second, "measurement window")
	modelName := fs.String("model", "strict", "communication model of the generated tasks")
	repsFlag := fs.String("reps", "2,3", "replication vector of the generated instances, e.g. 2,3")
	instances := fs.Int("instances", 64, "distinct random instances rotated through")
	batchSize := fs.Int("batch", 16, "tasks per request for -endpoint batch")
	algo := fs.String("algo", "bnb", "search algorithm for -endpoint search: best, greedy, random, anneal, exhaustive or bnb")
	via := fs.String("via", "inline", "instance transport for evaluate/batch: inline (full JSON per request) or store (register once, refer by content ID)")
	clusterMode := fs.Bool("cluster", false, "treat -url as a cluster router (cmd/router): the summary reports the per-node request distribution, its skew and the router's failover counters instead of single-node server stats")
	seed := fs.Int64("seed", 1, "random seed for the instance population")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *baseURL == "" {
		return fmt.Errorf("-url is required")
	}
	if *workers < 1 {
		return fmt.Errorf("-workers must be >= 1 (got %d)", *workers)
	}
	if *instances < 1 {
		return fmt.Errorf("-instances must be >= 1 (got %d)", *instances)
	}
	cm, err := model.Parse(*modelName)
	if err != nil {
		return err
	}
	reps, err := parseReps(*repsFlag)
	if err != nil {
		return err
	}
	var path string
	switch *endpoint {
	case "evaluate":
		path = "/v1/evaluate"
	case "batch":
		path = "/v1/batch"
	case "search":
		path = "/v1/search"
	case "jobs":
		path = "/v1/jobs"
	default:
		return fmt.Errorf("unknown -endpoint %q (want evaluate, batch, search or jobs)", *endpoint)
	}
	switch *algo {
	case "best", "greedy", "random", "anneal", "exhaustive", "bnb":
	default:
		return fmt.Errorf("unknown -algo %q (want best, greedy, random, anneal, exhaustive or bnb)", *algo)
	}
	switch *via {
	case "inline":
	case "store":
		if *endpoint == "search" || *endpoint == "jobs" {
			return fmt.Errorf("-via store applies to evaluate/batch only (%s carries no instance)", *endpoint)
		}
	default:
		return fmt.Errorf("unknown -via %q (want inline or store)", *via)
	}

	client := newLoadClient(*workers)
	base := strings.TrimRight(*baseURL, "/")

	var payloads [][]byte
	if *via == "store" {
		// Register the population once, outside the measurement window, then
		// hammer by ID. Same seed, same generator: the tasks are identical to
		// the inline form's, only the transport differs.
		payloads, err = storePayloads(ctx, client, base, *endpoint, rand.New(rand.NewSource(*seed)), reps, *instances, *batchSize, cm)
	} else {
		payloads, err = buildPayloads(*endpoint, rand.New(rand.NewSource(*seed)), reps, *instances, *batchSize, *algo, cm)
	}
	if err != nil {
		return err
	}
	var payloadBytes int64
	for _, p := range payloads {
		payloadBytes += int64(len(p))
	}

	var before ServerStats
	var haveBefore bool
	var cBefore clusterCounters
	var haveCBefore bool
	if *clusterMode {
		cBefore, haveCBefore = scrapeClusterCounters(ctx, client, base)
	} else {
		before, haveBefore = scrapeServerStats(ctx, client, base)
	}

	ctx, cancel := context.WithTimeout(ctx, *duration)
	defer cancel()

	// The pacer turns a target aggregate rate into a shared token stream;
	// with -rps 0 the channel stays nil and workers never block on it.
	var tokens <-chan time.Time
	if *rps > 0 {
		interval := time.Duration(float64(time.Second) / *rps)
		if interval <= 0 {
			interval = time.Nanosecond
		}
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		tokens = ticker.C
	}

	url := base + path
	jobsMode := *endpoint == "jobs"
	sink := &errSink{}
	type workerStats struct {
		lats []time.Duration
		errs int
	}
	stats := make([]workerStats, *workers)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < *workers; w++ {
		wg.Add(1)
		go func(self int) {
			defer wg.Done()
			st := &stats[self]
			for i := self; ; i++ {
				if tokens != nil {
					select {
					case <-tokens:
					case <-ctx.Done():
						return
					}
				} else if ctx.Err() != nil {
					return
				}
				t0 := time.Now()
				var ok bool
				if jobsMode {
					ok = jobCycle(ctx, client, base, payloads[i%len(payloads)], sink)
				} else {
					body, status := post(ctx, client, url, payloads[i%len(payloads)])
					ok = status == http.StatusOK
					if !ok && ctx.Err() == nil {
						sink.add(status, body)
					}
				}
				if ctx.Err() != nil {
					return // a cut-off request measures the deadline, not the service
				}
				if ok {
					st.lats = append(st.lats, time.Since(t0))
				} else {
					st.errs++
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var all []time.Duration
	errs := 0
	for _, st := range stats {
		all = append(all, st.lats...)
		errs += st.errs
	}
	sum := Summary{
		URL:             *baseURL,
		Endpoint:        *endpoint,
		Via:             *via,
		Workers:         *workers,
		TargetRPS:       *rps,
		DurationSeconds: elapsed.Seconds(),
		Requests:        len(all) + errs,
		Errors:          errs,
		AchievedRPS:     float64(len(all)) / elapsed.Seconds(),
		AvgRequestBytes: float64(payloadBytes) / float64(len(payloads)),
		Latency:         quantiles(all),
		ErrorSamples:    sink.samples,
	}
	// The measurement deadline has expired; scrape the post-window counters
	// on a fresh context.
	switch {
	case *clusterMode:
		if after, ok := scrapeClusterCounters(context.WithoutCancel(ctx), client, base); ok && haveCBefore {
			sum.Cluster = clusterDelta(cBefore, after)
		}
	default:
		if after, ok := scrapeServerStats(context.WithoutCancel(ctx), client, base); ok && haveBefore {
			sum.Server = &ServerStats{
				CacheHits:      after.CacheHits - before.CacheHits,
				CacheMisses:    after.CacheMisses - before.CacheMisses,
				StoreResolves:  after.StoreResolves - before.StoreResolves,
				StoreMisses:    after.StoreMisses - before.StoreMisses,
				StoreEntries:   after.StoreEntries,
				RespMemoHits:   after.RespMemoHits - before.RespMemoHits,
				RespMemoMisses: after.RespMemoMisses - before.RespMemoMisses,
			}
		}
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(sum)
}

// newLoadClient builds the measurement client. The default transport keeps
// only 2 idle connections per host, so any run past -workers 2 tore down
// and re-dialed TCP on most requests — measuring connection setup, not the
// service. Size the idle pool to the worker count: a closed loop holds at
// most one connection per worker.
func newLoadClient(workers int) *http.Client {
	transport := http.DefaultTransport.(*http.Transport).Clone()
	transport.MaxIdleConnsPerHost = workers
	if transport.MaxIdleConns < workers {
		transport.MaxIdleConns = workers
	}
	return &http.Client{Transport: transport}
}

// post sends one request and answers the response body and status (status
// 0 on a transport failure). Reading the body to completion lets the client
// reuse the connection.
func post(ctx context.Context, client *http.Client, url string, payload []byte) ([]byte, int) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(payload))
	if err != nil {
		return nil, 0
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return nil, 0
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return body, resp.StatusCode
}

// get fetches one URL with the same transport discipline as post.
func get(ctx context.Context, client *http.Client, url string) ([]byte, int) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, 0
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, 0
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return body, resp.StatusCode
}

// jobCycle runs one full async round trip: submit the job, poll its status
// until it reports a terminal state, fetch the result. Success is a fetched
// result of a done job; everything else (refusal, failed job, canceled job,
// transport error) counts as an error, with any error envelope recorded.
func jobCycle(ctx context.Context, client *http.Client, base string, payload []byte, sink *errSink) bool {
	body, status := post(ctx, client, base+"/v1/jobs", payload)
	if ctx.Err() != nil {
		return false
	}
	if status != http.StatusAccepted {
		sink.add(status, body)
		return false
	}
	var j service.Job
	if err := json.Unmarshal(body, &j); err != nil || j.ID == "" {
		return false
	}
	for {
		body, status = get(ctx, client, base+"/v1/jobs/"+j.ID)
		if ctx.Err() != nil {
			return false
		}
		if status != http.StatusOK {
			sink.add(status, body)
			return false
		}
		if err := json.Unmarshal(body, &j); err != nil {
			return false
		}
		switch j.State {
		case "done":
			rb, rs := get(ctx, client, base+"/v1/jobs/"+j.ID+"/result")
			if ctx.Err() != nil {
				return false
			}
			if rs != http.StatusOK {
				sink.add(rs, rb)
				return false
			}
			return true
		case "failed", "canceled":
			return false
		}
		select {
		case <-ctx.Done():
			return false
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// parseReps parses "2,3" into a replication vector.
func parseReps(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	reps := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad -reps %q: want comma-separated positive integers", s)
		}
		reps = append(reps, v)
	}
	return reps, nil
}

// buildPayloads pre-marshals the request bodies so the measurement loop
// does no JSON work of its own.
func buildPayloads(endpoint string, rng *rand.Rand, reps []int, instances, batchSize int, algo string, cm model.CommModel) ([][]byte, error) {
	if endpoint == "search" || endpoint == "jobs" {
		// The search population: small heterogeneous problems whose exact
		// tree (a few thousand leaves) makes every request a real solve, not
		// a cache hit. The jobs endpoint drives the identical population
		// wrapped in the async submission envelope, so a search-vs-jobs run
		// pair measures exactly the surface overhead.
		var payloads [][]byte
		for k := 0; k < instances; k++ {
			pipe := pipeline.Random(rng, 3, 50, 500)
			plat := platform.Random(rng, 5, 5, 25, 20, 200)
			sr := &service.SearchRequest{
				Pipeline: pipe,
				Platform: plat,
				Model:    cm.String(),
				Algo:     algo,
				Seed:     int64(k),
			}
			var body any = sr
			if endpoint == "jobs" {
				body = service.JobSubmitRequest{Kind: "search", Search: sr}
			}
			b, err := json.Marshal(body)
			if err != nil {
				return nil, err
			}
			payloads = append(payloads, b)
		}
		return payloads, nil
	}
	// The instance population is the sweep's family: uniform integer times
	// in the Table 2 computation-time range [5, 15].
	insts := make([]*model.Instance, instances)
	for k := range insts {
		inst, err := exper.RandomTimedInstance(rng, reps, 5, 15)
		if err != nil {
			return nil, err
		}
		insts[k] = inst
	}
	var payloads [][]byte
	if endpoint == "evaluate" {
		for _, inst := range insts {
			b, err := json.Marshal(service.EvaluateRequest{Instance: inst, Model: cm.String()})
			if err != nil {
				return nil, err
			}
			payloads = append(payloads, b)
		}
		return payloads, nil
	}
	if batchSize < 1 {
		return nil, fmt.Errorf("-batch must be >= 1 (got %d)", batchSize)
	}
	for at := 0; at < len(insts); at += batchSize {
		end := at + batchSize
		if end > len(insts) {
			end = len(insts)
		}
		var req service.BatchRequest
		for _, inst := range insts[at:end] {
			req.Tasks = append(req.Tasks, service.BatchTask{Instance: inst, Model: cm.String()})
		}
		b, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		payloads = append(payloads, b)
	}
	return payloads, nil
}

// storePayloads builds the -via store workload: the same deterministic
// instance population as the inline form (same seed, same generator), each
// registered once via POST /v1/instances, with the request bodies carrying
// only the returned content IDs.
func storePayloads(ctx context.Context, client *http.Client, base, endpoint string, rng *rand.Rand, reps []int, instances, batchSize int, cm model.CommModel) ([][]byte, error) {
	ids := make([]string, instances)
	for k := range ids {
		inst, err := exper.RandomTimedInstance(rng, reps, 5, 15)
		if err != nil {
			return nil, err
		}
		body, err := json.Marshal(service.InstanceRequest{Instance: inst})
		if err != nil {
			return nil, err
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/instances", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := client.Do(req)
		if err != nil {
			return nil, fmt.Errorf("registering instance %d: %w", k, err)
		}
		var reg service.InstanceResponse
		err = json.NewDecoder(resp.Body).Decode(&reg)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || reg.ID == "" {
			return nil, fmt.Errorf("registering instance %d: status %d (decode err %v)", k, resp.StatusCode, err)
		}
		ids[k] = reg.ID
	}
	var payloads [][]byte
	if endpoint == "evaluate" {
		for _, id := range ids {
			b, err := json.Marshal(service.EvaluateRequest{InstanceID: id, Model: cm.String()})
			if err != nil {
				return nil, err
			}
			payloads = append(payloads, b)
		}
		return payloads, nil
	}
	if batchSize < 1 {
		return nil, fmt.Errorf("-batch must be >= 1 (got %d)", batchSize)
	}
	for at := 0; at < len(ids); at += batchSize {
		end := at + batchSize
		if end > len(ids) {
			end = len(ids)
		}
		var req service.BatchRequest
		for _, id := range ids[at:end] {
			req.Tasks = append(req.Tasks, service.BatchTask{InstanceID: id, Model: cm.String()})
		}
		b, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		payloads = append(payloads, b)
	}
	return payloads, nil
}

// scrapeServerStats pulls the cache/store/response-memo counters from
// /metrics; ok is false when the scrape fails (the summary then omits the
// server block rather than failing the run).
func scrapeServerStats(ctx context.Context, client *http.Client, base string) (ServerStats, bool) {
	var out ServerStats
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return out, false
	}
	resp, err := client.Do(req)
	if err != nil {
		return out, false
	}
	defer resp.Body.Close()
	var m struct {
		Cache map[string]struct {
			Hits, Misses int64
		} `json:"cache"`
		Store struct {
			Resolves, Misses, Entries int64
		} `json:"store"`
		RespMemo *struct {
			Hits, Misses int64
		} `json:"respMemo"`
	}
	if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&m) != nil {
		return out, false
	}
	for _, c := range m.Cache {
		out.CacheHits += c.Hits
		out.CacheMisses += c.Misses
	}
	out.StoreResolves = m.Store.Resolves
	out.StoreMisses = m.Store.Misses
	out.StoreEntries = m.Store.Entries
	if m.RespMemo != nil {
		out.RespMemoHits = m.RespMemo.Hits
		out.RespMemoMisses = m.RespMemo.Misses
	}
	return out, true
}

// clusterCounters is the raw router-side counter snapshot behind the
// ClusterStats deltas.
type clusterCounters struct {
	perNode                           map[string]int64
	retries, replays, ejects, rejoins int64
	memoHits, memoMisses              int64
}

// scrapeClusterCounters pulls the router block from a cmd/router /metrics
// body; ok is false when the target is unreachable or is not a router (a
// plain serve node has no "router" section — the summary then omits the
// cluster block rather than reporting zeros as fact).
func scrapeClusterCounters(ctx context.Context, client *http.Client, base string) (clusterCounters, bool) {
	var out clusterCounters
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return out, false
	}
	resp, err := client.Do(req)
	if err != nil {
		return out, false
	}
	defer resp.Body.Close()
	var m struct {
		Router *struct {
			Retries  int64            `json:"retries"`
			Replays  int64            `json:"replays"`
			Ejects   int64            `json:"ejects"`
			Rejoins  int64            `json:"rejoins"`
			PerNode  map[string]int64 `json:"perNode"`
			RespMemo *struct {
				Hits   int64 `json:"hits"`
				Misses int64 `json:"misses"`
			} `json:"respMemo"`
		} `json:"router"`
	}
	if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&m) != nil || m.Router == nil {
		return out, false
	}
	out.perNode = m.Router.PerNode
	out.retries = m.Router.Retries
	out.replays = m.Router.Replays
	out.ejects = m.Router.Ejects
	out.rejoins = m.Router.Rejoins
	if m.Router.RespMemo != nil {
		out.memoHits = m.Router.RespMemo.Hits
		out.memoMisses = m.Router.RespMemo.Misses
	}
	return out, true
}

// clusterDelta folds two router snapshots into the window's ClusterStats.
func clusterDelta(before, after clusterCounters) *ClusterStats {
	per := make(map[string]int64, len(after.perNode))
	var total, max int64
	for name, v := range after.perNode {
		d := v - before.perNode[name]
		per[name] = d
		total += d
		if d > max {
			max = d
		}
	}
	skew := 0.0
	if len(per) > 0 && total > 0 {
		skew = float64(max) * float64(len(per)) / float64(total)
	}
	return &ClusterStats{
		PerNodeRequests: per,
		Skew:            skew,
		Retries:         after.retries - before.retries,
		Replays:         after.replays - before.replays,
		Ejects:          after.ejects - before.ejects,
		Rejoins:         after.rejoins - before.rejoins,
		RespMemoHits:    after.memoHits - before.memoHits,
		RespMemoMisses:  after.memoMisses - before.memoMisses,
	}
}

// quantiles computes exact latency quantiles from the recorded samples
// using the nearest-rank definition: the smallest sample such that at
// least a q fraction of the distribution is at or below it,
// ceil(q*n)-1 after the sort. The previous floor-index formula
// (int(q*(n-1))) was biased low on small samples — the p95 of 10 samples
// answered the 9th-ranked value instead of the maximum — which understated
// exactly the tail latencies a load report exists to surface.
func quantiles(lats []time.Duration) LatQ {
	if len(lats) == 0 {
		return LatQ{}
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	at := func(q float64) float64 {
		i := int(math.Ceil(q*float64(len(lats)))) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(lats) {
			i = len(lats) - 1
		}
		return float64(lats[i].Nanoseconds()) / 1e6
	}
	var sum time.Duration
	for _, l := range lats {
		sum += l
	}
	return LatQ{
		P50:  at(0.50),
		P95:  at(0.95),
		P99:  at(0.99),
		Mean: float64(sum.Nanoseconds()) / float64(len(lats)) / 1e6,
		Max:  float64(lats[len(lats)-1].Nanoseconds()) / 1e6,
	}
}
