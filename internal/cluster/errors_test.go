package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/pipeline"
	"repro/internal/platform"
	"repro/internal/service"
)

// TestRouterRequestValidation: every malformed request the router rejects
// itself (before any node round trip) answers the same status and phrasing
// a single serve node would, so clients cannot tell the front end from a
// node on the error surface either.
func TestRouterRequestValidation(t *testing.T) {
	_, _, base := startCluster(t, 2, service.Options{}, func(o *Options) {
		o.MaxBodyBytes = 512
	})

	post := func(path, body string) ([]byte, int) {
		t.Helper()
		return postRaw(t, base+path, []byte(body))
	}
	okInst := `{"comp":[["4","4"],["3"]],"comm":[[["2"],["2"]]]}`

	cases := []struct {
		name   string
		path   string
		body   string
		status int
		want   string
	}{
		{"evaluate bad JSON", "/v1/evaluate", "{", http.StatusBadRequest, "bad request body"},
		{"evaluate trailing data", "/v1/evaluate", `{"model":"overlap"} trailing`, http.StatusBadRequest, "trailing data"},
		{"evaluate trailing brace", "/v1/evaluate",
			fmt.Sprintf(`{"model":"overlap","instance":%s}}`, okInst), http.StatusBadRequest, "trailing data"},
		{"evaluate trailing bracket", "/v1/evaluate",
			fmt.Sprintf(`{"model":"overlap","instance":%s}]`, okInst), http.StatusBadRequest, "trailing data"},
		{"evaluate both forms", "/v1/evaluate",
			fmt.Sprintf(`{"model":"overlap","instance":%s,"instanceId":"%s"}`, okInst, strings.Repeat("0", 64)),
			http.StatusBadRequest, "mutually exclusive"},
		{"evaluate missing instance", "/v1/evaluate", `{"model":"overlap"}`, http.StatusBadRequest, `missing "instance"`},
		{"evaluate oversized body", "/v1/evaluate",
			`{"pad":"` + strings.Repeat("x", 1024) + `"}`, http.StatusRequestEntityTooLarge, "request body too large"},
		{"batch bad JSON", "/v1/batch", "[", http.StatusBadRequest, "bad request body"},
		{"batch empty tasks", "/v1/batch", `{"tasks":[]}`, http.StatusBadRequest, `empty "tasks"`},
		{"batch bad backend", "/v1/batch",
			fmt.Sprintf(`{"backend":"nope","tasks":[{"model":"overlap","instance":%s}]}`, okInst),
			http.StatusBadRequest, "unknown backend"},
		{"batch bad model indexed", "/v1/batch",
			fmt.Sprintf(`{"tasks":[{"model":"overlap","instance":%s},{"model":"nope","instance":%s}]}`, okInst, okInst),
			http.StatusBadRequest, "task 1:"},
		{"batch both forms indexed", "/v1/batch",
			fmt.Sprintf(`{"tasks":[{"model":"overlap","instance":%s,"instanceId":"%s"}]}`, okInst, strings.Repeat("0", 64)),
			http.StatusBadRequest, `task 0: "instance" and "instanceId" are mutually exclusive`},
		{"batch missing instance indexed", "/v1/batch",
			`{"tasks":[{"model":"overlap"}]}`, http.StatusBadRequest, `task 0: missing "instance"`},
		{"sweep bad JSON", "/v1/sweep", "{", http.StatusBadRequest, "bad request body"},
		{"sweep bad backend", "/v1/sweep", `{"backend":"nope"}`, http.StatusBadRequest, "unknown backend"},
		{"instances bad JSON", "/v1/instances", "{", http.StatusBadRequest, "bad request body"},
		{"instances missing instance", "/v1/instances", `{}`, http.StatusBadRequest, `missing "instance"`},
		{"instances two kinds", "/v1/instances",
			`{"pipeline":{"stages":[{"work":5}],"fileSizes":[]},"platform":{"speeds":[1],"bandwidths":[[0]]}}`,
			http.StatusBadRequest, `"instance", "pipeline" and "platform" are mutually exclusive`},
		{"jobs bad JSON", "/v1/jobs", "{", http.StatusBadRequest, "bad request body"},
		{"jobs trailing data", "/v1/jobs", `{"kind":"sweep","sweep":{}} x`, http.StatusBadRequest, "trailing data"},
		{"healthz not GET", "/healthz", "", http.StatusMethodNotAllowed, "healthz requires GET"},
		{"metrics not GET", "/metrics", "", http.StatusMethodNotAllowed, "metrics requires GET"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			body, status := post(c.path, c.body)
			// Match on the decoded error message: the raw body JSON-escapes
			// any quotes the phrasing contains.
			var e struct {
				Error service.ErrorInfo `json:"error"`
			}
			_ = json.Unmarshal(body, &e)
			if status != c.status || !strings.Contains(e.Error.Message, c.want) {
				t.Fatalf("%s: status %d body %s, want %d containing %q", c.path, status, body, c.status, c.want)
			}
			if e.Error.Code != service.DefaultErrorCode(c.status) {
				t.Fatalf("%s: code %q, want the status default %q", c.path, e.Error.Code, service.DefaultErrorCode(c.status))
			}
		})
	}

	t.Run("healthz and metrics errors counted", func(t *testing.T) {
		var m struct {
			Router struct {
				Errors map[string]int64 `json:"errors"`
			} `json:"router"`
		}
		body, _ := getRaw(t, base+"/metrics")
		if err := json.Unmarshal(body, &m); err != nil {
			t.Fatalf("metrics: %v\n%s", err, body)
		}
		if m.Router.Errors["healthz"] != 1 || m.Router.Errors["metrics"] != 1 {
			t.Fatalf("router errors %v, want one healthz and one metrics", m.Router.Errors)
		}
	})

	t.Run("method not allowed", func(t *testing.T) {
		for _, path := range []string{"/v1/evaluate", "/v1/batch", "/v1/sweep", "/v1/search", "/v1/instances"} {
			body, status := getRaw(t, base+path)
			if status != http.StatusMethodNotAllowed {
				t.Fatalf("GET %s: status %d body %s, want 405", path, status, body)
			}
		}
		resp, err := http.Post(base+"/v1/instances/"+strings.Repeat("0", 64), "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("POST by-ID lookup: status %d, want 405", resp.StatusCode)
		}
	})

	t.Run("bad instance path", func(t *testing.T) {
		body, status := getRaw(t, base+"/v1/instances/a/b")
		if status != http.StatusBadRequest || !strings.Contains(string(body), "bad instance path") {
			t.Fatalf("status %d body %s", status, body)
		}
	})

	t.Run("job routes", func(t *testing.T) {
		if body, status := getRaw(t, base+"/v1/jobs/a/b/c"); status != http.StatusBadRequest ||
			!strings.Contains(string(body), "bad job path") {
			t.Fatalf("bad job path: status %d body %s", status, body)
		}
		if body, status := getRaw(t, base+"/v1/jobs?kind=polka"); status != http.StatusBadRequest ||
			!strings.Contains(string(body), "unknown job kind") {
			t.Fatalf("bad kind filter: status %d body %s", status, body)
		}
		if body, status := getRaw(t, base+"/v1/jobs?state=paused"); status != http.StatusBadRequest ||
			!strings.Contains(string(body), "unknown state") {
			t.Fatalf("bad state filter: status %d body %s", status, body)
		}
		req, err := http.NewRequest(http.MethodPut, base+"/v1/jobs", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("PUT /v1/jobs: status %d, want 405", resp.StatusCode)
		}
		// Unknown job ID routes to a node and passes its 404 through with
		// the node's code — error-surface parity on the job routes too.
		body, status := getRaw(t, base+"/v1/jobs/feedface00000000-1")
		if status != http.StatusNotFound {
			t.Fatalf("unknown job via router: status %d body %s", status, body)
		}
		var e struct {
			Error service.ErrorInfo `json:"error"`
		}
		if err := json.Unmarshal(body, &e); err != nil || e.Error.Code != "unknown_job" {
			t.Fatalf("unknown job envelope %s (decode err %v)", body, err)
		}
	})
}

// TestRouterSearchProxiesOpaque: /v1/search has no shardable key, so the
// whole body routes by its own bytes — and the answer is a node's answer,
// verbatim.
func TestRouterSearchProxiesOpaque(t *testing.T) {
	nodes, _, base := startCluster(t, 3, service.Options{}, nil)
	pipe, err := pipeline.New([]int64{100, 200, 100}, []int64{50, 50})
	if err != nil {
		t.Fatal(err)
	}
	req := mustJSON(t, service.SearchRequest{
		Pipeline: pipe, Platform: platform.Uniform(3, 100, 100),
		Model: "overlap", Algo: "greedy", Seed: 3,
	})
	viaRouter, status := postRaw(t, base+"/v1/search", req)
	if status != http.StatusOK {
		t.Fatalf("search via router: status %d body %s", status, viaRouter)
	}
	direct, status := postRaw(t, nodes[0].url()+"/v1/search", req)
	if status != http.StatusOK {
		t.Fatalf("search direct: status %d body %s", status, direct)
	}
	if string(viaRouter) != string(direct) {
		t.Fatalf("routed search differs from direct:\n%s\nvs\n%s", viaRouter, direct)
	}
}

// TestRouterSweepOnlySubsetForwardsWhole: a sweep that already carries
// "only" (another router's scatter, or a hand-slicing client) must forward
// as-is rather than re-scatter, and answer exactly what a node answers.
func TestRouterSweepOnlySubsetForwardsWhole(t *testing.T) {
	nodes, _, base := startCluster(t, 2, service.Options{}, nil)
	req := `{"seed":5,"pairs":[[1,1],[2,1],[1,2]],"only":[1]}`
	viaRouter, status := postRaw(t, base+"/v1/sweep", []byte(req))
	if status != http.StatusOK {
		t.Fatalf("subset sweep via router: status %d body %s", status, viaRouter)
	}
	direct, status := postRaw(t, nodes[0].url()+"/v1/sweep", []byte(req))
	if status != http.StatusOK {
		t.Fatalf("subset sweep direct: status %d body %s", status, direct)
	}
	var a, b service.SweepResponse
	if err := json.Unmarshal(viaRouter, &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(direct, &b); err != nil {
		t.Fatal(err)
	}
	for i := range a.Points {
		a.Points[i].PolyNs, a.Points[i].TPNNs = 0, 0
		b.Points[i].PolyNs, b.Points[i].TPNNs = 0, 0
	}
	ra, rb := mustJSON(t, a), mustJSON(t, b)
	if string(ra) != string(rb) {
		t.Fatalf("routed subset sweep differs from direct:\n%s\nvs\n%s", ra, rb)
	}
}

// TestRouterAllNodesUnreachable: nodes that are in the ring but answer no
// connections yield a 502 ("no reachable node"), and once the prober ejects
// every node the verdict becomes the 503 whole-cluster-down answer.
func TestRouterAllNodesUnreachable(t *testing.T) {
	// Bind-then-close: the address is real but refuses connections.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadURL := "http://" + ln.Addr().String()
	ln.Close()

	rt, err := NewRouter(Options{
		Nodes:       []Node{{Name: "dead", URL: deadURL}},
		EjectAfter:  1,
		RejoinAfter: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)
	srv := ts.URL

	body, status := postRaw(t, srv+"/v1/evaluate", []byte(`{"model":"overlap","instanceId":"`+strings.Repeat("0", 64)+`"}`))
	if status != http.StatusBadGateway || !strings.Contains(string(body), "no reachable node") {
		t.Fatalf("unreachable node: status %d body %s, want 502 no-reachable-node", status, body)
	}

	// The transport failures above already burned the eject threshold, so
	// the ring is now empty: every routed endpoint answers 503 immediately.
	for _, probe := range []struct{ path, body string }{
		{"/v1/evaluate", `{"model":"overlap","instanceId":"` + strings.Repeat("0", 64) + `"}`},
		{"/v1/batch", `{"tasks":[{"model":"overlap","instanceId":"` + strings.Repeat("0", 64) + `"}]}`},
		{"/v1/sweep", `{"seed":1,"pairs":[[1,1]]}`},
	} {
		body, status := postRaw(t, srv+probe.path, []byte(probe.body))
		if status != http.StatusServiceUnavailable || !strings.Contains(string(body), "no cluster nodes available") {
			t.Fatalf("%s with empty ring: status %d body %s, want 503 no-nodes", probe.path, status, body)
		}
	}

	var health HealthzResponse
	hb, _ := getRaw(t, srv+"/healthz")
	if err := json.Unmarshal(hb, &health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "down" || len(health.RingNodes) != 0 {
		t.Fatalf("healthz after total ejection = %+v, want down with empty ring", health)
	}
}

// TestServeListensAndShutsDown drives the library-level Serve (the exact
// path cmd/router runs): it must log its bound address, answer requests,
// and return nil on a clean context cancel.
func TestServeListensAndShutsDown(t *testing.T) {
	node := startNode(t, service.Options{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var mu sync.Mutex
	var logs []string
	logf := func(format string, args ...any) {
		mu.Lock()
		logs = append(logs, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	done := make(chan error, 1)
	go func() {
		done <- Serve(ctx, "127.0.0.1:0", Options{
			Nodes:         []Node{{URL: node.url()}},
			ProbeInterval: 20 * time.Millisecond,
		}, logf)
	}()

	listenRe := regexp.MustCompile(`listening on ([^\s]+)`)
	var addr string
	deadline := time.Now().Add(10 * time.Second)
	for addr == "" {
		if time.Now().After(deadline) {
			t.Fatal("Serve never logged its address")
		}
		mu.Lock()
		for _, l := range logs {
			if m := listenRe.FindStringSubmatch(l); m != nil {
				addr = m[1]
			}
		}
		mu.Unlock()
		time.Sleep(10 * time.Millisecond)
	}

	var health HealthzResponse
	hb, status := getRaw(t, "http://"+addr+"/healthz")
	if status != http.StatusOK {
		t.Fatalf("healthz status %d", status)
	}
	if err := json.Unmarshal(hb, &health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || len(health.RingNodes) != 1 {
		t.Fatalf("healthz = %+v", health)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve returned %v after cancel", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("Serve did not return after cancel")
	}

	// A bad option set and an unbindable address both fail fast.
	if err := Serve(context.Background(), "127.0.0.1:0", Options{}, nil); err == nil {
		t.Fatal("Serve with no nodes should fail")
	}
	if err := Serve(context.Background(), "256.0.0.1:bad", Options{
		Nodes: []Node{{URL: node.url()}},
	}, nil); err == nil {
		t.Fatal("Serve with an unbindable address should fail")
	}
}
